"""Span recorder for the traced run, and the exact RHS count by replay.

The recorder wraps the public names that ``cli``, ``dressed``, ``hydro`` and
``phase_scan`` look up at call time, so the program itself is untouched.
Wrappers are installed only around traced passes; untraced passes run the
plain program.  A name that no longer exists is listed in ``missing`` and
its metrics read zero.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

# (module, attribute, span name).  Module attributes are wrapped where the
# caller looks the name up: ``cli`` imported some names into its own
# namespace, ``phase_scan`` resolves ``pulse_pair_population`` and
# ``rwa_propagate_coupling`` in ``interferometry``, and ``hj_residual`` /
# ``continuity_residual`` resolve ``polar_decompose`` in ``hydro``.
TARGETS = (
    ("dressedphase.cli", "run", "cli.run"),
    ("dressedphase.cli", "rwa_propagate", "propagator.rwa_propagate"),
    ("dressedphase.cli", "full_field_propagate", "propagator.full_field_propagate"),
    ("dressedphase.cli", "compare_trajectories", "propagator.compare_trajectories"),
    ("dressedphase.cli", "phase_scan", "interferometry.phase_scan"),
    ("dressedphase.cli", "fit_fringe", "interferometry.fit_fringe"),
    ("dressedphase.interferometry", "pulse_pair_population", "interferometry.pulse_pair_population"),
    ("dressedphase.interferometry", "rwa_propagate_coupling", "propagator.rwa_propagate_coupling"),
    ("dressedphase.dressed", "dressed_phases", "dressed.dressed_phases"),
    ("dressedphase.dressed", "adiabatic_report", "dressed.adiabatic_report"),
    ("dressedphase.dressed", "assemble_bare_state", "dressed.assemble_bare_state"),
    ("dressedphase.hydro", "split_step_solve", "hydro.split_step_solve"),
    ("dressedphase.hydro", "hj_residual", "hydro.hj_residual"),
    ("dressedphase.hydro", "continuity_residual", "hydro.continuity_residual"),
    ("dressedphase.hydro", "polar_decompose", "hydro.polar_decompose"),
    ("dressedphase.hydro", "quantum_potential", "hydro.quantum_potential"),
    ("dressedphase.hydro", "momentum_field", "hydro.momentum_field"),
)

# Rotating-wave propagations whose calls are captured for the RHS replay.
RWA_SPANS = ("propagator.rwa_propagate", "propagator.rwa_propagate_coupling")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    pass_id: int


class SpanRecorder:
    """Records nested spans (name, start, end, parent, pass id) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.captured: list[tuple] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []
        self._pass_id = -1
        self._capture = False

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                    self._pass_id)
        self.spans.append(span)
        self._stack.append(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name: str):
        capture = name in RWA_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if capture and self._capture:
                self.captured.append((name, fn, args, kwargs, result))
            return result

        return traced

    def install(self, pass_id: int, capture: bool = False) -> None:
        """Wrap every target for one traced pass; ``capture`` keeps RWA calls for replay."""
        self._pass_id = pass_id
        self._capture = capture
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if name not in self.missing:
                    self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(original, name))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)
        self._capture = False

    def write(self, path: Path, header: dict) -> None:
        """Write the header line, then one JSON line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "missing": self.missing}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


def per_pass(spans: list[Span], pass_ids: list[int]) -> dict[str, list[tuple[float, int]]]:
    """For each span name, [(total seconds, calls)] per traced pass, in pass order.

    Also derives ``cli.run.self``: each ``cli.run`` span's duration minus the
    time its direct child spans cover.
    """
    children: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.end - span.start
    index = {pid: i for i, pid in enumerate(pass_ids)}
    table: dict[str, list[list]] = {}
    for span in spans:
        if span.pass_id not in index:
            continue
        duration = span.end - span.start
        entries = [(span.name, duration)]
        if span.name == "cli.run":
            entries.append(("cli.run.self", duration - children.get(span.id, 0.0)))
        for name, seconds in entries:
            row = table.setdefault(name, [[0.0, 0] for _ in pass_ids])[index[span.pass_id]]
            row[0] += seconds
            row[1] += 1
    return {name: [tuple(r) for r in rows] for name, rows in table.items()}


def replay_rhs(captured: list[tuple]) -> tuple[list[int], float]:
    """Replay captured RWA propagations through ``rwa_propagate_coupling``.

    The coupling callable counts its calls, which gives the exact number of
    right-hand-side evaluations.  ``rwa_propagate`` calls are rebuilt from
    the field's public envelope and phase.  Returns (RHS evaluations per
    call, largest amplitude difference from the original result).
    """
    from dressedphase import propagator

    rwa_propagate_coupling = getattr(propagator, "rwa_propagate_coupling", None)
    if rwa_propagate_coupling is None:
        return [], 0.0
    evals = []
    worst = 0.0
    for name, fn, args, kwargs, result in captured:
        call = inspect.signature(fn).bind(*args, **kwargs)
        call.apply_defaults()
        a = call.arguments
        if name == "propagator.rwa_propagate":
            field, half_mu = a["field"], 0.5 * a["system"].mu
            envelope, phase = field.envelope, field.phase

            def coupling(t):
                return half_mu * envelope.value(t) * cmath.exp(-1j * phase.value(t))

            carrier = field.carrier
        else:
            coupling, carrier = a["coupling"], a["carrier"]
        calls = 0

        def counting(t, coupling=coupling):
            nonlocal calls
            calls += 1
            return coupling(t)

        again = rwa_propagate_coupling(
            a["system"], counting, carrier, a["initial"], a["t_grid"], a["cfg"], a["frame"]
        )
        evals.append(calls)
        worst = max(
            worst,
            float(abs(again.c_g - result.c_g).max()),
            float(abs(again.c_e - result.c_e).max()),
        )
    return evals, worst
