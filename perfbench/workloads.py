"""The four workloads: one pass each, and the checks every pass must meet.

A pass calls only the program's public API on inputs built by ``inputs``.
``run_pass`` is the timed part; ``check_pass`` runs after the clock stops and
returns the problems found (empty when the pass is correct), a digest of the
pass's outputs and the bytes it wrote.

Why each workload was chosen, and what it should and should not move, is in
``README.md``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

# Output checks; tolerances are the ones the acceptance suite already meets.
ORACLE_MARGIN_FACTOR = 10.0
PROPAGATE_NORM_DRIFT = 1e-9
UNDAMPED_VISIBILITY = 0.9
GROUND_NORM_TOL = 1e-12
HYDRO_NORM_DRIFT = 1e-12


def _cli_runs(cli, inputs: dict, names: tuple[str, ...], out: Path) -> dict:
    return {name: cli.run(inputs[name], out / name) for name in names}


def _csv_digest(summaries: dict) -> tuple[str, int]:
    """SHA-256 over every CSV the runs wrote, and the bytes of all their outputs."""
    digest = hashlib.sha256()
    written = 0
    for summary in summaries.values():
        for name in summary.outputs:
            path = Path(name)
            written += path.stat().st_size
            if path.suffix == ".csv":
                digest.update(path.read_bytes())
    return digest.hexdigest(), written


def _oracle_run(cli, inputs, out):
    return _cli_runs(cli, inputs, ("dressed_compare", "propagate_rwa", "propagate_full"), out)


def _oracle_check(summaries):
    problems = []
    m = summaries["dressed_compare"].metrics
    bound = ORACLE_MARGIN_FACTOR * m["adiabatic_margin"]
    if not m["max_amplitude_error"] <= bound:
        problems.append(f"oracle max_amplitude_error {m['max_amplitude_error']:g} > {bound:g}")
    for name in ("propagate_rwa", "propagate_full"):
        drift = summaries[name].metrics["max_norm_drift"]
        if not drift <= PROPAGATE_NORM_DRIFT:
            problems.append(f"{name} max_norm_drift {drift:g} > {PROPAGATE_NORM_DRIFT:g}")
    return (problems, *_csv_digest(summaries))


def _fringe_run(cli, inputs, out):
    return _cli_runs(cli, inputs, ("interfere", "interfere_damped"), out)


def _fringe_check(summaries):
    problems = []
    undamped = summaries["interfere"].metrics["visibility"]
    damped = summaries["interfere_damped"].metrics["visibility"]
    if not undamped >= UNDAMPED_VISIBILITY:
        problems.append(f"undamped visibility {undamped:g} < {UNDAMPED_VISIBILITY}")
    if not damped < undamped:
        problems.append(f"damped visibility {damped:g} not below undamped {undamped:g}")
    return (problems, *_csv_digest(summaries))


def _dense_run(cli, inputs, out):
    from dressedphase import dressed, model

    cfg, t = inputs["chirped"], inputs["t"]
    phases = model.InitialPhases()
    return {
        "report": dressed.adiabatic_report(cfg.system, cfg.field, t, cfg.params["n_max"]),
        "ground": dressed.assemble_bare_state(cfg.system, cfg.field, phases, "ground", t),
        "excited": dressed.assemble_bare_state(cfg.system, cfg.field, phases, "excited", t),
    }


def _dense_check(result):
    problems = []
    report = result["report"]
    ratios = [r for entry in report.orders.values() for r in entry.ratios.values()]
    arrays = [result[b].c_g for b in ("ground", "excited")]
    arrays += [result[b].c_e for b in ("ground", "excited")]
    if not (np.isfinite(ratios).all() and all(np.isfinite(a).all() for a in arrays)):
        problems.append("non-finite closed-form output")
    drift = float(np.max(np.abs(result["ground"].norm - 1.0)))
    if not drift <= GROUND_NORM_TOL:
        problems.append(f"ground-branch norm off by {drift:g} > {GROUND_NORM_TOL:g}")
    digest = hashlib.sha256(np.asarray(ratios).tobytes())
    for a in arrays:
        digest.update(a.tobytes())
    return problems, digest.hexdigest(), 0


def _hydro_run(cli, inputs, out):
    return _cli_runs(cli, inputs, ("hydro",), out)


def _hydro_check(summaries):
    problems = []
    drift = summaries["hydro"].metrics["norm_drift"]
    if not drift <= HYDRO_NORM_DRIFT:
        problems.append(f"hydro norm_drift {drift:g} > {HYDRO_NORM_DRIFT:g}")
    return (problems, *_csv_digest(summaries))


_PASSES = {
    "oracle_check": (_oracle_run, _oracle_check),
    "fringe_scan": (_fringe_run, _fringe_check),
    "closed_form_dense": (_dense_run, _dense_check),
    "hydro_frames": (_hydro_run, _hydro_check),
}


def run_pass(workload: str, cli, inputs: dict, out: Path):
    """One pass of the workload: the program's work only, no checks."""
    return _PASSES[workload][0](cli, inputs, out)


def check_pass(workload: str, result) -> tuple[list[str], str, int]:
    """(problems, output digest, bytes written) for one pass's result."""
    return _PASSES[workload][1](result)


def probe_layers(workload: str, inputs: dict, recorder) -> None:
    """Time single public calls of the closed-form layers on the dense grid.

    Runs outside the timed pass, in the traced run only.  ``model.derivs``
    covers envelope and phase derivative orders 0-4.
    """
    if workload != "closed_form_dense":
        return
    from dressedphase import dressed, numerics

    cfg, t = inputs["chirped"], inputs["t"]
    with recorder.span("dressed.generalized_rabi"):
        rabi = dressed.generalized_rabi(cfg.system, cfg.field, t)
    with recorder.span("model.derivs"):
        for order in range(5):
            cfg.field.envelope.derivative(t, order)
            cfg.field.phase.derivative(t, order)
    with recorder.span("numerics.cumulative_simpson"):
        numerics.cumulative_simpson(rabi, t)
