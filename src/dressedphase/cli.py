"""Command-line front end: JSON experiment in, CSV + JSON summary out.

One entry point dispatches on the experiment ``kind``:

* ``dressed``    - four material phases on a grid (optionally compared
                   against the rotating-wave oracle when ``compare`` is set)
* ``adiabatic``  - generalized adiabatic ratios and margins
* ``propagate``  - a single trajectory (rotating-wave or full field)
* ``interfere``  - pulse-pair fringe scan
* ``hydro``      - split-step propagation plus hydrodynamic residuals

Outputs are deterministic: identical configurations produce byte-identical
CSV files (full 17-significant-digit round-trip formatting, comma separator,
header row), every value exactly as ``b"%.17g" % v`` writes it, by
``csvformat.write_csv``.  ``summary.json`` is strict JSON: a metric that is not
finite is written as null.  Environment variables are never consulted.

Start-up is part of every run, so the module imports ``dressed``, ``hydro``,
``csvformat`` and ``argparse`` only inside the functions that use them:
``interfere`` and ``propagate`` runs load neither ``dressed`` nor ``hydro``,
and ``hydro`` runs never load ``dressed``.
"""

from __future__ import annotations

import json
import math
import re
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import ConfigError, DressedPhaseError, GridError, ValidationError
from .interferometry import PulsePairConfig, fit_fringe, phase_scan
from .model import (
    BRANCHES,
    MAX_ADIABATIC_ORDER,
    DrivingField,
    EnvelopeSpec,
    InitialPhases,
    PhaseSpec,
    TwoLevelSystem,
)
from .numerics import check_monotone_grid, cumulative_simpson
from .propagator import (
    IntegratorConfig,
    TwoLevelState,
    compare_trajectories,
    full_field_propagate,
    rwa_propagate,
)

KINDS = ("dressed", "adiabatic", "propagate", "interfere", "hydro")


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    samples: int

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.t1)):
            raise ValidationError("grid: t0 and t1 must be finite")
        if not self.t1 > self.t0:
            raise ValidationError("grid: t1 must exceed t0")
        if self.samples < 3:
            raise ValidationError("grid: samples must be >= 3")
        if not math.isfinite(self.t1 - self.t0):
            raise ValidationError("grid: t1 must exceed t0 by a finite span")
        check_monotone_grid(self.array())

    def array(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.samples)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    kind: str
    system: TwoLevelSystem | None
    field: DrivingField | None
    grid: TimeGrid | None
    integrator: IntegratorConfig | None
    params: dict

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("system", "field", "grid"):
            block = getattr(self, name)
            if block is not None:
                out[name] = asdict(block)
        # An unbounded max_step is left out rather than written as Infinity.
        if self.integrator is not None:
            out["integrator"] = {
                k: v for k, v in asdict(self.integrator).items() if math.isfinite(v)
            }
        out[self.kind] = dict(self.params)
        return out


@dataclass
class RunSummary:
    """Echoed configuration, result metrics, output paths, wall-clock duration."""

    config: dict
    metrics: dict
    outputs: list
    duration_s: float = 0.0


# Config schema.  A section spec maps each key to (check, default).  A check
# takes (problems, path, value) and returns the value as the run uses it, or
# records a problem and returns _BAD.  A default of _REQUIRED (the dataclass
# marker) makes the key required; _OPTIONAL lets it be left out of the
# section and of the config echo, and its consumer supplies the default.
_REQUIRED = MISSING
_OPTIONAL = object()
_BAD = object()


class _Problems(list):
    """Field-level problems, collected so that one ConfigError names them all."""

    def fail(self, path: str, constraint: str):
        self.append(f"validation: {path}: {constraint}")
        return _BAD


def _number(problems: _Problems, path: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return problems.fail(path, "must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer literal beyond the float range
        value = math.inf
    return value if math.isfinite(value) else problems.fail(path, "must be finite")


def _integer(low=None, high=None):
    def check(problems: _Problems, path: str, value):
        if isinstance(value, bool) or not isinstance(value, int):
            return problems.fail(path, "must be an integer")
        if high is not None and not low <= value <= high:
            return problems.fail(path, f"must be an integer in [{low}, {high}]")
        if low is not None and value < low:
            return problems.fail(path, f"must be an integer >= {low}")
        return value

    return check


def _boolean(problems: _Problems, path: str, value):
    return value if isinstance(value, bool) else problems.fail(path, "must be true or false")


def _string(problems: _Problems, path: str, value):
    return value if isinstance(value, str) else problems.fail(path, "must be a string")


def _one_of(*choices):
    def check(problems: _Problems, path: str, value):
        if isinstance(value, str) and value in choices:
            return value
        return problems.fail(path, f"must be one of {choices}")

    return check


def _pair(problems: _Problems, path: str, value):
    """A complex amplitude as a [re, im] pair of finite numbers."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        parts = [_number(_Problems(), path, x) for x in value]
        if _BAD not in parts:
            return parts
    return problems.fail(path, "must be a [re, im] pair of finite numbers")


def _section(spec: dict, build=dict):
    """Check an object against ``spec``, then construct ``build(**values)``.

    A ValidationError from ``build`` is reported at the first field its
    message names (of the section, or dotted, of a subsection), or at the
    section when it names none.
    """

    def check(problems: _Problems, path: str, raw):
        if not isinstance(raw, dict):
            return problems.fail(path, "must be an object")
        found = len(problems)
        at = f"{path}." if path else ""
        for key in raw:
            if key not in spec:
                problems.fail(at + key, "unknown field")
        values = {}
        for key, (check_value, default) in spec.items():
            if key in raw:
                values[key] = check_value(problems, at + key, raw[key])
            elif default is _REQUIRED:
                problems.fail(at + key, "required")
            elif default is not _OPTIONAL:
                values[key] = default
        if len(problems) > found:
            return _BAD
        try:
            return build(**values)
        except ValidationError as exc:
            message = str(exc).split(": ", 2)[-1]
            # A dotted name (``packet.sigma``) names a field of a subsection.
            words = re.findall(r"\w+(?:\.\w+)*", message)
            name = next((w for w in words if w.split(".")[0] in spec), None)
            if name is None:
                return problems.fail(path, message)
            return problems.fail(at + name, message.removeprefix(f"{name} "))

    return check


# Checks for the annotations of the configurable dataclasses.
_CHECKS = {"float": _number, "int": _integer(), "str": _string}


def _dataclass_section(cls, **defaults):
    """Section of a dataclass: its fields, annotations and defaults, ``defaults`` overriding."""
    spec = {}
    for f in fields(cls):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        spec[f.name] = (_CHECKS[f.type], defaults.get(f.name, default))
    return _section(spec, cls)


_CHECKS["EnvelopeSpec"] = _dataclass_section(EnvelopeSpec)
_CHECKS["PhaseSpec"] = _dataclass_section(PhaseSpec)
_FIELD = _dataclass_section(DrivingField, carrier=0.0)
_DRIVE = {
    "system": (_dataclass_section(TwoLevelSystem), _REQUIRED),
    "field": (_FIELD, _REQUIRED),
}
_GRID = {"grid": (_dataclass_section(TimeGrid, t0=0.0), _REQUIRED)}
_INTEGRATOR = {"integrator": (_dataclass_section(IntegratorConfig), IntegratorConfig())}


def _positive(problems: _Problems, path: str, value):
    value = _number(problems, path, value)
    return value if value is _BAD or value > 0.0 else problems.fail(path, "must be > 0")


def _potential(**values) -> dict:
    """The potential block as given, once PotentialSpec accepts it (harmonic needs omega0 > 0)."""
    from . import hydro as hydro_mod

    hydro_mod.PotentialSpec(**values)
    return values


def _pulse_field(problems: _Problems, path: str, raw):
    """A driving field whose envelope has a pulse window, as a pulse pair needs."""
    field = _FIELD(problems, path, raw)
    if field is _BAD or math.isfinite(field.envelope.support_halfwidth()):
        return field
    shape = field.envelope.shape
    return problems.fail(f"{path}.envelope.shape", f"must be a pulse; {shape!r} has no pulse window")


def _interfere(**values) -> dict:
    """The interfere block as given, once PulsePairConfig accepts its delay."""
    PulsePairConfig.check_delay(values["delay"])
    return values


def _initial_state(p: dict) -> TwoLevelState:
    """The initial state of the propagate block ``p``."""
    return TwoLevelState(complex(*p["c_g"]), complex(*p["c_e"]))


def _propagate(**values) -> dict:
    """The propagate block as given, once TwoLevelState accepts its amplitudes."""
    _initial_state(values)
    return values


# The complex values split_step_solve may keep in its frames: 2**26 (1 GiB).
_HYDRO_MAX_VALUES = 2**26


def _hydro(**values) -> dict:
    """The hydro block as given, once the grid, the time steps, the packet and the potential pass.

    The residuals' centered time derivative needs 3 frames, so at least 2
    steps; the frames are counted against ``_HYDRO_MAX_VALUES`` before any exist.
    """
    from . import hydro as hydro_mod

    hydro_mod.GridWavefunction.check_grid(values["n_points"], values["dx"], values["mass"])
    steps = hydro_mod.split_step_count(values["t_final"], values["dt"])
    if steps < 2:
        raise ValidationError("t_final must be at least 2*dt, so that the residuals get 3 frames")
    if (steps + 1) * values["n_points"] > _HYDRO_MAX_VALUES:
        raise ValidationError(
            f"dt must keep (t_final/dt + 1) * n_points at most 2**26 values (1 GiB of frames);"
            f" it gives {steps + 1} frames of {values['n_points']} points"
        )
    _hydro_start(values)
    return values


def _hydro_start(p: dict) -> tuple:
    """The initial GridWavefunction and the PotentialSpec of the hydro block ``p``.

    ValidationError names the field at fault when the grid cannot hold
    them: a packet that is not finite, vanishes on the grid or is not
    negligible at its edges, or a potential that is not finite there or
    whose half-step phase the time step cannot resolve.
    """
    from . import hydro as hydro_mod

    mass, packet = p["mass"], p["packet"]
    x = p["x_min"] + p["dx"] * np.arange(p["n_points"])
    sigma, center, k0 = packet["sigma"], packet["center"], packet.get("k0", 0.0)
    potential = hydro_mod.PotentialSpec(mass=mass, **p["potential"])
    with np.errstate(all="ignore"):
        try:
            psi = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(
                -((x - center) ** 2) / (4.0 * sigma**2) + 1j * k0 * (x - center)
            )
        except (OverflowError, ZeroDivisionError):  # sigma**2 overflows, or underflows to 0
            raise ValidationError("packet.sigma must have a nonzero, finite square") from None
        try:
            v = potential.evaluate(x)
        except OverflowError:  # omega0**2
            v = np.inf
    if not np.all(np.isfinite(psi.view(float))):
        raise ValidationError("packet must be finite on the grid")
    if not np.any(psi):
        raise ValidationError("packet must not vanish everywhere on the grid")
    if not hydro_mod._edge_safe(psi):
        raise ValidationError("packet must be negligible at the grid edges")
    if not np.all(np.isfinite(v)):
        raise ValidationError("potential.omega0 must keep the potential finite on the grid")
    hydro_mod._check_half_step_phase(v, p["dt"], "potential.omega0")
    return hydro_mod.GridWavefunction(p["x_min"], p["dx"], psi, mass=mass, t=0.0), potential


_ORDER = _integer(0, MAX_ADIABATIC_ORDER)
_ENGINE = _one_of("rwa", "full")
_POTENTIAL = _section(
    {
        "shape": (_one_of("free", "harmonic"), _REQUIRED),
        "omega0": (_number, _OPTIONAL),
        "center": (_number, _OPTIONAL),
    },
    _potential,
)
_PACKET = _section(
    {
        "center": (_number, _REQUIRED),
        "sigma": (_positive, _REQUIRED),
        "k0": (_number, _OPTIONAL),
    }
)

# Per kind: the shared blocks it needs, and the check of its own block.
_KIND_BLOCKS = {
    "dressed": (
        {**_DRIVE, **_GRID, **_INTEGRATOR},
        _section(
            {
                "branch": (_one_of(*BRANCHES), "ground"),
                "phi_g": (_number, 0.0),
                "phi_e": (_number, 0.0),
                "compare": (_boolean, False),
                "n_max": (_ORDER, 2),
            }
        ),
    ),
    # The adiabatic report and the split-step solver take no integrator
    # settings, so neither kind accepts the block or echoes it
    # (``ExperimentConfig.integrator`` is None).
    "adiabatic": ({**_DRIVE, **_GRID}, _section({"n_max": (_ORDER, 2)})),
    "propagate": (
        {**_DRIVE, **_GRID, **_INTEGRATOR},
        _section(
            {
                "engine": (_ENGINE, "rwa"),
                "c_g": (_pair, [1.0, 0.0]),
                "c_e": (_pair, [0.0, 0.0]),
            },
            _propagate,
        ),
    ),
    "interfere": (
        {**_DRIVE, "field": (_pulse_field, _REQUIRED), **_INTEGRATOR},
        _section(
            {
                "delay": (_number, _REQUIRED),
                "n_delta": (_integer(1), 128),
                "engine": (_ENGINE, "rwa"),
            },
            _interfere,
        ),
    ),
    "hydro": (
        {},
        _section(
            {
                "x_min": (_number, _REQUIRED),
                "dx": (_number, _REQUIRED),
                "n_points": (_integer(), _REQUIRED),
                "mass": (_number, 1.0),
                "potential": (_POTENTIAL, {"shape": "free"}),
                "packet": (_PACKET, _REQUIRED),
                "t_final": (_number, _REQUIRED),
                "dt": (_number, _REQUIRED),
                "csv_stride": (_integer(0), 0),
            },
            _hydro,
        ),
    ),
}


def load_config(path) -> ExperimentConfig:
    """Load and fully validate a JSON experiment file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error (line {exc.lineno}, col {exc.colno}): {exc.msg}") from exc
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or an over-long integer
        raise ConfigError(f"config: {exc}") from exc
    return load_config_dict(raw)


def load_config_dict(raw: dict) -> ExperimentConfig:
    """Validate an already-parsed configuration mapping."""
    if not isinstance(raw, dict):
        raise ConfigError("validation: config: must be a JSON object")
    problems = _Problems()
    kind = raw.get("kind")
    if kind not in KINDS:
        problems.fail("kind", f"must be one of {KINDS}")
        raise ConfigError(problems)
    present_blocks = [k for k in KINDS if k in raw]
    if present_blocks != [kind]:
        problems.fail(
            "config",
            f"exactly one kind-specific block named {kind!r} must be present, found {present_blocks}",
        )
    shared, block = _KIND_BLOCKS[kind]
    spec = {"kind": (_string, _REQUIRED), **shared, kind: (block, _REQUIRED)}
    values = _section(spec)(problems, "", raw)
    if problems:
        raise ConfigError(problems)
    params = values[kind]
    # A dressed run propagates only to compare, so only then does it take
    # integrator settings (and echo them).
    takes_integrator = "integrator" in shared and (kind != "dressed" or params["compare"])
    if "integrator" in raw and not takes_integrator:
        problems.fail("integrator", "applies only when dressed.compare is true")
    if kind == "dressed" and values["grid"].t0 != 0.0:
        problems.fail("grid.t0", "must be 0: the dressed phases accumulate from t = 0")
    elif kind == "dressed":
        # The phases' quadrature rejects a spacing its Simpson triples cannot divide by.
        t = values["grid"].array()
        try:
            cumulative_simpson(np.zeros(t.size), t)
        except GridError as exc:
            problems.fail("grid", exc.args[0].removeprefix("invalid grid: "))
    if problems:
        raise ConfigError(problems)
    return ExperimentConfig(
        kind=kind,
        system=values.get("system"),
        field=values.get("field"),
        grid=values.get("grid"),
        integrator=values["integrator"] if takes_integrator else None,
        params=params,
    )


def run(config: ExperimentConfig, out_dir) -> RunSummary:
    """Execute one experiment, then write <kind>.csv (and friends) plus summary.json.

    Everything is computed before ``out_dir`` is made, so a run that fails
    computing leaves nothing behind; an existing non-directory fails first.
    """
    started = time.perf_counter()
    out = Path(out_dir)
    if out.exists() and not out.is_dir():
        raise NotADirectoryError(f"{out} exists and is not a directory")
    runner = {
        "dressed": _run_dressed,
        "adiabatic": _run_adiabatic,
        "propagate": _run_propagate,
        "interfere": _run_interfere,
        "hydro": _run_hydro,
    }[config.kind]
    metrics, tables = runner(config)
    out.mkdir(parents=True, exist_ok=True)
    # Imported here, so that loading a config never compiles or loads the writer.
    from . import csvformat

    outputs = []
    for stem, columns in tables.items():
        path = out / f"{stem}.csv"
        csvformat.write_csv(path, list(columns), np.column_stack(list(columns.values())))
        outputs.append(str(path))
    summary = RunSummary(
        config=config.to_dict(),
        metrics=metrics,
        outputs=outputs,
        duration_s=time.perf_counter() - started,
    )
    summary_path = out / "summary.json"
    # The fields as they are (asdict would deep-copy the echo, metrics and
    # outputs), but strict JSON: a metric that is not finite is written null.
    written = {**vars(summary), "metrics": _finite_or_null(summary.metrics)}
    summary_path.write_text(
        json.dumps(written, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )
    summary.outputs.append(str(summary_path))
    return summary


def _finite_or_null(value):
    """``value`` with every float that is not finite, in it or in its lists and dicts, as None."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite_or_null(item) for item in value]
    return value


def compare(config: ExperimentConfig, out_dir) -> RunSummary:
    """Dressed-versus-oracle mode; requires kind='dressed' with compare=true."""
    if config.kind != "dressed" or not config.params.get("compare"):
        raise ConfigError("validation: dressed.compare: compare mode requires kind='dressed' with compare=true")
    return run(config, out_dir)


# Each runner computes one experiment and returns (metrics, tables): a table
# maps a CSV stem to {column name: 1-D array}, written in insertion order.


def _re_im(source, *names) -> dict:
    """The ``<name>_re`` and ``<name>_im`` columns of each complex series ``source.<name>``."""
    columns = {}
    for name in names:
        values = getattr(source, name)
        columns[f"{name}_re"] = values.real
        columns[f"{name}_im"] = values.imag
    return columns


def _run_dressed(config: ExperimentConfig):
    from . import dressed as dressed_mod

    p = config.params
    t = config.grid.array()
    phases = InitialPhases(p["phi_g"], p["phi_e"])
    series = dressed_mod.dressed_phases(config.system, config.field, phases, p["branch"], t)
    phase_names = ("phi_G_r", "phi_G_v", "phi_E_r", "phi_E_v")
    tables = {"dressed": {"t": t, **_re_im(series, *phase_names)}}
    report = dressed_mod.adiabatic_report(config.system, config.field, t, p["n_max"])
    metrics = {"adiabatic_margin": report.margin}
    if p["compare"]:
        assembled = dressed_mod.assemble_bare_state(
            config.system, config.field, phases, p["branch"], t
        )
        oracle = rwa_propagate(
            config.system, config.field, assembled[0], t, config.integrator
        )
        tables["compare"] = {
            "t": t,
            "err_c_g": np.abs(assembled.c_g - oracle.c_g),
            "err_c_e": np.abs(assembled.c_e - oracle.c_e),
        }
        comparison = compare_trajectories(assembled, oracle)
        metrics["max_amplitude_error"] = comparison.max_amplitude_error
        metrics["max_population_error"] = comparison.max_population_error
    return metrics, tables


def _run_adiabatic(config: ExperimentConfig):
    from . import dressed as dressed_mod

    t = config.grid.array()
    report = dressed_mod.adiabatic_report(config.system, config.field, t, config.params["n_max"])
    rows = [
        (n, k, report.orders[n].ratios[k])
        for n in sorted(report.orders)
        for k in sorted(report.orders[n].ratios)
    ]
    table = dict(zip(("n", "k", "max_ratio"), np.array(rows, dtype=float).reshape(-1, 3).T))
    metrics = {
        "margin": report.margin,
        **{f"margin_n{n}": report.orders[n].margin for n in sorted(report.orders)},
    }
    return metrics, {"adiabatic": table}


def _run_propagate(config: ExperimentConfig):
    p = config.params
    t = config.grid.array()
    initial = _initial_state(p)
    prop = rwa_propagate if p["engine"] == "rwa" else full_field_propagate
    traj = prop(config.system, config.field, initial, t, config.integrator)
    table = {
        "t": t,
        **_re_im(traj, "c_g", "c_e"),
        "P_g": traj.population_g,
        "P_e": traj.population_e,
    }
    norm = traj.norm
    metrics = {
        "final_P_e": float(traj.population_e[-1]),
        "final_P_g": float(traj.population_g[-1]),
        "max_norm_drift": float(np.max(np.abs(norm - norm[0]))),
    }
    return metrics, {"propagate": table}


def _run_interfere(config: ExperimentConfig):
    p = config.params
    pair = PulsePairConfig(config.field, delay=p["delay"], rel_phase=0.0)
    deltas = np.linspace(0.0, 2.0 * np.pi, p["n_delta"], endpoint=False)
    record = phase_scan(config.system, pair, deltas, config.integrator, engine=p["engine"])
    _, _, delta0, fit_res = fit_fringe(record)
    metrics = {
        "visibility": record.visibility,
        "delta_star": record.delta_star,
        "fringe_fit_delta0": delta0,
        "fringe_fit_residual": fit_res,
        "pulse_area": pair.pulse_area(),
    }
    return metrics, {"interfere": {"delta_rad": record.deltas, "P_e": record.populations}}


def _run_hydro(config: ExperimentConfig):
    """Split-step frames, both residuals' L2 norms and every ``stride``-th frame's polar fields.

    Both residuals come from ``hydro._frame_analysis``, as for ``hj_residual`` and
    ``continuity_residual``; only their L2 norms, the written frames' fields and
    the frames (for the norm drift) outlive its window of three decompositions.
    """
    from . import hydro as hydro_mod

    p = config.params
    psi0, potential = _hydro_start(p)
    x = psi0.x
    frames = hydro_mod.split_step_solve(psi0, potential, p["t_final"], p["dt"])
    stride = p["csv_stride"] or max(1, len(frames) // 16)
    analysis = hydro_mod._frame_analysis(frames, p["mass"], potential.evaluate(x), stride=stride)
    fields = np.empty((4, len(frames[::stride]), x.size))  # R, S, U and p of each written frame
    hj_l2, cont_l2, written = [], [], 0
    for polar, u, mom, hj, cont in analysis:
        if u is not None:
            fields[:, written] = polar.R, polar.S, u, mom
            written += 1
        if hj is not None:
            hj_l2.append(hj[1])
            cont_l2.append(cont[1])
    table = {
        "t": np.repeat([frame.t for frame in frames[::stride]], x.size),
        "x": np.tile(x, written),
        **dict(zip(("R", "S", "U", "p"), fields.reshape(4, -1))),
    }
    metrics = {
        "norm_drift": float(abs(frames[-1].norm() - frames[0].norm())),
        "hj_residual_l2": hj_l2,
        "hj_residual_l2_max": max(hj_l2),
        "continuity_residual_l2": cont_l2,
        "continuity_residual_l2_max": max(cont_l2),
        "frames": len(frames),
    }
    return metrics, {"hydro": table}


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="dressedphase",
        description="Two-level phase-dynamics experiments: JSON config in, CSV + summary.json out.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="execute an experiment configuration")
    run_parser.add_argument("--config", required=True, help="path to the JSON experiment file")
    run_parser.add_argument("--out", required=True, help="output directory")
    run_parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
        summary = run(config, args.out)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: cli: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:  # the output directory cannot be made or written
        print(f"error: cli: out: {exc}", file=sys.stderr)
        return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DressedPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        for path in summary.outputs:
            print(f"wrote {path}")
        for key in sorted(summary.metrics):
            print(f"  {key} = {summary.metrics[key]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
