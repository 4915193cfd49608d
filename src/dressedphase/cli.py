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
header row).  Environment variables are never consulted.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import dressed as dressed_mod
from . import hydro as hydro_mod
from .errors import ConfigError, DressedPhaseError, ValidationError
from .interferometry import PulsePairConfig, fit_fringe, phase_scan
from .model import (
    DrivingField,
    EnvelopeSpec,
    InitialPhases,
    PhaseSpec,
    TwoLevelSystem,
)
from .propagator import (
    IntegratorConfig,
    TwoLevelState,
    compare_trajectories,
    full_field_propagate,
    rwa_propagate,
)

KINDS = ("dressed", "adiabatic", "propagate", "interfere", "hydro")


# A configuration field with no default, marked the way dataclasses mark one.
_REQUIRED = MISSING


def _defaults(cls) -> dict:
    """Field name -> default of a dataclass, in declaration order."""
    return {f.name: f.default for f in fields(cls)}


_SYSTEM_FIELDS = _defaults(TwoLevelSystem)
_ENVELOPE_FIELDS = _defaults(EnvelopeSpec)
_PHASE_FIELDS = _defaults(PhaseSpec)
_INTEGRATOR_FIELDS = _defaults(IntegratorConfig)


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

    def array(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.samples)


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated experiment description."""

    kind: str
    system: TwoLevelSystem | None
    field: DrivingField | None
    grid: TimeGrid | None
    integrator: IntegratorConfig
    params: dict

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("system", "field", "grid"):
            block = getattr(self, name)
            if block is not None:
                out[name] = asdict(block)
        # An unbounded max_step is left out rather than written as Infinity.
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


class _Validator:
    """Collects precise field-level problems before raising once."""

    def __init__(self):
        self.problems: list[str] = []

    def fail(self, field_name: str, constraint: str):
        self.problems.append(f"validation: {field_name}: {constraint}")

    def section(self, raw: dict, prefix: str, spec: dict) -> dict | None:
        if not isinstance(raw, dict):
            self.fail(prefix, "must be an object")
            return None
        out = {}
        for key, default in spec.items():
            if key in raw:
                out[key] = raw[key]
            elif default is _REQUIRED:
                self.fail(f"{prefix}.{key}", "required")
            else:
                out[key] = default
        for key in raw:
            if key not in spec:
                self.fail(f"{prefix}.{key}", "unknown field")
        return out if len(out) == len(spec) else None

    def numeric(self, value, field_name: str):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            self.fail(field_name, "must be a number")
            return None
        if not math.isfinite(value):
            self.fail(field_name, "must be finite")
            return None
        return float(value)

    def integer(self, value, field_name: str, low=None, high=None):
        """Record a problem unless ``value`` is an int (not a bool) in [low, high]."""
        if isinstance(value, bool) or not isinstance(value, int):
            self.fail(field_name, "must be an integer")
        elif high is not None and not low <= value <= high:
            self.fail(field_name, f"must be an integer in [{low}, {high}]")
        elif low is not None and value < low:
            self.fail(field_name, f"must be an integer >= {low}")

    def raise_if_failed(self):
        if self.problems:
            raise ConfigError(self.problems)


def load_config(path) -> ExperimentConfig:
    """Load and fully validate a JSON experiment file."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error (line {exc.lineno}, col {exc.colno}): {exc.msg}") from exc
    return load_config_dict(raw)


def load_config_dict(raw: dict) -> ExperimentConfig:
    """Validate an already-parsed configuration mapping."""
    v = _Validator()
    if not isinstance(raw, dict):
        raise ConfigError("validation: config: must be a JSON object")

    kind = raw.get("kind")
    if kind not in KINDS:
        v.fail("kind", f"must be one of {KINDS}")
        v.raise_if_failed()

    present_blocks = [k for k in KINDS if k in raw]
    if present_blocks != [kind]:
        v.fail(
            "config",
            f"exactly one kind-specific block named {kind!r} must be present, found {present_blocks}",
        )

    known_top = {"kind", "system", "field", "grid", "integrator", kind}
    for key in raw:
        if key not in known_top:
            v.fail(key, "unknown field")

    needs_system = kind != "hydro"
    system = None
    fld = None
    grid = None
    if needs_system:
        system = _build_system(raw.get("system"), v)
        fld = _build_field(raw.get("field"), v)
        if kind != "interfere":
            grid = _build_grid(raw.get("grid"), v)

    integrator = _build_integrator(raw.get("integrator", {}), v)
    params = _build_params(kind, raw.get(kind), v) if kind in raw else None
    v.raise_if_failed()
    return ExperimentConfig(
        kind=kind, system=system, field=fld, grid=grid, integrator=integrator, params=params
    )


def _build_system(raw, v: _Validator) -> TwoLevelSystem | None:
    if raw is None:
        v.fail("system", "required")
        return None
    vals = v.section(raw, "system", _SYSTEM_FIELDS)
    if vals is None:
        return None
    nums = {k: v.numeric(val, f"system.{k}") for k, val in vals.items()}
    if any(x is None for x in nums.values()):
        return None
    try:
        return TwoLevelSystem(**nums)
    except ValidationError as exc:
        _downgrade(v, "system", exc, nums)
        return None


def _downgrade(v: _Validator, prefix: str, exc: ValidationError, vals: dict):
    """Turn a dataclass invariant failure into a field-level problem."""
    message = str(exc).split(": ", 2)[-1]
    field_name = next(
        (k for k in vals if re.search(rf"\b{re.escape(k)}\b", message)), prefix
    )
    v.fail(f"{prefix}.{field_name}", message)


def _build_field(raw, v: _Validator) -> DrivingField | None:
    if raw is None:
        v.fail("field", "required")
        return None
    if not isinstance(raw, dict):
        v.fail("field", "must be an object")
        return None
    carrier = v.numeric(raw.get("carrier", 0.0), "field.carrier")
    env_vals = v.section(raw.get("envelope", {}), "field.envelope", _ENVELOPE_FIELDS)
    ph_vals = v.section(raw.get("phase", {}), "field.phase", _PHASE_FIELDS)
    for key in raw:
        if key not in ("carrier", "envelope", "phase"):
            v.fail(f"field.{key}", "unknown field")
    if carrier is None or env_vals is None or ph_vals is None:
        return None
    try:
        envelope = EnvelopeSpec(**_as_floats(env_vals))
        phase = PhaseSpec(**_as_floats(ph_vals))
        return DrivingField(carrier, envelope, phase)
    except (ValidationError, TypeError, ValueError) as exc:
        v.fail("field", str(exc))
        return None


def _as_floats(vals: dict) -> dict:
    """Constructor arguments: ``shape`` as given, every other entry as a float."""
    return {k: x if k == "shape" else float(x) for k, x in vals.items()}


def _build_grid(raw, v: _Validator) -> TimeGrid | None:
    if raw is None:
        v.fail("grid", "required")
        return None
    vals = v.section(raw, "grid", {"t0": 0.0, "t1": None, "samples": None})
    if vals is None:
        return None
    try:
        return TimeGrid(float(vals["t0"]), float(vals["t1"]), int(vals["samples"]))
    except (ValidationError, TypeError, ValueError) as exc:
        v.fail("grid", str(exc))
        return None


def _build_integrator(raw, v: _Validator) -> IntegratorConfig:
    vals = v.section(raw if isinstance(raw, dict) else {}, "integrator", _INTEGRATOR_FIELDS)
    if vals is None:
        return IntegratorConfig()
    if vals["max_step"] is None:
        vals["max_step"] = math.inf  # an explicit null also means unbounded
    try:
        return IntegratorConfig(**_as_floats(vals))
    except (ValidationError, TypeError, ValueError) as exc:
        v.fail("integrator", str(exc))
        return IntegratorConfig()


def _build_params(kind: str, raw, v: _Validator) -> dict | None:
    specs = {
        "dressed": {
            "branch": "ground",
            "phi_g": 0.0,
            "phi_e": 0.0,
            "compare": False,
            "n_max": 2,
        },
        "adiabatic": {"n_max": 2},
        "propagate": {"engine": "rwa", "c_g": [1.0, 0.0], "c_e": [0.0, 0.0]},
        "interfere": {
            "delay": _REQUIRED,
            "n_delta": 128,
            "engine": "rwa",
        },
        "hydro": {
            "x_min": _REQUIRED,
            "dx": _REQUIRED,
            "n_points": _REQUIRED,
            "mass": 1.0,
            "potential": {"shape": "free"},
            "packet": _REQUIRED,
            "t_final": _REQUIRED,
            "dt": _REQUIRED,
            "csv_stride": 0,
        },
    }
    vals = v.section(raw if isinstance(raw, dict) else {}, kind, specs[kind])
    if vals is None:
        return None
    if kind == "dressed" and vals["branch"] not in dressed_mod.BRANCHES:
        v.fail("dressed.branch", f"must be one of {dressed_mod.BRANCHES}")
    if kind in ("propagate", "interfere") and vals["engine"] not in ("rwa", "full"):
        v.fail(f"{kind}.engine", "must be 'rwa' or 'full'")
    if kind in ("dressed", "adiabatic"):
        v.integer(vals["n_max"], f"{kind}.n_max", 0, dressed_mod.MAX_ADIABATIC_ORDER)
    if kind == "interfere":
        v.integer(vals["n_delta"], "interfere.n_delta", 1)
        if v.numeric(vals["delay"], "interfere.delay") is None:
            return None
    if kind == "propagate":
        for name in ("c_g", "c_e"):
            amp = vals[name]
            if not (isinstance(amp, (list, tuple)) and len(amp) == 2):
                v.fail(f"propagate.{name}", "must be a [re, im] pair")
    if kind == "hydro":
        for name in ("x_min", "dx", "t_final", "dt", "mass"):
            v.numeric(vals[name], f"hydro.{name}")
        v.integer(vals["n_points"], "hydro.n_points")
        packet = vals["packet"]
        if not isinstance(packet, dict) or not {"center", "sigma"} <= set(packet):
            v.fail("hydro.packet", "required object with center, sigma (and optional k0)")
    return vals


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


def run(config: ExperimentConfig, out_dir) -> RunSummary:
    """Execute one experiment, writing <kind>.csv (and friends) plus summary.json."""
    started = time.perf_counter()
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runner = {
        "dressed": _run_dressed,
        "adiabatic": _run_adiabatic,
        "propagate": _run_propagate,
        "interfere": _run_interfere,
        "hydro": _run_hydro,
    }[config.kind]
    metrics, outputs = runner(config, out)
    summary = RunSummary(
        config=config.to_dict(),
        metrics=metrics,
        outputs=[str(p) for p in outputs],
        duration_s=time.perf_counter() - started,
    )
    summary_path = out / "summary.json"
    summary_path.write_text(
        json.dumps(asdict(summary), indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    summary.outputs.append(str(summary_path))
    return summary


def compare(config: ExperimentConfig, out_dir) -> RunSummary:
    """Dressed-versus-oracle mode; requires kind='dressed' with compare=true."""
    if config.kind != "dressed" or not config.params.get("compare"):
        raise ConfigError("validation: dressed.compare: compare mode requires kind='dressed' with compare=true")
    return run(config, out_dir)


def _run_dressed(config: ExperimentConfig, out: Path):
    p = config.params
    t = config.grid.array()
    phases = InitialPhases(phi_g=float(p["phi_g"]), phi_e=float(p["phi_e"]))
    series = dressed_mod.dressed_phases(config.system, config.field, phases, p["branch"], t)
    rows = np.column_stack(
        [
            t,
            series.phi_G_r.real, series.phi_G_r.imag,
            series.phi_G_v.real, series.phi_G_v.imag,
            series.phi_E_r.real, series.phi_E_r.imag,
            series.phi_E_v.real, series.phi_E_v.imag,
        ]
    )
    csv_path = out / "dressed.csv"
    _write_csv(
        csv_path,
        [
            "t",
            "phi_G_r_re", "phi_G_r_im",
            "phi_G_v_re", "phi_G_v_im",
            "phi_E_r_re", "phi_E_r_im",
            "phi_E_v_re", "phi_E_v_im",
        ],
        rows,
    )
    report = dressed_mod.adiabatic_report(config.system, config.field, t, int(p["n_max"]))
    metrics = {"adiabatic_margin": report.margin}
    outputs = [csv_path]
    if p["compare"]:
        assembled = dressed_mod.assemble_bare_state(
            config.system, config.field, phases, p["branch"], t
        )
        oracle = rwa_propagate(
            config.system, config.field, assembled[0], t, config.integrator
        )
        err_g = np.abs(assembled.c_g - oracle.c_g)
        err_e = np.abs(assembled.c_e - oracle.c_e)
        cmp_path = out / "compare.csv"
        _write_csv(cmp_path, ["t", "err_c_g", "err_c_e"], np.column_stack([t, err_g, err_e]))
        comparison = compare_trajectories(assembled, oracle)
        metrics["max_amplitude_error"] = comparison.max_amplitude_error
        metrics["max_population_error"] = comparison.max_population_error
        outputs.append(cmp_path)
    return metrics, outputs


def _run_adiabatic(config: ExperimentConfig, out: Path):
    t = config.grid.array()
    report = dressed_mod.adiabatic_report(
        config.system, config.field, t, int(config.params["n_max"])
    )
    rows = []
    for n in sorted(report.orders):
        for k in sorted(report.orders[n].ratios):
            rows.append((float(n), float(k), report.orders[n].ratios[k]))
    csv_path = out / "adiabatic.csv"
    _write_csv(csv_path, ["n", "k", "max_ratio"], rows)
    metrics = {
        "margin": report.margin,
        **{f"margin_n{n}": report.orders[n].margin for n in sorted(report.orders)},
    }
    return metrics, [csv_path]


def _run_propagate(config: ExperimentConfig, out: Path):
    p = config.params
    t = config.grid.array()
    initial = TwoLevelState(
        complex(p["c_g"][0], p["c_g"][1]), complex(p["c_e"][0], p["c_e"][1])
    )
    prop = rwa_propagate if p["engine"] == "rwa" else full_field_propagate
    traj = prop(config.system, config.field, initial, t, config.integrator)
    rows = np.column_stack(
        [
            t,
            traj.c_g.real, traj.c_g.imag,
            traj.c_e.real, traj.c_e.imag,
            traj.population_g, traj.population_e,
        ]
    )
    csv_path = out / "propagate.csv"
    _write_csv(
        csv_path,
        ["t", "c_g_re", "c_g_im", "c_e_re", "c_e_im", "P_g", "P_e"],
        rows,
    )
    norm = traj.norm
    metrics = {
        "final_P_e": float(traj.population_e[-1]),
        "final_P_g": float(traj.population_g[-1]),
        "max_norm_drift": float(np.max(np.abs(norm - norm[0]))),
    }
    return metrics, [csv_path]


def _run_interfere(config: ExperimentConfig, out: Path):
    p = config.params
    pair = PulsePairConfig(config.field, delay=float(p["delay"]), rel_phase=0.0)
    deltas = np.linspace(0.0, 2.0 * np.pi, int(p["n_delta"]), endpoint=False)
    record = phase_scan(config.system, pair, deltas, config.integrator, engine=p["engine"])
    csv_path = out / "interfere.csv"
    _write_csv(csv_path, ["delta_rad", "P_e"], np.column_stack([record.deltas, record.populations]))
    _, fringe_amp, delta0, fit_res = fit_fringe(record)
    metrics = {
        "visibility": record.visibility,
        "delta_star": record.delta_star,
        "fringe_fit_delta0": delta0,
        "fringe_fit_residual": fit_res,
        "pulse_area": pair.pulse_area(),
    }
    return metrics, [csv_path]


def _run_hydro(config: ExperimentConfig, out: Path):
    p = config.params
    n = int(p["n_points"])
    dx = float(p["dx"])
    x_min = float(p["x_min"])
    mass = float(p["mass"])
    x = x_min + dx * np.arange(n)
    packet = p["packet"]
    sigma = float(packet["sigma"])
    center = float(packet["center"])
    k0 = float(packet.get("k0", 0.0))
    psi = (2.0 * np.pi * sigma**2) ** (-0.25) * np.exp(
        -((x - center) ** 2) / (4.0 * sigma**2) + 1j * k0 * (x - center)
    )
    psi0 = hydro_mod.GridWavefunction(x_min, dx, psi, mass=mass, t=0.0)

    pot_raw = p["potential"]
    if not isinstance(pot_raw, dict) or "shape" not in pot_raw:
        raise ConfigError("validation: hydro.potential.shape: required")
    if pot_raw["shape"] == "harmonic":
        potential = hydro_mod.PotentialSpec.harmonic(
            mass, float(pot_raw.get("omega0", 0.0)), float(pot_raw.get("center", 0.0))
        )
    elif pot_raw["shape"] == "free":
        potential = hydro_mod.PotentialSpec.free()
    else:
        raise ConfigError(f"validation: hydro.potential.shape: unknown {pot_raw['shape']!r}")

    frames = hydro_mod.split_step_solve(psi0, potential, float(p["t_final"]), float(p["dt"]))
    hj = hydro_mod.hj_residual(frames, potential)
    cont = hydro_mod.continuity_residual(frames, mass)

    stride = int(p["csv_stride"]) or max(1, len(frames) // 16)
    rows = []
    for idx in range(0, len(frames), stride):
        f = frames[idx]
        polar = hydro_mod.polar_decompose(f)
        u = hydro_mod.quantum_potential(polar, mass)
        mom = hydro_mod.momentum_field(polar)
        for j in range(n):
            rows.append(
                (
                    f.t,
                    x[j],
                    polar.R[j],
                    polar.S[j] if polar.valid[j] else np.nan,
                    u[j],
                    mom[j],
                )
            )
    csv_path = out / "hydro.csv"
    _write_csv(csv_path, ["t", "x", "R", "S", "U", "p"], rows)
    metrics = {
        "norm_drift": float(abs(frames[-1].norm() - frames[0].norm())),
        "hj_residual_l2": [float(v) for v in hj.l2],
        "hj_residual_l2_max": float(np.max(hj.l2)),
        "continuity_residual_l2": [float(v) for v in cont.l2],
        "continuity_residual_l2_max": float(np.max(cont.l2)),
        "frames": len(frames),
    }
    return metrics, [csv_path]


def main(argv=None) -> int:
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
        for problem in getattr(exc, "problems", [str(exc)]):
            print(f"error: cli: {problem}", file=sys.stderr)
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
