"""Workload inputs: generated from a seed, then parsed and constructed.

This module imports only the standard library at load time, so a fresh
set-up process can time ``import dressedphase.cli`` from a cold start.

The default seed writes the shipped demo configurations byte for byte (the
copies under ``configs/`` are checked against ``demos/configs/`` by the
benchmark's own test).  Any other seed perturbs inputs inside ranges where
every check still holds and the amount of work stays within ~1%, so that the
spread of timings across seeds measures the machine, not the inputs.
"""

from __future__ import annotations

import copy
import json
import math
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = HERE / "configs"

DEFAULT_SEED = 0
WORKLOADS = ("oracle_check", "fringe_scan", "closed_form_dense", "hydro_frames")

# Dense closed-form grid: 240,001 samples over the quick-tour pulse window.
DENSE_SAMPLES = 240_001
DENSE_CHIRP_RATE = 1e-3


class ProgramMissing(RuntimeError):
    """The program's sources are not in this checkout."""


def import_cli():
    """Import ``dressedphase.cli`` from this checkout's ``src/`` and return it."""
    if not (SRC / "dressedphase" / "__init__.py").is_file():
        raise ProgramMissing(f"no dressedphase sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dressedphase.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"dressedphase was imported from {cli.__file__}, not {SRC}")
    return cli


def _demo(name: str) -> str:
    return (CONFIGS / f"{name}.json").read_text(encoding="utf-8")


def _dump(raw: dict) -> str:
    return json.dumps(raw, indent=2) + "\n"


def _jitter(rng: random.Random, value: float, rel: float) -> float:
    return value * (1.0 + rng.uniform(-rel, rel))


def _oracle_check(rng):
    dressed = _demo("dressed_compare")
    propagate = _demo("propagate")
    prop = json.loads(propagate)
    if rng is not None:
        raw = json.loads(dressed)
        field = raw["field"]
        field["carrier"] = _jitter(rng, field["carrier"], 0.01)
        field["envelope"]["width"] = _jitter(rng, field["envelope"]["width"], 0.01)
        field["phase"]["phi0"] = rng.uniform(-math.pi, math.pi)
        dressed = _dump(raw)
        prop["field"]["envelope"]["peak"] = _jitter(rng, prop["field"]["envelope"]["peak"], 0.02)
        prop["field"]["phase"] = {"shape": "constant", "phi0": rng.uniform(-math.pi, math.pi)}
        propagate = _dump(prop)
    full = copy.deepcopy(prop)
    full["propagate"]["engine"] = "full"
    return {
        "dressed_compare": dressed,
        "propagate_rwa": propagate,
        "propagate_full": _dump(full),
    }


def _fringe_scan(rng):
    undamped = _demo("interfere")
    raw = json.loads(undamped)
    if rng is not None:
        # A small detuning shifts the fringe by detuning * delay, the
        # configuration-level equivalent of offsetting the delta grid.
        raw["field"]["carrier"] += rng.uniform(-0.05, 0.05)
        undamped = _dump(raw)
    damped = copy.deepcopy(raw)
    damped["system"]["gamma_re"] = 0.02
    return {"interfere": undamped, "interfere_damped": _dump(damped)}


def _closed_form_dense(rng):
    rate = DENSE_CHIRP_RATE if rng is None else rng.uniform(0.5, 1.5) * DENSE_CHIRP_RATE
    raw = {
        "kind": "adiabatic",
        "system": {"omega_g": 0.0, "omega_e": 12.0, "mu": 1.0},
        "field": {
            "carrier": 2.0,
            "envelope": {"shape": "gaussian", "peak": 1.0, "center": 600.0, "width": 600.0},
            "phase": {"shape": "linear_chirp", "rate": rate, "t_ref": 600.0},
        },
        "grid": {"t0": 0.0, "t1": 1200.0, "samples": DENSE_SAMPLES},
        "adiabatic": {"n_max": 3},
    }
    return {"chirped": _dump(raw)}


def _hydro_frames(rng):
    raw = json.loads(_demo("hydro"))
    hydro = raw["hydro"]
    hydro.update(
        x_min=-40.0,
        n_points=2048,
        t_final=4.0,
        potential={"shape": "harmonic", "omega0": 0.5},
    )
    if rng is not None:
        hydro["packet"]["k0"] = _jitter(rng, hydro["packet"]["k0"], 0.25)
        hydro["packet"]["center"] += rng.uniform(-0.5, 0.5)
    return {"hydro": _dump(raw)}


_GENERATORS = {
    "oracle_check": _oracle_check,
    "fringe_scan": _fringe_scan,
    "closed_form_dense": _closed_form_dense,
    "hydro_frames": _hydro_frames,
}


def generate(workload: str, seed: int, directory: Path) -> list[Path]:
    """Write the workload's JSON inputs for ``seed`` into ``directory``."""
    rng = None if seed == DEFAULT_SEED else random.Random(seed)
    texts = _GENERATORS[workload](rng)
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in texts.items():
        path = directory / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        paths.append(path)
    return paths


def load(cli, workload: str, directory: Path) -> dict:
    """Parse and construct the inputs one pass needs.

    Returns the validated ``ExperimentConfig`` of every generated file, keyed
    by file stem; the dense workload also gets its time grid array as ``"t"``.
    """
    inputs = {
        path.stem: cli.load_config(path) for path in sorted(directory.glob("*.json"))
    }
    if workload == "closed_form_dense":
        inputs["t"] = inputs["chirped"].grid.array()
    return inputs
