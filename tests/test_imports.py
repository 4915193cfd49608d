"""What importing the package loads, and the lazily re-exported API.

A command-line run pays for every module it imports, so each experiment kind
loads only the modules it uses: ``import dressedphase`` loads no submodule,
``interfere`` and ``propagate`` runs never load ``dressed`` or ``hydro``, and
``hydro`` runs never load ``dressed``.  Each footprint is read in a fresh
interpreter.  The package still binds the same public names, each to the
object of the module that defines it.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dressedphase

DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"
SRC = Path(dressedphase.__file__).resolve().parents[1]

# ``from dressedphase import *`` binds the API and the seven submodules.
SUBMODULES = {"model", "dressed", "propagator", "interferometry", "hydro", "numerics", "errors"}
PUBLIC_NAMES = SUBMODULES | {
    "AdiabaticityReport", "DressedPhaseSeries", "DressedPhaseSet", "DrivingField",
    "EffectiveFrequencies", "EnvelopeSpec", "FringeRecord", "GridWavefunction",
    "InitialPhases", "IntegratorConfig", "PhaseSpec", "PolarFields", "PotentialSpec",
    "PulsePairConfig", "TwoLevelState", "TwoLevelSystem", "TwoLevelTrajectory",
    "adiabatic_report", "assemble_bare_state", "born_fock_value", "compare_trajectories",
    "complex_detuning", "continuity_residual", "dressed_amplitudes", "dressed_phases",
    "effective_excited_frequency", "full_field_propagate", "generalized_rabi", "hj_residual",
    "instantaneous_field", "level_shifts", "momentum_field", "optical_phase", "phase_scan",
    "polar_decompose", "pulse_pair_population", "quantum_potential", "rabi_frequency",
    "rk4_propagate", "rwa_propagate", "split_step_solve", "usual_adiabatic_value",
    "visibility",
}

# What ``import dressedphase.cli`` and ``load_config`` of each demo load.
CLI = {"", "cli", "errors", "model", "numerics", "propagator", "interferometry"}
FOOTPRINT = {
    "interfere": CLI,
    "propagate": CLI,
    "hydro": CLI | {"hydro"},
    "dressed_compare": CLI,
    "adiabatic": CLI,
}
# The kinds run end to end; a run adds only the CSV writer.  dressed and
# adiabatic runs import dressed when they start, so only their load is read.
RUN = {"interfere", "propagate", "hydro"}

PROBE = """
import json, sys
def loaded():
    return sorted(m.partition(".")[2] for m in sys.modules if m.split(".")[0] == "dressedphase")
import dressedphase
footprint = {"package": loaded()}
if len(sys.argv) > 1:
    import dressedphase.cli as cli
    cli.load_config(sys.argv[1])
    footprint["load"] = loaded()
if len(sys.argv) > 2:
    assert cli.main(["run", "--config", sys.argv[1], "--out", sys.argv[2], "--quiet"]) == 0
    footprint["run"] = loaded()
print(json.dumps(footprint))
"""


def _footprint(*args) -> dict:
    path = [str(SRC), *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", PROBE, *map(str, args)],
        env=env, capture_output=True, text=True, check=True,
    )
    return {stage: set(modules) for stage, modules in json.loads(done.stdout).items()}


def test_importing_the_package_loads_no_submodule():
    assert _footprint() == {"package": {""}}


@pytest.mark.parametrize("name", list(FOOTPRINT))
def test_each_kind_loads_only_the_modules_it_uses(name, tmp_path):
    args = (DEMO_CONFIGS / f"{name}.json", tmp_path / name)
    footprint = _footprint(*args if name in RUN else args[:1])
    assert footprint["load"] == FOOTPRINT[name]
    if name in RUN:
        assert footprint["run"] == FOOTPRINT[name] | {"csvformat"}


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from dressedphase import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(dressedphase))


@pytest.mark.parametrize("name", sorted(PUBLIC_NAMES))
def test_each_public_name_is_its_modules_object(name):
    value = getattr(dressedphase, name)
    if name in SUBMODULES:
        assert value is importlib.import_module(f"dressedphase.{name}")
    else:
        assert value.__module__.startswith("dressedphase.")
        assert value is getattr(sys.modules[value.__module__], name)
    assert vars(dressedphase)[name] is value


def test_an_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'dressedphase' has no attribute 'no_such_name'"):
        dressedphase.no_such_name
    with pytest.raises(ImportError):
        from dressedphase import no_such_name  # noqa: F401
