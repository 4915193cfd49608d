"""Phase dynamics of driven, damped two-level systems.

Subpackages cover the physical model (analytic envelopes and phases), the
closed-form dressed-state phases and adiabaticity diagnostics, brute-force
Schrodinger propagation used as the ground-truth oracle, phase-locked
pulse-pair interferometry, and the hydrodynamic (polar) decomposition of 1-D
wavefunctions.

The public names are re-exported lazily: ``import dressedphase`` loads no
submodule, and the first access to a name (``dressedphase.phase_scan``,
``from dressedphase import hydro``, ``from dressedphase import *``) imports
the submodule that defines it and caches the value here.  So a command-line
run compiles and loads only the modules its experiment kind uses.
"""

# Each submodule and the public names it defines.
_API = {
    "model": (
        "DrivingField",
        "EnvelopeSpec",
        "InitialPhases",
        "PhaseSpec",
        "TwoLevelSystem",
        "complex_detuning",
        "instantaneous_field",
        "optical_phase",
        "rabi_frequency",
    ),
    "dressed": (
        "AdiabaticityReport",
        "DressedPhaseSeries",
        "DressedPhaseSet",
        "EffectiveFrequencies",
        "adiabatic_report",
        "assemble_bare_state",
        "born_fock_value",
        "dressed_amplitudes",
        "dressed_phases",
        "effective_excited_frequency",
        "generalized_rabi",
        "level_shifts",
        "usual_adiabatic_value",
    ),
    "propagator": (
        "IntegratorConfig",
        "TwoLevelState",
        "TwoLevelTrajectory",
        "compare_trajectories",
        "full_field_propagate",
        "rk4_propagate",
        "rwa_propagate",
    ),
    "interferometry": (
        "FringeRecord",
        "PulsePairConfig",
        "phase_scan",
        "pulse_pair_population",
        "visibility",
    ),
    "hydro": (
        "GridWavefunction",
        "PolarFields",
        "PotentialSpec",
        "continuity_residual",
        "hj_residual",
        "momentum_field",
        "polar_decompose",
        "quantum_potential",
        "split_step_solve",
    ),
    "numerics": (),
    "errors": (),
}
_OWNER = {name: module for module, names in _API.items() for name in names}

__all__ = [*_OWNER, *_API]
__version__ = "0.1.0"


def __getattr__(name):
    from importlib import import_module

    if name in _API:
        value = import_module(f".{name}", __name__)
    elif name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
