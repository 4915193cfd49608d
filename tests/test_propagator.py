import math
from unittest import mock

import numpy as np
import pytest

from dressedphase import propagator

from dressedphase.errors import (
    GridError,
    GridMismatchError,
    StepSizeUnderflowError,
    ValidationError,
)
from dressedphase.model import (
    DrivingField,
    EnvelopeSpec,
    PhaseSpec,
    TwoLevelSystem,
    complex_detuning,
)
from dressedphase.propagator import (
    IntegratorConfig,
    TwoLevelState,
    TwoLevelTrajectory,
    _array_coupling_fn,
    _coupling_fn,
    _magnus_grid,
    _magnus_propagator,
    compare_trajectories,
    full_field_propagate,
    rk4_propagate,
    rwa_propagate,
    rwa_propagate_coupling,
)
from dressedphase.numerics import check_monotone_grid
from oracles import rabi_population

RESONANT = TwoLevelSystem(0.0, 5.0)
RES_FIELD = DrivingField(5.0, EnvelopeSpec.constant(1.0))
TIGHT = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)


def test_free_evolution():
    system = TwoLevelSystem(0.7, 2.0)
    field = DrivingField(1.3, EnvelopeSpec.constant(0.0))
    t = np.linspace(0.0, 10.0, 101)
    traj = full_field_propagate(system, field, TwoLevelState(1.0, 0.0), t, TIGHT)
    np.testing.assert_allclose(traj.c_g, np.exp(-1j * 0.7 * t), atol=2e-10)
    np.testing.assert_array_equal(traj.c_e, 0.0)


def test_zero_field_engines_agree():
    """With the drive off, RWA and full-field propagation coincide exactly
    with free evolution."""
    system = TwoLevelSystem(0.7, 2.0)
    field = DrivingField(1.3, EnvelopeSpec.constant(0.0))
    t = np.linspace(0.0, 10.0, 101)
    start = TwoLevelState(0.6, 0.8j)
    full = full_field_propagate(system, field, start, t, TIGHT)
    rwa = rwa_propagate(system, field, start, t, TIGHT)
    assert compare_trajectories(full, rwa).max_amplitude_error < 1e-9
    np.testing.assert_allclose(rwa.c_g, 0.6 * np.exp(-1j * 0.7 * t), atol=1e-12)
    np.testing.assert_allclose(rwa.c_e, 0.8j * np.exp(-1j * 2.0 * t), atol=1e-12)


def test_resonant_rabi_flopping():
    t = np.linspace(0.0, 30.0, 301)
    traj = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT)
    np.testing.assert_allclose(traj.population_e, rabi_population(t, 1.0), atol=1e-9)


def test_detuned_generalized_rabi_oscillation():
    system = TwoLevelSystem(0.0, 8.0)  # detuning 3
    field = DrivingField(5.0, EnvelopeSpec.constant(4.0))  # Omega 4 -> W = 5
    t = np.linspace(0.0, 4.0 * np.pi / 5.0, 1001)
    traj = rwa_propagate(system, field, TwoLevelState(1.0, 0.0), t, TIGHT)
    np.testing.assert_allclose(
        traj.population_e, rabi_population(t, 4.0, detuning=3.0), atol=1e-9
    )
    peak = np.max(traj.population_e)
    assert peak == pytest.approx(16.0 / 25.0, abs=1e-9)


def test_norm_conservation_hermitian():
    t = np.linspace(0.0, 40.0 * np.pi, 801)  # 20 Rabi periods
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=2.0 * np.pi / 200.0)
    traj = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, cfg)
    assert np.max(np.abs(traj.norm - 1.0)) < 1e-9


def test_full_field_hermitian_norm_drift():
    # Fifth-order dissipation sets the drift floor; the step cap keeps it
    # below 1e-9 at the stated tolerance over a full Rabi period.
    system = TwoLevelSystem(0.0, 25.0, mu=1.0)
    field = DrivingField(25.0, EnvelopeSpec.constant(1.0))
    t = np.linspace(0.0, 2.0 * np.pi, 201)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_step=8e-4)
    traj = full_field_propagate(system, field, TwoLevelState(1.0, 0.0), t, cfg)
    assert np.max(np.abs(traj.norm - 1.0)) < 1e-9


def test_decay_monotone_norm():
    system = TwoLevelSystem(0.0, 5.0, gamma_re=0.3)
    t = np.linspace(0.0, 20.0, 401)
    traj = rwa_propagate(system, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT)
    diffs = np.diff(traj.norm)
    assert np.all(diffs <= 1e-9)
    assert traj.norm[-1] < 0.2


def test_full_field_approaches_rwa_at_high_carrier():
    deviations = []
    for ratio in (25.0, 50.0, 100.0):
        system = TwoLevelSystem(0.0, ratio, mu=1.0)
        field = DrivingField(ratio, EnvelopeSpec.constant(1.0))
        # resolve the counter-rotating ripple at 2*carrier
        t = np.linspace(0.0, 2.0 * np.pi, 1601)
        full = full_field_propagate(system, field, TwoLevelState(1.0, 0.0), t, TIGHT)
        rwa = rwa_propagate(system, field, TwoLevelState(1.0, 0.0), t, TIGHT)
        deviations.append(float(np.max(np.abs(full.population_e - rwa.population_e))))
    assert deviations[0] < 1.0 / 25.0
    assert deviations[1] < 1.0 / 50.0
    assert deviations[2] < 1.0 / 100.0
    assert deviations[0] > deviations[1] > deviations[2]


def test_tolerance_scaling():
    # Sparse samples so the step size is set by the tolerance, not by clipping
    # to the output grid.
    t = np.linspace(0.0, 20.0, 6)
    reference = rwa_propagate(
        RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, IntegratorConfig(1e-12, 1e-15)
    )

    def err(rel_tol):
        traj = rwa_propagate(
            RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, IntegratorConfig(rel_tol, 1e-15)
        )
        return compare_trajectories(traj, reference).max_amplitude_error

    assert err(1e-4) / err(1e-6) >= 10.0


def test_rk4_cross_check():
    t = np.linspace(0.0, 30.0, 3001)
    adaptive = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT)
    fixed = rk4_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, engine="rwa", substeps=4)
    assert compare_trajectories(adaptive, fixed).max_amplitude_error < 1e-10
    fixed_full = rk4_propagate(
        RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, engine="full", substeps=8
    )
    adaptive_full = full_field_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT)
    assert compare_trajectories(adaptive_full, fixed_full).max_amplitude_error < 1e-7


def test_chirped_drive_between_engines():
    """RWA and full-field propagators agree for a slow chirped pulse at high carrier."""
    system = TwoLevelSystem(0.0, 60.0, mu=1.0)
    field = DrivingField(
        59.0,
        EnvelopeSpec.gaussian(0.8, 6.0, 2.5),
        PhaseSpec.quadratic_chirp(0.02, 0.003),
    )
    t = np.linspace(0.0, 12.0, 241)
    full = full_field_propagate(system, field, TwoLevelState(1.0, 0.0), t, TIGHT)
    rwa = rwa_propagate(system, field, TwoLevelState(1.0, 0.0), t, TIGHT)
    assert np.max(np.abs(full.population_e - rwa.population_e)) < 0.02


def test_compare_trajectories_identity_and_global_phase():
    t = np.linspace(0.0, 5.0, 51)
    traj = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT)
    same = compare_trajectories(traj, traj)
    assert same.max_amplitude_error == 0.0
    assert same.max_population_error == 0.0
    assert same.final_phase_error_g == 0.0

    phase = np.exp(1j * np.pi / 7.0)
    rotated = TwoLevelTrajectory(t, traj.c_g * phase, traj.c_e * phase)
    cmp_rot = compare_trajectories(rotated, traj)
    assert cmp_rot.max_amplitude_error == pytest.approx(abs(phase - 1.0), rel=1e-12)
    assert cmp_rot.max_population_error < 1e-15
    assert cmp_rot.final_phase_error_g == pytest.approx(np.pi / 7.0, abs=1e-12)


def test_compare_trajectories_grid_mismatch():
    t1 = np.linspace(0.0, 5.0, 51)
    t2 = np.linspace(0.0, 5.0, 52)
    a = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t1, TIGHT)
    b = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t2, TIGHT)
    with pytest.raises(GridMismatchError, match="grid mismatch"):
        compare_trajectories(a, b)


def test_invalid_grid():
    with pytest.raises(GridError, match="invalid grid"):
        rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), np.array([0.0, 2.0, 1.0]))


@pytest.mark.parametrize("bad", [[0.0, math.inf], [-math.inf, 0.0]])
def test_infinite_grid_rejected(bad):
    """An infinite sample time is a grid error, not an endless DP5 loop."""
    with pytest.raises(GridError, match="must be finite"):
        check_monotone_grid(bad)
    with pytest.raises(GridError, match="must be finite"):
        rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), bad)


@pytest.mark.parametrize(
    "c_g,c_e,name",
    [
        (math.nan, 0.0, "c_g"),
        (complex(0.0, math.inf), 0.0, "c_g"),
        (1.0, complex(math.nan, 0.0), "c_e"),
    ],
)
def test_state_rejects_non_finite_amplitudes(c_g, c_e, name):
    with pytest.raises(ValidationError, match=f"TwoLevelState: {name} must be finite"):
        TwoLevelState(c_g, c_e)


FRAME_CALLS = {
    "rwa_propagate": lambda frame: rwa_propagate(
        RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), np.linspace(0.0, 1.0, 5), TIGHT, frame
    ),
    "rwa_propagate_coupling": lambda frame: rwa_propagate_coupling(
        RESONANT, _coupling_fn(RESONANT, (RES_FIELD,)), 5.0, TwoLevelState(1.0, 0.0),
        np.linspace(0.0, 1.0, 5), TIGHT, frame,
    ),
}


@pytest.mark.parametrize("frame", ["Rotating", "nonsense"])
@pytest.mark.parametrize("call", list(FRAME_CALLS))
def test_unknown_frame_rejected_before_integrating(call, frame):
    with mock.patch.object(propagator, "_integrate_pair") as integrate:
        with pytest.raises(ValidationError, match="frame must be 'bare' or 'rotating'"):
            FRAME_CALLS[call](frame)
    integrate.assert_not_called()


def test_step_size_underflow():
    system = TwoLevelSystem(0.0, 1e18)
    field = DrivingField(1e18, EnvelopeSpec.constant(1.0))
    with pytest.raises(StepSizeUnderflowError, match="step-size underflow"):
        full_field_propagate(
            system, field, TwoLevelState(1.0, 0.0), np.linspace(0.0, 1.0, 11),
            IntegratorConfig(rel_tol=1e-2, abs_tol=1e-2),
        )


def test_integrator_config_validation():
    with pytest.raises(ValidationError):
        IntegratorConfig(rel_tol=0.5)
    with pytest.raises(ValidationError):
        IntegratorConfig(abs_tol=0.0)
    with pytest.raises(ValidationError):
        IntegratorConfig(max_step=0.0)
    with pytest.raises(ValidationError):
        rk4_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), np.linspace(0, 1, 5), engine="verlet")


@pytest.mark.parametrize("substeps", [0, 2.5, True])
def test_rk4_substeps_must_be_a_positive_integer(substeps):
    with pytest.raises(ValidationError, match="substeps must be an integer >= 1"):
        rk4_propagate(
            RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), np.linspace(0, 1, 5), substeps=substeps
        )


def test_trajectory_sequence_protocol():
    t = np.linspace(0.0, 1.0, 5)
    traj = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT)
    assert len(traj) == 5
    state = traj[0]
    assert isinstance(state, TwoLevelState)
    assert state.norm() == pytest.approx(1.0, abs=1e-12)
    assert traj.frame == "bare"
    with pytest.raises(ValueError):
        traj.times[0] = 5.0  # arrays are read-only


def test_rotating_frame_output():
    t = np.linspace(0.0, 3.0, 31)
    rot = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT, frame="rotating")
    bare = rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), t, TIGHT)
    assert rot.frame == "rotating"
    np.testing.assert_allclose(
        bare.c_e, rot.c_e * np.exp(-1j * (RESONANT.omega_g + 5.0) * t), atol=1e-12
    )


MAGNUS_PULSE = DrivingField(5.2, EnvelopeSpec.gaussian(0.5, 0.0, 1.0), PhaseSpec.linear_chirp(0.3))
MAGNUS_SYSTEM = TwoLevelSystem(0.0, 5.0, gamma_re=0.05)


def _magnus(weights, cfg):
    coupling = _array_coupling_fn(MAGNUS_SYSTEM, MAGNUS_PULSE)
    detuning = complex_detuning(MAGNUS_SYSTEM, MAGNUS_PULSE)
    return _magnus_propagator((coupling, coupling), weights, detuning, -5.5, 5.5, cfg)


def test_magnus_chunks_are_the_whole_batch():
    """Splitting the drives into chunks changes no bit of any propagator."""
    deltas = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    weights = np.stack((np.ones(deltas.size), np.exp(-1j * deltas)))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, max_step=0.5)
    whole = _magnus(weights, cfg)
    with mock.patch.object(propagator, "_MAGNUS_CHUNK", 64):
        chunked = _magnus(weights, cfg)
    assert whole.shape == (4, deltas.size)
    np.testing.assert_array_equal(chunked, whole)


def test_magnus_interval_limit():
    """Tolerances that rounding cannot meet double the grid up to 2**16
    intervals and then raise; so does a step cap asking for more at once."""
    weights = np.ones((2, 1))
    with pytest.raises(StepSizeUnderflowError, match="Magnus"):
        _magnus(weights, IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300, max_step=0.5))
    with pytest.raises(StepSizeUnderflowError, match="Magnus"):
        _magnus(weights, IntegratorConfig(max_step=1e-4))


def test_magnus_step_is_fourth_order():
    """Doubling the interval count shrinks the change of the propagator
    sixteen-fold: the commutator term makes the step fourth order, where
    without it (or with its sign flipped) the step would be second order."""
    coupling = _array_coupling_fn(MAGNUS_SYSTEM, MAGNUS_PULSE)
    detuning = complex_detuning(MAGNUS_SYSTEM, MAGNUS_PULSE)
    # 22 -> 11 -> ... takes the pairwise product through odd counts too.
    grids = [
        _magnus_grid((coupling,), np.ones((1, 1)), detuning, -5.5, 5.5, n) for n in (22, 44, 88, 176)
    ]
    changes = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(grids, grids[1:])]
    for coarse, fine in zip(changes, changes[1:]):
        assert 12.0 < coarse / fine < 20.0
