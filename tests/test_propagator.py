import cmath
import json
import math
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from dressedphase import cli, propagator
from dressedphase.cli import load_config_dict
from dressedphase.dressed import InitialPhases, adiabatic_report, assemble_bare_state

from dressedphase.errors import (
    GridError,
    GridMismatchError,
    StepSizeUnderflowError,
    ValidationError,
)
from dressedphase.interferometry import PulsePairConfig, phase_scan
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
    _magnus_grid,
    _magnus_propagator,
    compare_trajectories,
    full_field_propagate,
    rk4_propagate,
    rwa_propagate,
    rwa_propagate_coupling,
)
from dressedphase.numerics import check_monotone_grid
from oracles import coupling_fn, dp5_propagate, dp5_rwa_propagate, magnus_states_whole, rabi_population

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
    # Undamped Magnus steps are unitary up to rounding, so the drift stays
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
    """A tighter rel_tol buys a smaller error on both steppers: the Magnus
    steps of ``rwa_propagate`` on a chirped, damped pulse (a constant drive
    is exact on them at any step), and DP5 on the constant drive."""
    # Sparse samples so the step size is set by the tolerance, not by clipping
    # to the output grid.
    start = TwoLevelState(1.0, 0.0)
    magnus = partial(rwa_propagate, MAGNUS_SYSTEM, MAGNUS_PULSE, start, np.linspace(-5.5, 5.5, 6))
    dp5 = partial(
        dp5_propagate, RESONANT, coupling_fn(RESONANT, RES_FIELD), 5.0, start, np.linspace(0.0, 20.0, 6)
    )
    for run in (magnus, dp5):
        reference = run(IntegratorConfig(1e-12, 1e-15))

        def err(rel_tol):
            return compare_trajectories(run(IntegratorConfig(rel_tol, 1e-15)), reference).max_amplitude_error

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


@pytest.mark.parametrize("c_g,c_e", [(1e300, 0.0), (0.6, 1e200j), (1e154, 1e154)])
def test_state_rejects_an_overflowing_norm(c_g, c_e):
    """Finite amplitudes whose |c_g|^2 + |c_e|^2 overflows are rejected; 1e150 is not."""
    with pytest.raises(ValidationError, match=r"TwoLevelState: \|c_g\|\^2 \+ \|c_e\|\^2 must be finite"):
        TwoLevelState(c_g, c_e)
    assert math.isfinite(TwoLevelState(1e150, 1e150j).norm())


FRAME_CALLS = {
    "rwa_propagate": lambda frame: rwa_propagate(
        RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), np.linspace(0.0, 1.0, 5), TIGHT, frame
    ),
    "rwa_propagate_coupling": lambda frame: rwa_propagate_coupling(
        RESONANT, coupling_fn(RESONANT, RES_FIELD), 5.0, TwoLevelState(1.0, 0.0),
        np.linspace(0.0, 1.0, 5), TIGHT, frame,
    ),
}


@pytest.mark.parametrize("frame", ["Rotating", "nonsense"])
@pytest.mark.parametrize("call", list(FRAME_CALLS))
def test_unknown_frame_rejected_before_integrating(call, frame):
    with mock.patch.object(propagator, "_magnus_grid") as integrate:
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


def test_rk4_divergence_is_an_error():
    """Steps far too long for the drive make RK4 grow the norm without
    bound (here to ~1e184); without damping the norm cannot grow at all."""
    system = TwoLevelSystem(0.0, 50.0)
    field = DrivingField(50.0, EnvelopeSpec.constant(1.0))
    t = np.linspace(0.0, 100.0, 11)
    with pytest.raises(ValidationError, match="increase substeps"):
        rk4_propagate(system, field, TwoLevelState(1.0, 0.0), t, engine="full")


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
    return _magnus_propagator(lambda t: (coupling(t),) * 2, weights, detuning, -5.5, 5.5, cfg)


def test_magnus_chunks_are_the_whole_batch():
    """Splitting the drives into chunks changes no bit of any propagator."""
    deltas = np.linspace(0.0, 2.0 * np.pi, 50, endpoint=False)
    weights = np.stack((np.ones(deltas.size), np.exp(-1j * deltas)))
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14, max_step=0.5)
    whole = _magnus(weights, cfg)
    with mock.patch.object(propagator, "_MAGNUS_CHUNK", 64), mock.patch.object(propagator, "_MAGNUS_STACK", 64):
        chunked = _magnus(weights, cfg)
    assert whole.shape == (4, deltas.size)
    np.testing.assert_array_equal(chunked, whole)


def test_magnus_interval_limit():
    """A drive the grids cannot resolve doubles them up to the cap (here
    lowered to 2**16 intervals) and then raises: on a carrier of 5000 the
    last grid below the cap, 45,056 intervals, still turns the phase by 1.2
    rad per step.  So does a step cap asking for more at once."""
    coupling = _array_coupling_fn(MAGNUS_SYSTEM, MAGNUS_PULSE)
    detuning = complex_detuning(MAGNUS_SYSTEM, MAGNUS_PULSE)

    def fast(t):
        return (coupling(t) * np.exp(-5000j * t),)

    with mock.patch.object(propagator, "_MAGNUS_MAX_INTERVALS", 2**16):
        with pytest.raises(StepSizeUnderflowError, match="Magnus"):
            _magnus_propagator(fast, np.ones((1, 1)), detuning, -5.5, 5.5, IntegratorConfig(max_step=0.5))
        with pytest.raises(StepSizeUnderflowError, match="Magnus"):
            _magnus(np.ones((2, 1)), IntegratorConfig(max_step=1e-4))


def test_subnormal_max_step_exhausts_the_ladder():
    """A max_step of 5e-324 asks for an infinite first step count, which is
    past the cap like any count above it: StepSizeUnderflowError, on a
    trajectory as on the segments of a fringe scan, and no Magnus grid."""
    cfg = IntegratorConfig(max_step=5e-324)
    weak = DrivingField(5.0, EnvelopeSpec.gaussian(0.05, 0.0, 1.0))
    with pytest.warns(UserWarning, match="overlap"):
        overlapping = PulsePairConfig(weak, delay=1.0, rel_phase=0.0)
    grid = mock.Mock(side_effect=AssertionError("a Magnus grid was made"))
    with mock.patch.object(propagator, "_magnus_grid", grid):
        with pytest.raises(StepSizeUnderflowError, match=r"passed 1048576 steps per interval on \[0\.0, 1\.0\]$"):
            rwa_propagate(RESONANT, RES_FIELD, TwoLevelState(1.0, 0.0), np.linspace(0.0, 1.0, 5), cfg)
        for pair in (PulsePairConfig(weak, delay=30.0, rel_phase=0.0), overlapping):  # composed and summed
            with pytest.raises(StepSizeUnderflowError, match="Magnus step doubling passed"):
                phase_scan(RESONANT, pair, np.linspace(0.0, 1.0, 3), cfg)
    grid.assert_not_called()


def test_magnus_stops_at_the_rounding_floor():
    """Tolerances no rounding can meet stop the doubling once the change is
    within n * eps * max|U| (n the finer count), and what is returned is
    the converged propagator."""
    weights = np.ones((2, 1))
    floor = _magnus(weights, IntegratorConfig(rel_tol=1e-300, abs_tol=1e-300, max_step=0.5))
    tight = _magnus(weights, IntegratorConfig(rel_tol=1e-13, abs_tol=1e-16, max_step=0.5))
    np.testing.assert_allclose(floor, tight, rtol=0.0, atol=1e-12)


def test_magnus_step_is_fourth_order():
    """Doubling the interval count shrinks the change of the propagator
    sixteen-fold: the commutator term makes the step fourth order, where
    without it (or with its sign flipped) the step would be second order."""
    coupling = _array_coupling_fn(MAGNUS_SYSTEM, MAGNUS_PULSE)
    detuning = complex_detuning(MAGNUS_SYSTEM, MAGNUS_PULSE)
    # 22 -> 11 -> ... takes the pairwise product through odd counts too.
    grids = [
        _magnus_grid(lambda t: (coupling(t),), np.ones((1, 1)), detuning, np.array([-5.5, 5.5]), n)
        for n in (22, 44, 88, 176)
    ]
    changes = [np.max(np.abs(fine - coarse)) for coarse, fine in zip(grids, grids[1:])]
    for coarse, fine in zip(changes, changes[1:]):
        assert 12.0 < coarse / fine < 20.0


DEMO_CONFIGS = Path(__file__).resolve().parents[1] / "demos" / "configs"


def _seeded(raw):
    """A benchmark-style perturbation: carrier x1.01 and a constant phase of 1.3."""
    raw["field"]["carrier"] *= 1.01
    raw["field"]["phase"] = {"shape": "constant", "phi0": 1.3}
    return raw


@pytest.mark.parametrize(
    "name,edit",
    [("dressed_compare", None), ("propagate", None), ("dressed_compare", _seeded)],
    ids=["dressed_compare", "propagate", "dressed_compare_seeded"],
)
def test_rwa_propagate_is_the_coupling_form(name, edit):
    """``rwa_propagate`` is ``rwa_propagate_coupling`` of its one pulse, with
    K(t) built from the public ``envelope.value`` and ``phase.value`` one time
    at a time, to 1e-12 on the command line's rotating-wave runs: both
    evaluate the coupling at the same Magnus nodes."""
    raw = json.loads((DEMO_CONFIGS / f"{name}.json").read_text())
    config = load_config_dict(edit(raw) if edit else raw)
    system, field, cfg, p = config.system, config.field, config.integrator, config.params
    t = config.grid.array()
    if config.kind == "dressed":
        phases = InitialPhases(p["phi_g"], p["phi_e"])
        initial = assemble_bare_state(system, field, phases, p["branch"], t)[0]
    else:
        initial = TwoLevelState(complex(*p["c_g"]), complex(*p["c_e"]))
    half_mu, envelope, phase = 0.5 * system.mu, field.envelope, field.phase

    def coupling(x):
        return half_mu * envelope.value(x) * cmath.exp(-1j * phase.value(x))

    array = rwa_propagate(system, field, initial, t, cfg)
    scalar = rwa_propagate_coupling(system, coupling, field.carrier, initial, t, cfg)
    assert compare_trajectories(array, scalar).max_amplitude_error <= 1e-12


def _grid_steps(call):
    """Run ``call`` and return the steps per interval k of every Magnus grid it made."""
    steps = []

    def spy(terms, weights, detuning, t, k):
        steps.append(k)
        return grid(terms, weights, detuning, t, k)

    grid = propagator._magnus_grid
    with mock.patch.object(propagator, "_magnus_grid", spy):
        call()
    return steps


def test_oracle_ladder_settles_failing_rounds_on_their_first_chunk(tmp_path):
    """The ``dressed_compare`` demo's oracle evaluates its coupling at
    481,280 Magnus nodes, two per step, after its 2,401 samples (the reach
    check).  The rounds k = 1 to 16 fail on their first chunk of 2,048 steps
    (4,096 nodes each); k = 32 and 64 run all 2,400 intervals.  Every round
    on the whole grid took 2 * 2,400 * 127 = 609,600 nodes."""
    config = load_config_dict(json.loads((DEMO_CONFIGS / "dressed_compare.json").read_text()))
    nodes = 0
    make = propagator._array_coupling_fn

    def counting(system, field):
        coupling = make(system, field)

        def counted(t):
            nonlocal nodes
            nodes += t.size
            return coupling(t)

        return counted

    with mock.patch.object(propagator, "_array_coupling_fn", counting):
        cli.run(config, tmp_path / "out")
    assert nodes == 2401 + 2 * 2400 * (32 + 64) + 5 * 4096 == 2401 + 481_280


def test_nan_round_fails_on_its_first_chunk():
    """A NaN change fails the stop test, on the whole grid as on the first
    chunk, so a NaN drive runs each round on its first chunk alone up to the
    cap (here 16 steps per interval, with chunks of 4 steps).  A segment is
    one interval, so its first chunk is its whole round: one Magnus grid per
    round.  The error names the grid's ends as plain floats."""
    t = np.linspace(0.0, 10.0, 101)
    spans = []
    grid = propagator._magnus_grid

    def spy(terms, weights, detuning, t, k):
        spans.append((k, t.size - 1))
        return grid(terms, weights, detuning, t, k)

    def nan(x):
        return np.full(x.shape, np.nan, dtype=complex)

    patched = mock.patch.multiple(propagator, _magnus_grid=spy, _MAGNUS_CHUNK=4, _MAGNUS_MAX_INTERVALS=16)
    exhausted = pytest.raises(StepSizeUnderflowError, match=r"passed 16 .* on \[0\.0, 10\.0\]$")
    with patched, np.errstate(invalid="ignore"), exhausted:
        propagator._magnus_trajectory(nan, 1.0 + 0j, t, (1 + 0j, 0j), TIGHT)
    assert spans == [(1, 4), (2, 2), (4, 1), (8, 1), (16, 1)]
    spans.clear()
    with patched, np.errstate(invalid="ignore"), exhausted:
        _magnus_propagator(lambda x: (nan(x),), np.ones((1, 1)), 1.0 + 0j, 0.0, 10.0, TIGHT)
    assert spans == [(1, 1), (2, 1), (4, 1), (8, 1), (16, 1)]


def test_unreachable_coupling_is_rejected_before_any_step():
    """The ``dressed_compare`` demo at ``peak`` 1e12: |K| h / 2**20 >= pi on
    every interval, so no step count up to the cap resolves the drive, and
    StepSizeUnderflowError is raised before any Magnus grid is made; a grid
    made fails at once, where the ladder would run some 79 million steps.
    A coupling just inside the bound, and a NaN one, go on to the steps."""
    config = load_config_dict(json.loads((DEMO_CONFIGS / "dressed_compare.json").read_text()))
    strong = DrivingField(config.field.carrier, EnvelopeSpec.gaussian(1e12, 600.0, 600.0), config.field.phase)
    t = config.grid.array()
    grid = mock.Mock(side_effect=AssertionError("a Magnus grid was made"))
    with mock.patch.object(propagator, "_magnus_grid", grid):
        with pytest.raises(StepSizeUnderflowError, match=r"coupling \|K\| 1842.* over an interval of 0\.5$"):
            rwa_propagate(config.system, strong, TwoLevelState(1.0, 0.0), t, config.integrator)
    grid.assert_not_called()
    # Intervals of 0.5: |K| = pi * 2**21 is rejected, and just below it passes.
    stepped = mock.Mock(side_effect=RuntimeError("stepped"))
    for value, error in ((math.pi * 2.0**21, StepSizeUnderflowError),
                         (np.nextafter(math.pi * 2.0**21, 0.0), RuntimeError), (np.nan, RuntimeError)):
        def coupling(x):
            return np.full(x.shape, value, dtype=complex)

        with mock.patch.object(propagator, "_magnus_grid", stepped), pytest.raises(error):
            propagator._magnus_trajectory(coupling, 0j, t[:3], (1 + 0j, 0j), TIGHT)
    assert stepped.call_count == 2


def test_damped_coarse_round_passes_the_initial_norm():
    """With damping a Magnus step is no contraction: one step per interval
    of the full field of a strong, damped gaussian lifts |a_g| 4% above the
    initial norm.  So a damped round's entries have no bound from |y0|, and
    only NaN settles a damped round on its first chunk."""
    system = TwoLevelSystem(0.0, 5.0, gamma_re=1.0)
    coupling, carrier = propagator._drive(system, DrivingField(5.0, EnvelopeSpec.gaussian(4.0, 0.0, 1.5)), "full")
    t = np.linspace(-4.0, 4.0, 9)
    states = magnus_states_whole(coupling, propagator._complex_detuning(system, carrier), t, (1 + 0j, 0j), 1)
    assert np.max(np.abs(states)) > 1.04


def test_trajectory_reach_under_the_step_cap():
    """The quick-tour pulse stretched eightfold, over t1 = 9,600 with 19,201
    samples: the doubling stops at 32 steps per interval (614,400 steps in
    all), and the state is the assembled one within ten times the adiabatic
    margin (acceptance criterion A3's bound)."""
    system = TwoLevelSystem(0.0, 12.0)
    field = DrivingField(2.0, EnvelopeSpec.gaussian(1.0, 4800.0, 4800.0))
    t = np.linspace(0.0, 9600.0, 19201)
    margin = adiabatic_report(system, field, t, 1).margin
    assembled = assemble_bare_state(system, field, InitialPhases(0.0, 0.0), "ground", t)
    out = []
    steps = _grid_steps(
        lambda: out.append(rwa_propagate(system, field, assembled[0], t, IntegratorConfig(1e-10, 1e-13)))
    )
    assert max(steps) == 32
    assert compare_trajectories(assembled, out[0]).max_amplitude_error <= 10.0 * margin


def test_trajectory_step_cap_bounds_steps_per_interval():
    """The cap bounds the steps per interval k, not the n * k steps of the
    grid: ten intervals that converge at 128 steps each (1,280 in all)
    return under a cap of 128 and raise under 64."""
    t = np.linspace(-5.5, 5.5, 11)
    run = partial(rwa_propagate, MAGNUS_SYSTEM, MAGNUS_PULSE, TwoLevelState(1.0, 0.0), t, TIGHT)
    assert max(_grid_steps(run)) == 128
    with mock.patch.object(propagator, "_MAGNUS_MAX_INTERVALS", 128):
        run()
    with mock.patch.object(propagator, "_MAGNUS_MAX_INTERVALS", 64):
        with pytest.raises(StepSizeUnderflowError, match="passed 64 steps per interval"):
            run()


def test_dense_trajectory_is_not_capped_by_its_samples():
    """Far more intervals than the cap (here lowered to 16 steps per
    interval): 4,001 samples over the chirped, damped pulse converge at a
    few steps per interval and agree with DP5 within 1e3 * rel_tol, where a
    cap on the grid's n * k steps would raise before any work."""
    t = np.linspace(-5.5, 5.5, 4001)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    out = []
    with mock.patch.object(propagator, "_MAGNUS_MAX_INTERVALS", 16):
        steps = _grid_steps(
            lambda: out.append(rwa_propagate(MAGNUS_SYSTEM, MAGNUS_PULSE, TwoLevelState(1.0, 0.0), t, cfg))
        )
    dp5 = dp5_rwa_propagate(MAGNUS_SYSTEM, MAGNUS_PULSE, TwoLevelState(1.0, 0.0), t, cfg)
    assert max(steps) <= 16
    assert compare_trajectories(out[0], dp5).max_amplitude_error <= 1e3 * cfg.rel_tol
