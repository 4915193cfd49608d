"""Properties of the library's evaluators and engines against independent forms.

The library evaluates every envelope and phase through its array
registries; the DP5 reference of ``oracles`` uses scalar closures
(``scalar_envelope_fn``, ``scalar_phase_fn``) written apart from them.
These tests check that the two forms agree, and that ``generalized_rabi``
of a scalar time equals the array result there.
The generalized Rabi branch is chosen pointwise: every point equals a
one-point call and is the root nearer to the detuning wherever the two roots
are told apart; off resonance it also equals the sign-walk loop in
``oracles``.  The vectorised cumulative Simpson rule is checked bit for bit
against the point-by-point loop there, and every grid-wide closed-form call
run over blocks of 8 or 64 samples against its one-block result.  Without
damping the propagators conserve the norm, the DP5 reference of both engines
agrees with fixed-step RK4, and a common shift of both levels is a global
phase of every engine and stepper, on random drives; so does the Magnus segment propagator, whose
closed-form 2x2 exponential agrees with Taylor series and, stacked, with
each matrix's alone bit for bit, the array coupling agrees with the scalar
one, the Magnus trajectories of ``rwa_propagate`` agree with DP5 on uneven
grids, and those of ``full_field_propagate`` with DP5 on damped and
undamped pulses.  Every interval of a Magnus grid is, bit for bit, the
one-interval grid over it, and a Magnus trajectory, whose doubling settles a
failing round on its first chunk, is the ladder that runs every round on the
whole grid; no undamped round passes the initial norm by more than its
rounding.  Pulse 2 with phi0 lowered by pi/2, the third
drive of the summed scan, is i K on the rotating-wave coupling and
mu E0 sin(Phi) on the real field.  The
fringe scans of both engines agree with the per-delta DP5 loop of
``oracles``; the composed scan of separated pulses is one cosine in delta.
Weak separated pairs follow the paper's fringe laws, visibility 2r/(1 + r^2)
with r = exp(-gamma' delay / 2) and delta* = Re(dw~) delay, on both engines,
and damping lowers the visibility of overlapping pairs.
The ``hydro`` run reports the residual norms and writes the polar fields that
the public hydro functions give on its frames, bit for bit, and both equal
the frame-by-frame oracle, whose unwrap is ``np.unwrap``.  On random drives
of the paper's adiabatic regime the assembled ground branch stays within 10x
the adiabatic margin of the rotating-wave oracle, the excited branch's phase
within the margin, and stretching a constant-phase pulse lowers the error.
"""

import cmath
import math
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dressedphase import cli, hydro, numerics, propagator
from dressedphase.dressed import (
    BRANCHES,
    MAX_ADIABATIC_ORDER,
    _continued_rabi,
    adiabatic_report,
    assemble_bare_state,
    dressed_phases,
    generalized_rabi,
)
from dressedphase.errors import GridError
from dressedphase.hydro import (
    GridWavefunction,
    PotentialSpec,
    continuity_residual,
    hj_residual,
    momentum_field,
    polar_decompose,
    quantum_potential,
    split_step_solve,
)
from dressedphase.interferometry import PulsePairConfig, fit_fringe, phase_scan
from dressedphase.model import (
    ENVELOPE_SHAPES,
    MAX_DERIVATIVE_ORDER,
    PHASE_SHAPES,
    DrivingField,
    EnvelopeSpec,
    InitialPhases,
    PhaseSpec,
    TwoLevelSystem,
    complex_detuning,
    rabi_frequency,
)
from dressedphase.numerics import cumulative_simpson
from dressedphase.propagator import (
    IntegratorConfig,
    TwoLevelState,
    _array_coupling_fn,
    _expm2,
    _magnus_grid,
    _magnus_propagator,
    compare_trajectories,
    full_field_propagate,
    rk4_propagate,
    rwa_propagate,
)
from oracles import (
    continued_rabi_loop,
    coupling_fn,
    cumulative_simpson_loop,
    dp5_full_propagate,
    dp5_rwa_propagate,
    expm_taylor,
    free_gaussian,
    hydro_run_loop,
    magnus_grid,
    magnus_trajectory_whole,
    momentum_loop,
    phase_scan_loop,
    polar_decompose_loop,
    quantum_potential_loop,
    residual_series_loop,
    scalar_envelope_fn,
    scalar_phase_fn,
)

PROPERTY = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# Agreement up to a few roundings of the largest term; TINY covers subnormals.
REL = 1e-14
TINY = 1e-300

times = st.floats(-40.0, 40.0)

envelopes = st.builds(
    EnvelopeSpec,
    shape=st.sampled_from(ENVELOPE_SHAPES),
    peak=st.floats(0.0, 10.0),
    center=st.floats(-5.0, 5.0),
    width=st.floats(0.05, 10.0),
    plateau=st.floats(0.0, 5.0),
)

phases = st.builds(
    PhaseSpec,
    shape=st.sampled_from(PHASE_SHAPES),
    phi0=st.floats(-10.0, 10.0),
    rate=st.floats(-5.0, 5.0),
    curvature=st.floats(-1.0, 1.0),
    depth=st.floats(-3.0, 3.0),
    mod_freq=st.floats(-5.0, 5.0),
    t_ref=st.floats(-5.0, 5.0),
)


@PROPERTY
@given(env=envelopes, t=times)
@example(env=EnvelopeSpec.sech(1.0, 0.0, 0.05), t=40.0)
def test_scalar_envelope_matches_array(env, t):
    scalar = scalar_envelope_fn(env)(t)
    for value in (env.value(np.array([t]))[0], env.value(t)):
        assert abs(scalar - value) <= REL * env.peak + TINY


@PROPERTY
@given(ph=phases, t=times)
def test_scalar_phase_matches_array(ph, t):
    scalar = scalar_phase_fn(ph)(t)
    dt = t - ph.t_ref
    scale = 1.0 + abs(ph.phi0) + abs(ph.rate * dt) + abs(ph.curvature * dt * dt) + abs(ph.depth)
    for value in (ph.value(np.array([t]))[0], ph.value(t)):
        assert abs(scalar - value) <= REL * scale + TINY


# A scalar time takes the 0-d path through the same registry, where numpy
# may call its scalar rather than its SIMD kernels, so the two may differ by
# roundings of the largest term.  That term is below peak * (4/width)^order
# for every envelope (order! bounds the sech coefficient sums, pi^order the
# cos^2 ramps, and the Hermite functions stay below both), and below the
# sum of the phase parameters' contributions for every phase.
orders = st.integers(0, MAX_DERIVATIVE_ORDER)


@PROPERTY
@given(env=envelopes, t=times, order=orders)
def test_envelope_derivative_scalar_matches_array(env, t, order):
    scalar = env.derivative(t, order)
    assert isinstance(scalar, float)
    array = env.derivative(np.array([t]), order)[0]
    assert abs(scalar - array) <= REL * env.peak * (4.0 / env.width) ** order + TINY
    # Entry k of a stack does not depend on its depth: derivative takes one entry.
    stack = env._derivatives(np.array([t]), MAX_DERIVATIVE_ORDER)
    assert stack[order].tobytes() == env.derivative(np.array([t]), order).tobytes()


@PROPERTY
@given(ph=phases, t=times, order=orders)
def test_phase_derivative_scalar_matches_array(ph, t, order):
    scalar = ph.derivative(t, order)
    assert isinstance(scalar, float)
    array = ph.derivative(np.array([t]), order)[0]
    dt = abs(t - ph.t_ref)
    scale = (
        1.0
        + abs(ph.phi0)
        + abs(ph.rate) * (1.0 + dt)
        + 2.0 * abs(ph.curvature) * (1.0 + dt) ** 2
        + abs(ph.depth) * max(1.0, abs(ph.mod_freq)) ** order
    )
    assert abs(scalar - array) <= REL * scale + TINY
    stack = ph._derivatives(np.array([t]), MAX_DERIVATIVE_ORDER)
    assert stack[order].tobytes() == ph.derivative(np.array([t]), order).tobytes()


RABI_CASES = {
    "gaussian": (
        TwoLevelSystem(0.0, 12.0, gamma_re=0.01),
        DrivingField(2.0, EnvelopeSpec.gaussian(1.0, 600.0, 600.0)),
        np.linspace(0.0, 1200.0, 2401),
    ),
    "sech": (
        TwoLevelSystem(0.0, 5.0, gamma_re=0.02, gamma_im=0.01),
        DrivingField(6.0, EnvelopeSpec.sech(0.8, 0.0, 3.0), PhaseSpec.linear_chirp(0.1)),
        np.linspace(-30.0, 30.0, 2001),
    ),
    "flat_top": (
        TwoLevelSystem(0.0, 5.0, gamma_re=0.05),
        DrivingField(4.5, EnvelopeSpec.flat_top_cos2(2.0, 0.0, 3.0, 4.0)),
        np.linspace(-10.0, 10.0, 2001),
    ),
    "strong_drive": (
        TwoLevelSystem(0.0, 5.1),
        DrivingField(5.0, EnvelopeSpec.gaussian(50.0, 0.0, 2.0)),
        np.linspace(-10.0, 10.0, 2001),
    ),
    # Omega crosses gamma'/2 once on the way up from the tail.
    "resonant_damped_rising": (
        TwoLevelSystem(0.0, 5.0, gamma_re=0.4),
        DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 2.0)),
        np.linspace(0.0, 10.0, 1001),
    ),
    # A whole pulse crosses gamma'/2 twice, through an exceptional point each
    # time; past the second one the weak-field branch is +dw~ again.
    "resonant_damped_pulse": (
        TwoLevelSystem(0.0, 5.0, gamma_re=0.4),
        DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 2.0)),
        np.linspace(-10.0, 10.0, 2001),
    ),
}


@pytest.mark.parametrize(
    "system,field,t", list(RABI_CASES.values()), ids=list(RABI_CASES)
)
def test_generalized_rabi_scalar_equals_array(system, field, t):
    array = generalized_rabi(system, field, t)
    scalar = np.array([generalized_rabi(system, field, float(x)) for x in t])
    assert isinstance(generalized_rabi(system, field, float(t[0])), complex)
    np.testing.assert_array_equal(scalar.view(np.uint64), array.view(np.uint64))


def assert_bits_equal(got, want):
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# The loop keeps its sign through the exact tie at each exceptional point, so
# past the second crossing of resonant_damped_pulse it follows -dw~.
LOOP_CASES = {k: v for k, v in RABI_CASES.items() if k != "resonant_damped_pulse"}


@pytest.mark.parametrize("system,field,t", list(LOOP_CASES.values()), ids=list(LOOP_CASES))
def test_continued_rabi_equals_loop_on_pulses(system, field, t):
    dw = complex_detuning(system, field)
    omega = rabi_frequency(system, field, t, 0)
    assert_bits_equal(_continued_rabi(dw, omega), continued_rabi_loop(dw, omega))


# Purely imaginary detunings are the resonant, damped case: w = sqrt(Omega^2 - g^2)
# is imaginary below the exceptional point Omega = g, zero at it and real above,
# where +-w are equally near to dw~ (a tie).  Drawing Omega from a few values
# that straddle g makes such points, and repeated values, common.  A real part
# of a few ulps (a carrier that misses resonance by rounding) makes near-ties.
detunings = st.one_of(
    st.just(0j),
    st.floats(-5.0, 5.0).map(complex),
    st.sampled_from([0.1j, 0.2j, 0.25j, 0.5j, -0.2j]),
    st.floats(0.0, 2.0).map(lambda g: complex(0.0, g)),
    st.builds(complex, st.floats(-1e-15, 1e-15), st.floats(-1.0, 1.0)),
    st.builds(complex, st.floats(-5.0, 5.0), st.floats(-2.0, 2.0)),
)
rabi_values = st.one_of(
    st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.4, 0.5, 1.0]), st.floats(0.0, 10.0)
)


# In drawn, rising or falling order: the smallest Omega, where the loop
# oracle anchors its walk, is anywhere, first or last.
def _ordered(omega, order):
    return np.array(omega if order == "drawn" else sorted(omega, reverse=order == "falling"))


rabi_grids = st.builds(
    _ordered,
    st.lists(rabi_values, min_size=1, max_size=40),
    st.sampled_from(["drawn", "rising", "falling"]),
)


def _off_resonance(dw):
    """Zero, or a real part far above rounding: no exceptional point and no near-tie."""
    return dw == 0.0 or abs(dw.real) >= 1e-6


# Off resonance the principal roots along a real Omega grid stay in one
# quadrant and never tie, so the loop keeps the anchor's weak-field sign
# throughout, which is the sign the pointwise rule takes at every point.  A
# nonzero real detuning below half an ulp of Omega is left out: the loop's
# moduli tie there and it keeps +w, where the pointwise rule takes the root
# that is nearer before rounding.
@PROPERTY
@given(dw=detunings.filter(_off_resonance), omega=rabi_grids)
@example(dw=0j, omega=np.array([0.0, 1.0, 0.0, 1.0]))
def test_continued_rabi_equals_loop(dw, omega):
    assert_bits_equal(_continued_rabi(dw, omega), continued_rabi_loop(dw, omega))


_PULSE_SYSTEM, _PULSE_FIELD, _PULSE_T = RABI_CASES["resonant_damped_pulse"]


@PROPERTY
@given(dw=detunings, omega=rabi_grids)
@example(dw=0.2j, omega=np.array([0.4, 0.1, 0.4, 0.1, 0.4, 0.2, 0.4]))
@example(dw=0.2j, omega=np.array([0.3]))
@example(
    dw=complex(-9.407405756468081e-18, 0.38140899829397884),
    omega=np.array([0.0, 0.28220528812407675, 0.4529197243377446]),
)
@example(
    dw=complex_detuning(_PULSE_SYSTEM, _PULSE_FIELD),
    omega=rabi_frequency(_PULSE_SYSTEM, _PULSE_FIELD, _PULSE_T, 0),
)
def test_continued_rabi_is_pointwise_weak_field(dw, omega):
    w = _continued_rabi(dw, omega)
    one_point = np.concatenate([_continued_rabi(dw, omega[i : i + 1]) for i in range(omega.size)])
    assert_bits_equal(w, one_point)
    nearer, farther = np.abs(w - dw), np.abs(w + dw)
    told_apart = np.abs(nearer - farther) > 1e-12 * (np.abs(w) + abs(dw))
    assert np.all(nearer[told_apart] < farther[told_apart])


@PROPERTY
@given(
    steps=st.lists(st.floats(1e-3, 2.0), min_size=2, max_size=40),
    t0=st.floats(-50.0, 50.0),
    seed=st.integers(0, 2**32 - 1),
    is_complex=st.booleans(),
)
def test_cumulative_simpson_equals_loop(steps, t0, seed, is_complex):
    t = t0 + np.cumsum([0.0, *steps])
    rng = np.random.default_rng(seed)
    f = rng.normal(size=t.size) * 10.0 ** rng.uniform(-3.0, 3.0)
    if is_complex:
        f = f + 1j * rng.normal(size=t.size)
    assert_bits_equal(cumulative_simpson(f, t), cumulative_simpson_loop(f, t))



# Propagation at gamma = 0, on random drives near resonance (omega_e = 5,
# peak Rabi frequency <= 2).  Bounds fixed from the integrator settings before
# any run: the adaptive DP5 engines keep the global error over this 8-unit
# window within 1e3 * rel_tol; classic RK4 with step h on a generator of
# norm <= lam errs by about T * lam**5 * h**4 / 120 (T/h steps, each off by
# the leading neglected Taylor term).  lam bounds the fastest rate the
# amplitudes see: 4 in the rotating frame (Rabi frequency, detuning and chirp
# rate), 8 in the bare frame (level and carrier frequencies plus coupling).
DP5 = IntegratorConfig()
DP5_GLOBAL = 1e3 * DP5.rel_tol
WINDOW = np.linspace(-4.0, 4.0, 41)
RK4_RUNS = {"rwa": (dp5_rwa_propagate, 20, 4.0), "full": (dp5_full_propagate, 80, 8.0)}
PROPAGATION = settings(PROPERTY, max_examples=20)

chirps = st.builds(
    PhaseSpec,
    shape=st.sampled_from(PHASE_SHAPES),
    phi0=st.floats(-math.pi, math.pi),
    rate=st.floats(-1.0, 1.0),
    curvature=st.floats(-0.1, 0.1),
    depth=st.floats(-1.0, 1.0),
    mod_freq=st.floats(0.0, 1.0),
    t_ref=st.floats(-1.0, 1.0),
)
drives = st.builds(
    DrivingField,
    carrier=st.floats(4.5, 5.5),
    envelope=st.builds(
        EnvelopeSpec,
        shape=st.sampled_from(ENVELOPE_SHAPES),
        peak=st.floats(0.1, 2.0),
        center=st.floats(-1.0, 1.0),
        width=st.floats(0.5, 2.0),
        plateau=st.floats(0.0, 2.0),
    ),
    phase=chirps,
)
states = st.builds(
    lambda theta, chi: TwoLevelState(math.cos(theta), math.sin(theta) * complex(math.cos(chi), math.sin(chi))),
    st.floats(0.0, math.pi),
    st.floats(-math.pi, math.pi),
)
UNDAMPED = TwoLevelSystem(0.0, 5.0)


# The closed-form layer runs in blocks of numerics._BLOCK samples.  With the
# block lowered to 8 or 64, every grid-wide call must give its one-block
# result bit for bit, or raise the same error, on random drives (damped and
# undamped) and grids from t = 0, uniform or not.  The sample counts cover
# odd and even ones and k blocks plus -2 to 2 samples; about one drive in
# ten falls below the floor somewhere on the grid and raises.
def _closed_form_outputs(system, field, phases, t, f):
    """Output arrays of every grid-wide closed-form call, or the error it raised."""

    def series(branch):
        s = dressed_phases(system, field, phases, branch, t)
        return s.phi_G_r, s.phi_G_v, s.phi_E_r, s.phi_E_v

    def state(branch):
        s = assemble_bare_state(system, field, phases, branch, t)
        return s.c_g, s.c_e

    def report():
        r = adiabatic_report(system, field, t, MAX_ADIABATIC_ORDER)
        return (np.array([x for e in r.orders.values() for x in (*e.ratios.values(), e.margin)]),)

    def integrals():
        return cumulative_simpson(f, t), cumulative_simpson(f.real, t)

    outputs = []
    calls = [partial(series, b) for b in BRANCHES] + [partial(state, b) for b in BRANCHES]
    for call in [*calls, report, integrals]:
        try:
            outputs.append(call())
        except Exception as exc:
            outputs.append((type(exc), str(exc)))
    return outputs


block_counts = st.one_of(
    st.integers(3, 300),
    st.sampled_from(sorted({k * b + d for b in (8, 64) for k in (1, 2, 3) for d in (-2, -1, 0, 1, 2)})),
)


@st.composite
def closed_form_grids(draw):
    n = draw(block_counts)
    span = draw(st.floats(0.05, 2.0))
    if draw(st.booleans()):
        return np.linspace(0.0, span, n)
    steps = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.1, 1.0, n - 1)
    return np.concatenate(([0.0], np.cumsum(steps * (span / steps.sum()))))


@PROPERTY
@given(
    field=drives,
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    phi=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
    t=closed_form_grids(),
    seed=st.integers(0, 2**32 - 1),
)
def test_closed_form_blocks_equal_one_block(field, gamma, phi, t, seed):
    system = TwoLevelSystem(0.0, 5.0, gamma_re=gamma)
    rng = np.random.default_rng(seed)
    f = rng.normal(size=t.size) + 1j * rng.normal(size=t.size)
    args = (system, field, InitialPhases(*phi), t, f)
    whole = _closed_form_outputs(*args)
    for block in (8, 64):
        with mock.patch.object(numerics, "_BLOCK", block):
            blocked = _closed_form_outputs(*args)
        for got, want in zip(blocked, whole):
            if isinstance(want[0], type):
                assert got == want
            else:
                assert len(got) == len(want)
                for a, b in zip(got, want):
                    assert_bits_equal(a, b)


@pytest.mark.parametrize("engine", list(RK4_RUNS))
@PROPAGATION
@given(field=drives, initial=states)
def test_norm_conserved_without_damping(engine, field, initial):
    traj = RK4_RUNS[engine][0](UNDAMPED, field, initial, WINDOW, DP5)
    assert np.max(np.abs(traj.norm - 1.0)) <= DP5_GLOBAL


@pytest.mark.parametrize("engine", list(RK4_RUNS))
@PROPAGATION
@given(field=drives, initial=states)
def test_dp5_agrees_with_rk4(engine, field, initial):
    propagate, substeps, lam = RK4_RUNS[engine]
    h = (WINDOW[1] - WINDOW[0]) / substeps
    bound = DP5_GLOBAL + (WINDOW[-1] - WINDOW[0]) * lam**5 * h**4 / 120.0
    dp5 = propagate(UNDAMPED, field, initial, WINDOW, DP5)
    rk4 = rk4_propagate(UNDAMPED, field, initial, WINDOW, engine=engine, substeps=substeps)
    assert compare_trajectories(dp5, rk4).max_amplitude_error <= bound


# Common-level-shift covariance: shifting both levels by D multiplies the
# state by the unobservable global phase e^{-i D (t - t0)} (t0 = WINDOW[0],
# where both runs start from the same state), in every engine and stepper.
# Bound fixed before any run: every engine integrates the frame rotating at
# w_g, where the shift enters only through the rounding of
# (w_e + D) - (w_g + D), a few ulp of |D| + 5 <= 25 (~1e-14) acting over 8
# time units, and through the frame factors e^{-+i D t}, each rounded to a few
# ulp of |D t| <= 160 (~1e-13).  1e-12 leaves room for the steppers' own
# roundings, over a few hundred steps, to differ between the two runs.
COVARIANCE = 1e-12


@pytest.mark.parametrize("stepper", ["dp5", "rk4"])
@pytest.mark.parametrize("engine", list(RK4_RUNS))
@PROPAGATION
@given(
    field=drives,
    initial=states,
    gamma=st.floats(0.0, 0.2),
    shift=st.floats(-20.0, 20.0),
)
def test_common_level_shift_is_a_global_phase(engine, stepper, field, initial, gamma, shift):
    def run(omega_g):
        system = TwoLevelSystem(omega_g, 5.0 + omega_g, gamma_re=gamma)
        if stepper == "dp5":
            return RK4_RUNS[engine][0](system, field, initial, WINDOW, DP5)
        substeps = RK4_RUNS[engine][1]
        return rk4_propagate(system, field, initial, WINDOW, engine=engine, substeps=substeps)

    base, shifted = run(0.0), run(shift)
    phase = np.exp(-1j * shift * (WINDOW - WINDOW[0]))
    assert np.max(np.abs(shifted.c_g - phase * base.c_g)) <= COVARIANCE
    assert np.max(np.abs(shifted.c_e - phase * base.c_e)) <= COVARIANCE


# Fringe scans on random pulse pairs near resonance, damped up to
# gamma' = 0.05.  Bound fixed from the integrator settings before any run:
# each DP5 propagation, and each Magnus segment, errs by at most
# E = 1e3 * rel_tol in amplitude (as above; the Magnus grid is doubled until
# the propagator moves by less than rel_tol, and a fourth-order step leaves
# about a fifteenth of that move).  The composed amplitude
# U_eg v_g + e^{i delta} U_ee v_e takes four such errors, each through a
# factor of modulus <= 1 (damping only shrinks), the loop's one, and two
# amplitudes of modulus <= 1 differing by d have populations differing by
# at most 2 d: |P_composed - P_loop| <= 2 * 5 E.  The summed scan of
# overlapping pulses, and the full-field scan of any pair, takes one error,
# and the loop one.  The neglected pulse tails (< ~1e-11 of the peak) lie
# far below that.
SCAN = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)
SCAN_BOUND = 2.0 * 5.0 * 1e3 * SCAN.rel_tol
SCAN_DELTAS = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
pulses = st.builds(
    DrivingField,
    carrier=st.floats(4.5, 5.5),
    envelope=st.builds(
        EnvelopeSpec,
        shape=st.sampled_from([s for s in ENVELOPE_SHAPES if s != "constant"]),
        peak=st.floats(0.05, 1.0),
        center=st.floats(-1.0, 1.0),
        width=st.floats(0.5, 2.0),
        plateau=st.floats(0.0, 2.0),
    ),
    phase=chirps,
)
# From exactly the composition threshold, delay = 2 * support half-width, up.
# The scan replaces the pair's own relative phase, so that is drawn too.
separated_pairs = st.builds(
    lambda base, extra, rel_phase: PulsePairConfig(
        base, 2.0 * base.envelope.support_halfwidth() + extra, rel_phase
    ),
    pulses,
    st.one_of(st.just(0.0), st.floats(0.0, 100.0)),
    st.floats(0.0, 2.0 * math.pi),
)
# Below the threshold, from merged (delay 0) to just overlapping.
overlapping_pairs = st.builds(
    lambda base, fraction, rel_phase: PulsePairConfig(
        base,
        min(fraction, 1.0 - 2.0**-20) * 2.0 * base.envelope.support_halfwidth(),
        rel_phase,
    ),
    pulses,
    st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    st.floats(0.0, 2.0 * math.pi),
)
damped = st.builds(lambda gamma: TwoLevelSystem(0.0, 5.0, gamma_re=gamma), st.floats(0.0, 0.05))
STRONG = "ignore:pulse_pair_population. single-pulse excitation"
OVERLAP = "ignore:PulsePairConfig. pulses overlap"


# The premise of the summed scan: pulse 2 with phi0 lowered by pi/2 is its
# quadrature on either engine, i K on the rotating-wave coupling and
# mu E0(t) sin(W t + phi(t)) on the real field.  The shift moves the phase
# by pi/2 up to a few roundings of the terms that make up W t + phi(t), and
# cos and sin pass an argument error through at most unit slope, so each
# drive agrees within a few eps (|W t| + |phi(t)| + pi) max|mu E0|.
@PROPERTY
@given(field=pulses, mu=st.floats(0.1, 10.0), t=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20))
def test_quadrature_drive_is_the_pulse_turned_by_a_quarter(field, mu, t):
    system = TwoLevelSystem(0.0, 5.0, mu=mu)
    t = np.array(t)
    quadrature = replace(field, phase=field.phase.shifted(0.0, extra_phi0=-0.5 * math.pi))
    k, carrier = propagator._drive(system, field, "rwa")
    k_quadrature, carrier_quadrature = propagator._drive(system, quadrature, "rwa")
    real_quadrature, frame = propagator._drive(system, quadrature, "full")
    assert (carrier_quadrature, frame) == (carrier, 0.0)
    amplitude, wt, phi = mu * field.envelope.value(t), field.carrier * t, field.phase.value(t)
    bound = 4.0 * np.finfo(float).eps * (np.abs(wt) + np.abs(phi) + math.pi) * np.max(amplitude) + TINY
    assert np.all(np.abs(k_quadrature(t) - 1j * k(t)) <= bound)
    assert np.all(np.abs(real_quadrature(t) - amplitude * np.sin(wt + phi)) <= bound)


def magnus_scan(system, pair, deltas, engine="rwa"):
    """phase_scan at the scans' tolerances."""
    return phase_scan(system, pair, deltas, SCAN, engine=engine)


@pytest.mark.filterwarnings(STRONG)
@PROPAGATION
@given(system=damped, pair=separated_pairs)
def test_composed_scan_agrees_with_loop(system, pair):
    composed = magnus_scan(system, pair, SCAN_DELTAS)
    loop = phase_scan_loop(system, pair, SCAN_DELTAS, SCAN)
    assert np.max(np.abs(composed.populations - loop.populations)) <= SCAN_BOUND


@pytest.mark.filterwarnings(STRONG, OVERLAP)
@PROPAGATION
@given(system=damped, pair=overlapping_pairs)
def test_summed_scan_agrees_with_loop(system, pair):
    summed = magnus_scan(system, pair, SCAN_DELTAS)
    loop = phase_scan_loop(system, pair, SCAN_DELTAS, SCAN)
    assert np.max(np.abs(summed.populations - loop.populations)) <= SCAN_BOUND


# The full field resolves the carrier, so its loop costs far more DP5 steps
# per delta than the rotating-wave one: fewer examples and deltas.
FULL_FIELD = settings(PROPAGATION, max_examples=10)


@pytest.mark.filterwarnings(STRONG, OVERLAP)
@pytest.mark.parametrize("pairs", [separated_pairs, overlapping_pairs], ids=["separated", "overlapping"])
@FULL_FIELD
@given(system=damped, data=st.data())
def test_full_field_scan_agrees_with_loop(pairs, system, data):
    pair = data.draw(pairs)
    deltas = SCAN_DELTAS[::2]
    scan = magnus_scan(system, pair, deltas, engine="full")
    loop = phase_scan_loop(system, pair, deltas, SCAN, engine="full")
    assert np.max(np.abs(scan.populations - loop.populations)) <= SCAN_BOUND


@pytest.mark.filterwarnings(STRONG)
@PROPAGATION
@given(system=damped, pair=separated_pairs)
def test_composed_fringe_is_one_cosine(system, pair):
    """The phase enters only through D(delta), so P_e(delta) = A + B cos(delta + delta0)
    up to rounding: the fit residual is a few ulps of the largest population."""
    record = magnus_scan(system, pair, np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False))
    a, b, _, residual = fit_fringe(record)
    assert residual <= 100.0 * np.finfo(float).eps * (a + b)


BASE_PULSE = DrivingField(
    5.2, EnvelopeSpec.gaussian(0.3, 0.0, 0.5), PhaseSpec.linear_chirp(0.4, 0.2)
)
THRESHOLD = 2.0 * BASE_PULSE.envelope.support_halfwidth()


@pytest.mark.parametrize(
    "delay,engine",
    [(np.nextafter(THRESHOLD, 0.0), "rwa"), (0.0, "rwa"), (THRESHOLD, "full")],
    ids=["just_overlapping", "merged", "full_field"],
)
def test_other_scans_are_the_loop(delay, engine):
    """Overlapping and merged rotating-wave scans, and a full-field scan at
    the composition threshold, agree with the loop within SCAN_BOUND."""
    system = TwoLevelSystem(0.0, 5.0, gamma_re=0.02)
    pair = PulsePairConfig(BASE_PULSE, delay, 0.0)
    deltas = np.linspace(0.0, 2.0 * np.pi, 4, endpoint=False)
    loop = phase_scan_loop(system, pair, deltas, SCAN, engine=engine)
    scan = magnus_scan(system, pair, deltas, engine)
    assert np.max(np.abs(scan.populations - loop.populations)) <= SCAN_BOUND


# The paper's observable.  Two weak, separated pulses give P_e(delta) =
# |a + e^{i delta} b|^2 to first order in the pulse area, with |b| / |a| =
# r = exp(-gamma' delay / 2), the coherence decayed between the pulses, and
# arg(b / a) = -Re(dw~) delay: visibility 2r / (1 + r^2), and the fringe's
# maximum at delta* = Re(dw~) delay mod 2 pi.  Both laws hold up to terms of
# order area^2; a scan of n deltas also moves the visibility by at most
# 1 - cos(pi / n) and delta* by at most pi / n.  The full field is read
# through the fringe fit of 8 deltas, which no scan grid offsets; its steps
# resolve the carrier over the whole window, so it is drawn as narrow
# gaussians at carrier 10, where a wide or sech pair would take seconds.
# Overlapping pairs have no such law: there damping only lowers the
# visibility.
FRINGE_DELTAS = np.linspace(0.0, 2.0 * np.pi, 256, endpoint=False)
WEAK_PAIR = {
    "shape": st.sampled_from(("gaussian", "sech")),
    "width": st.floats(0.5, 3.0),
    "area": st.floats(0.01, 0.2),
    "detuning": st.floats(-3.0, 3.0),
    "separation": st.floats(2.0, 4.0),
    "decay": st.floats(0.0, 2.0),
}


def _weak_pair(shape, width, area, detuning, separation, decay, carrier=5.0):
    """A pair of pulses of ``area`` whose delay is ``separation`` support half-widths, with gamma' delay = ``decay``."""
    envelope = EnvelopeSpec(shape, area / EnvelopeSpec(shape, 1.0, 0.0, width).area(), 0.0, width)
    delay = separation * envelope.support_halfwidth()
    system = TwoLevelSystem(0.0, carrier + detuning, gamma_re=decay / delay)
    return system, PulsePairConfig(DrivingField(carrier, envelope), delay, 0.0)


def _fringe_law(system, pair):
    """The law's visibility and delta*."""
    r = math.exp(-0.5 * system.gamma_re * pair.delay)
    return 2.0 * r / (1.0 + r * r), complex_detuning(system, pair.base).real * pair.delay


@settings(PROPERTY, max_examples=30)
@given(drive=st.fixed_dictionaries(WEAK_PAIR))
def test_separated_weak_fringe_follows_the_decay_law(drive):
    system, pair = _weak_pair(**drive)
    record = phase_scan(system, pair, FRINGE_DELTAS)
    law_visibility, law_star = _fringe_law(system, pair)
    n, order2 = FRINGE_DELTAS.size, drive["area"] ** 2
    assert abs(record.visibility - law_visibility) <= 1.0 - math.cos(math.pi / n) + 0.5 * order2
    assert abs(math.remainder(record.delta_star - law_star, 2.0 * math.pi)) <= math.pi / n + 0.5 * order2


@settings(PROPERTY, max_examples=8)
@given(drive=st.fixed_dictionaries({
    **WEAK_PAIR,
    "shape": st.just("gaussian"), "width": st.floats(0.5, 1.0), "separation": st.floats(2.0, 3.0),
}))
def test_separated_weak_full_field_fringe_follows_the_decay_law(drive):
    system, pair = _weak_pair(**drive, carrier=10.0)
    record = phase_scan(system, pair, SCAN_DELTAS, engine="full")
    a, b, delta0, _ = fit_fringe(record)
    law_visibility, law_star = _fringe_law(system, pair)
    order2 = drive["area"] ** 2
    assert abs(b / a - law_visibility) <= 0.5 * order2
    assert abs(math.remainder(-delta0 - law_star, 2.0 * math.pi)) <= 0.5 * order2


@pytest.mark.filterwarnings(OVERLAP)
@settings(PROPERTY, max_examples=12)
@given(drive=st.fixed_dictionaries({
    **WEAK_PAIR,
    "separation": st.floats(0.1, 2.0, exclude_max=True), "decay": st.floats(0.2, 2.0),
}))
def test_damping_lowers_the_visibility_of_overlapping_pairs(drive):
    system, pair = _weak_pair(**drive)
    undamped, _ = _weak_pair(**{**drive, "decay": 0.0})
    deltas = FRINGE_DELTAS[::4]
    assert phase_scan(system, pair, deltas).visibility < phase_scan(undamped, pair, deltas).visibility


# The Magnus leg of the three-way check.  The closed-form 2x2 exponential
# against Taylor with scaling and squaring: both round each entry to within
# a few ulps of e^{||M||} (||M|| the largest row sum, which bounds every
# entry of exp(M)).  Matrices near a multiple of the identity have small
# |s|, on both sides of the switch to the series.  The exceptional point of
# the resonant, damped generator h [[0, i Omega/2], [i Omega/2, -gamma'/2]]
# at Omega = gamma'/2 has s^2 = (h gamma'/4)^2 - (h Omega/2)^2 = 0 with a
# nonzero, nilpotent traceless part.
def _matrix(entries):
    return np.array([complex(re, im) for re, im in entries]).reshape(2, 2)


entries = st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)), min_size=4, max_size=4)
near_identity = st.builds(
    lambda scalar, entries, eps: complex(*scalar) * np.eye(2) + eps * _matrix(entries),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    entries,
    st.sampled_from([0.0, 1e-12, 1e-6, 1e-3, 0.02, 0.0499, 0.05, 0.1]),
)
GAMMA_EP, H_EP = 0.4, 0.7
EXCEPTIONAL = H_EP * np.array(
    [[0.0, 0.5j * 0.5 * GAMMA_EP], [0.5j * 0.5 * GAMMA_EP, -0.5 * GAMMA_EP]]
)


@PROPERTY
@given(m=st.one_of(entries.map(_matrix), near_identity))
@example(m=np.zeros((2, 2), dtype=complex))
@example(m=np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
@example(m=np.array([[1.5 - 2.0j, -0.3j], [0.0, 1.5 - 2.0j]]))
@example(m=EXCEPTIONAL)
def test_closed_form_exponential_matches_taylor(m):
    got = _expm2(m.reshape(2, 2, 1))[..., 0]
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    assert np.max(np.abs(got - expm_taylor(m))) <= 64.0 * np.finfo(float).eps * math.exp(norm)


# A stack of exponentials is its matrices' exponentials one by one, bit for
# bit, whichever branch each matrix takes: the series and the closed form run
# only on the matrices in their range, and every operation is elementwise.
# tau I + B with B = [[d, b], [(s^2 - d^2)/b, -d]] has B^2 = s^2 I, so |s|
# below 0.1 is the series range.  The examples sit 1e-9 below and above the
# switch: with d = 0 and b = 1 the s^2 of ``_expm2`` is exactly s * s.
def _with_root(tau, d, b, s):
    return np.array([[tau + d, b], [(s * s - d * d) / b, tau - d]])


def _roots(moduli):
    return st.builds(cmath.rect, moduli, st.floats(-math.pi, math.pi))


def _matrices(moduli):
    return st.builds(
        _with_root,
        tau=st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        d=st.builds(complex, st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        b=_roots(st.floats(0.5, 2.0)),
        s=_roots(moduli),
    )


series_range, closed_range = _matrices(st.floats(0.0, 0.09)), _matrices(st.floats(0.11, 3.0))
stacks = st.one_of(
    st.lists(series_range, min_size=1, max_size=12),
    st.lists(closed_range, min_size=1, max_size=12),
    st.lists(st.one_of(series_range, closed_range), min_size=2, max_size=12),
)
EDGE = [_with_root(0.5 - 1.0j, 0.0, 1.0, cmath.rect(0.1 * (1.0 + sign * 1e-9), 1.0)) for sign in (-1, 1)]


@PROPERTY
@given(stack=stacks)
@example(stack=EDGE)
@example(stack=EDGE[:1])
@example(stack=EDGE[1:])
def test_stacked_exponential_is_each_alone(stack):
    m = np.stack(stack, axis=-1)
    whole = _expm2(m)
    assert whole.shape == m.shape
    alone = np.concatenate([_expm2(m[..., i : i + 1]) for i in range(len(stack))], axis=-1)
    assert_bits_equal(whole, alone)


# The Magnus segment propagator applied to random states, on the random
# drives above damped up to gamma' = 0.2, against DP5 and RK4.  Bounds fixed
# from rel_tol before any run: the segment errs by at most DP5_GLOBAL in
# amplitude, like DP5 (see the scan bound below), and RK4 by its truncation
# bound above (lam = 4 still bounds the rotating-frame rates with the decay
# rate gamma'/2 <= 0.1 added).  The segment grid starts from the scans' step
# cap of half the envelope width.
@pytest.mark.parametrize("reference", ["dp5", "rk4"])
@PROPAGATION
@given(field=drives, initial=states, gamma=st.floats(0.0, 0.2))
def test_magnus_segment_agrees_with_dp5_and_rk4(reference, field, initial, gamma):
    system = TwoLevelSystem(0.0, 5.0, gamma_re=gamma)
    t0, t1 = WINDOW[0], WINDOW[-1]
    cfg = replace(DP5, max_step=0.5 * field.envelope.width)
    coupling = _array_coupling_fn(system, field)
    u00, u01, u10, u11 = _magnus_propagator(
        lambda t: (coupling(t),), np.ones((1, 1)), complex_detuning(system, field), t0, t1, cfg
    )[:, 0]
    # omega_g = 0: the rotating frame turns only c_e, at the carrier.
    a_g, a_e = initial.c_g, initial.c_e * np.exp(1j * field.carrier * t0)
    c_g = u00 * a_g + u01 * a_e
    c_e = (u10 * a_g + u11 * a_e) * np.exp(-1j * field.carrier * t1)
    if reference == "dp5":
        final = dp5_rwa_propagate(system, field, initial, WINDOW, DP5)[-1]
        bound = 2.0 * DP5_GLOBAL
    else:
        _, substeps, lam = RK4_RUNS["rwa"]
        h = (t1 - t0) / (WINDOW.size - 1) / substeps
        final = rk4_propagate(system, field, initial, WINDOW, engine="rwa", substeps=substeps)[-1]
        bound = DP5_GLOBAL + (t1 - t0) * lam**5 * h**4 / 120.0
    assert max(abs(c_g - final.c_g), abs(c_e - final.c_e)) <= bound


# Magnus trajectories (``rwa_propagate``) against DP5 on random Gaussian and
# sech pulses damped up to gamma' = 0.2, from random states, on random
# non-uniform grids over WINDOW's span (the step differs per interval).
# Bound fixed from rel_tol before any run: each engine errs by at most
# DP5_GLOBAL in amplitude (the Magnus doubling stops once the sampled states
# move by at most rel_tol * max|a|, and a fourth-order step leaves about a
# fifteenth of that move), so the two differ by at most twice that.
uneven_grids = st.lists(st.floats(WINDOW[0], WINDOW[-1]), max_size=30).map(
    lambda points: np.unique(np.concatenate(([WINDOW[0], WINDOW[-1]], points)))
)
smooth_pulses = st.builds(
    DrivingField,
    carrier=st.floats(4.5, 5.5),
    envelope=st.builds(
        EnvelopeSpec,
        shape=st.sampled_from(["gaussian", "sech"]),
        peak=st.floats(0.1, 2.0),
        center=st.floats(-1.0, 1.0),
        width=st.floats(0.5, 2.0),
    ),
    phase=chirps,
)


# The array coupling of the Magnus steps against the scalar coupling of the
# DP5 reference (the form the traced benchmark replays ``rwa_propagate``
# through) on Gaussian and sech pulses with constant and chirped phases.
# Envelope and phase come from the array registries and from the scalar
# closures, which agree to roundings of their largest terms (see above), so
# K agrees to a few ulps of |K| per radian of phase.
@PROPERTY
@given(field=smooth_pulses, t=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=20))
def test_array_coupling_matches_scalar(field, t):
    system = TwoLevelSystem(0.0, 5.0)
    t = np.array(t)
    got = _array_coupling_fn(system, field)(t)
    want = np.array([coupling_fn(system, field)(x) for x in t.tolist()])
    phase = np.abs(field.phase.value(t))
    assert np.all(np.abs(got - want) <= 4.0 * np.finfo(float).eps * (1.0 + phase) * np.abs(want) + TINY)


@PROPAGATION
@given(field=smooth_pulses, initial=states, gamma=st.floats(0.0, 0.2), t=uneven_grids)
def test_magnus_trajectory_agrees_with_dp5(field, initial, gamma, t):
    system = TwoLevelSystem(0.0, 5.0, gamma_re=gamma)
    magnus = rwa_propagate(system, field, initial, t, DP5)
    dp5 = dp5_rwa_propagate(system, field, initial, t, DP5)
    assert compare_trajectories(magnus, dp5).max_amplitude_error <= 2.0 * DP5_GLOBAL


# The trajectory's doubling settles a failing round on its first chunk of
# intervals; it returns, bit for bit, the states of the ladder that runs
# every round on the whole grid (``oracles.magnus_trajectory_whole``).
# Drawn: both engines, undamped and damped drives, random tolerances, step
# caps that make the first k odd, a zero initial state, uniform grids over
# WINDOW and chunks of 4 and 16 steps besides the library's, so that the
# first chunk is often one interval and far from the whole grid.
ladder_configs = st.builds(
    IntegratorConfig,
    rel_tol=st.floats(-12.0, -6.0).map(lambda x: 10.0**x),
    abs_tol=st.floats(-15.0, -9.0).map(lambda x: 10.0**x),
    max_step=st.one_of(st.just(math.inf), st.floats(0.03, 0.5)),
)
ladder_starts = st.one_of(states, st.just(TwoLevelState(0.0, 0.0)))


def _ladder_inputs(field, engine, gamma, initial, samples):
    system = TwoLevelSystem(0.0, 5.0, gamma_re=gamma)
    coupling, carrier = propagator._drive(system, field, engine)
    t = np.linspace(WINDOW[0], WINDOW[-1], samples)
    return coupling, propagator._complex_detuning(system, carrier), t, (complex(initial.c_g), complex(initial.c_e))


LADDER = settings(PROPERTY, max_examples=60)


@LADDER
@given(
    field=drives,
    engine=st.sampled_from(["rwa", "full"]),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    initial=ladder_starts,
    samples=st.integers(2, 120),
    cfg=ladder_configs,
    chunk=st.sampled_from([4, 16, propagator._MAGNUS_CHUNK]),
)
@example(  # max_step 0.07 on intervals of 0.2: the first k is 3
    field=DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 1.0)), engine="rwa", gamma=0.0,
    initial=TwoLevelState(1.0, 0.0), samples=41, cfg=IntegratorConfig(max_step=0.07), chunk=16,
)
@example(  # the zero state: every round's states are 0
    field=DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 1.0)), engine="full", gamma=0.0,
    initial=TwoLevelState(0.0, 0.0), samples=41, cfg=IntegratorConfig(), chunk=4,
)
def test_magnus_trajectory_is_the_whole_grid_ladder(field, engine, gamma, initial, samples, cfg, chunk):
    inputs = _ladder_inputs(field, engine, gamma, initial, samples)
    with mock.patch.object(propagator, "_MAGNUS_CHUNK", chunk):
        got = propagator._magnus_trajectory(*inputs, cfg)
        want = magnus_trajectory_whole(*inputs, cfg)
    assert_bits_equal(np.array(got), np.array(want))


# Without damping no state of any round of the ladder has a norm above
# |y0| (1 + delta), delta = 32 n k eps, so no entry passes that bound either:
# the bound that settles a round on its first chunk.
@LADDER
@given(field=drives, engine=st.sampled_from(["rwa", "full"]), initial=ladder_starts,
       samples=st.integers(2, 120), cfg=ladder_configs)
@example(  # |g> under a strong full field at a tight tolerance: k reaches 256
    field=DrivingField(5.0, EnvelopeSpec.gaussian(2.0, 0.0, 1.0)), engine="full",
    initial=TwoLevelState(1.0, 0.0), samples=120, cfg=IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15),
)
def test_undamped_ladder_rounds_stay_within_the_initial_norm(field, engine, initial, samples, cfg):
    coupling, detuning, t, y0 = _ladder_inputs(field, engine, 0.0, initial, samples)
    rounds = []
    magnus_trajectory_whole(coupling, detuning, t, y0, cfg, rounds)
    norm = math.hypot(abs(y0[0]), abs(y0[1]))
    for k, x in rounds:
        bound = norm * (1.0 + 32.0 * (t.size - 1) * k * np.finfo(float).eps)
        assert np.max(np.hypot(np.abs(x[0]), np.abs(x[1]))) <= bound


# The propagator of each interval of ``_magnus_grid`` is the one-interval
# grid (a segment) over that interval at the same k, bit for bit: intervals
# are independent until a trajectory chains them, however the grid falls
# into chunks and the drives into batches.  The drives are pulse pairs of
# random relative phase; 24 drives at k = 64 take more than one batch, and
# with the chunk and stack sizes lowered to 16, k = 22 and 64 take the
# per-interval blocks of a long interval.
magnus_grids = st.lists(st.floats(-6.0, 6.0), min_size=2, max_size=40, unique=True).map(
    lambda points: np.array(sorted(points))
)


def _assert_intervals_are_segments(field, gamma, t, m, k, phases):
    system = TwoLevelSystem(0.0, 5.0, gamma_re=gamma)
    coupling = _array_coupling_fn(system, field)
    detuning = complex_detuning(system, field)
    weights = np.stack((np.ones(m), np.exp(-1j * np.resize(phases, m))))

    def terms(x):
        return coupling(x), coupling(x - 2.0)

    whole = _magnus_grid(terms, weights, detuning, t, k)
    assert whole.shape == (4, m, t.size - 1)
    for i in range(t.size - 1):
        segment = _magnus_grid(terms, weights, detuning, t[i : i + 2], k)[..., 0]
        assert_bits_equal(np.ascontiguousarray(whole[..., i]), segment)


magnus_phases = st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=24)


@PROPERTY
@given(
    field=smooth_pulses,
    gamma=st.floats(0.0, 0.2),
    t=magnus_grids,
    m=st.sampled_from([1, 3, 24]),
    k=st.sampled_from([1, 3, 22, 64]),
    phases=magnus_phases,
)
def test_magnus_grid_interval_is_its_segment(field, gamma, t, m, k, phases):
    _assert_intervals_are_segments(field, gamma, t, m, k, phases)


@PROPAGATION
@given(
    field=smooth_pulses,
    gamma=st.floats(0.0, 0.2),
    t=magnus_grids,
    m=st.sampled_from([1, 3]),
    k=st.sampled_from([22, 64]),
    phases=magnus_phases,
)
def test_magnus_grid_interval_is_its_segment_in_small_chunks(field, gamma, t, m, k, phases):
    with mock.patch.multiple(propagator, _MAGNUS_CHUNK=16, _MAGNUS_STACK=16):
        _assert_intervals_are_segments(field, gamma, t, m, k, phases)


# The stacked Magnus kernel of ``_magnus_grid`` (one (2, 2, ...) array per
# stack, a three-call product per round of the pairwise tree, per-interval
# step coefficients, one unit-weight term used as K) against its tuple form
# (``oracles.magnus_grid``), bit for bit, signed zeros included.  Drawn: both
# engines, undamped and damped, one unit-weight drive (a trajectory's) or
# one or three drives weighted (1, cos d, -sin d) over three terms (a summed
# scan's), odd and even k, grids of one interval (a segment) or more, a zero
# field, and chunk and stack sizes lowered to 16 so that k > _MAGNUS_CHUNK
# splits an interval into blocks and the drives into batches.  One step of
# one drive over one interval makes every array of size 1, where numpy
# multiplies in another loop.
ZERO_FIELD = DrivingField(5.0, EnvelopeSpec.constant(0.0), PhaseSpec.constant(-2.0))
STACK = propagator._MAGNUS_STACK
one_interval = st.tuples(st.floats(-6.0, 5.0), st.floats(0.05, 1.0)).map(lambda p: np.array([p[0], p[0] + p[1]]))


@PROPERTY
@given(
    field=st.one_of(st.just(ZERO_FIELD), drives),
    engine=st.sampled_from(["rwa", "full"]),
    gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.2)),
    t=st.one_of(one_interval, magnus_grids),
    form=st.sampled_from([(1, "unit"), (1, "summed"), (3, "summed")]),
    k=st.sampled_from([1, 2, 3, 22, 64]),
    phases=magnus_phases,
    sizes=st.sampled_from([(16, 16), (16, STACK), (propagator._MAGNUS_CHUNK, STACK)]),
)
@example(  # two blocks of one interval, 2,048 and 1,024 steps, at the library's sizes
    field=DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 1.0)), engine="rwa", gamma=0.1,
    t=np.array([-1.0, 0.5, 2.0]), form=(1, "unit"), k=3 * propagator._MAGNUS_CHUNK // 2, phases=[0.0],
    sizes=(propagator._MAGNUS_CHUNK, STACK),
)
@example(  # one damped step over one interval: every array of size 1
    field=DrivingField(5.3, EnvelopeSpec.gaussian(1.1, -0.4, 1.1), PhaseSpec.constant(2.0)), engine="rwa",
    gamma=0.02, t=np.array([0.3, 1.1]), form=(1, "unit"), k=1, phases=[0.0], sizes=(16, 16),
)
@example(  # a zero field (signed zeros) in three drives over one interval, one step
    field=ZERO_FIELD, engine="rwa", gamma=0.0, t=np.array([-1.0, 2.0]), form=(3, "summed"), k=1,
    phases=[0.5, -2.0, 3.0], sizes=(16, 16),
)
def test_magnus_grid_is_its_tuple_form(field, engine, gamma, t, form, k, phases, sizes):
    system = TwoLevelSystem(0.0, 5.0, gamma_re=gamma)
    coupling, carrier = propagator._drive(system, field, engine)
    detuning = propagator._complex_detuning(system, carrier)
    m, weighting = form
    if weighting == "unit":
        weights = np.ones((1, 1), dtype=complex)

        def terms(x):
            return (coupling(x),)

    else:
        d = np.resize(phases, m)
        weights = np.stack((np.ones(m), np.cos(d), -np.sin(d))).astype(complex)

        def terms(x):
            return coupling(x), coupling(x - 2.0), coupling(x + 1.0)

    chunk, stack = sizes
    with mock.patch.multiple(propagator, _MAGNUS_CHUNK=chunk, _MAGNUS_STACK=stack):
        got = _magnus_grid(terms, weights, detuning, t, k)
        want = magnus_grid(terms, weights, detuning, t, k)
    assert got.shape == (4, m, t.size - 1)
    assert_bits_equal(got, want)


# The full field on Magnus steps (``full_field_propagate``) against DP5 on
# the random drives above, from random states, undamped and damped up to
# gamma' = 0.05.  The carrier (4.5 to 5.5) turns by about one radian per
# sample interval of WINDOW, which the Magnus steps resolve.  Bound fixed
# from rel_tol before any run: each engine errs by at most 1e3 * rel_tol in
# amplitude at rel_tol 1e-12, and the two by at most that together.
FULL_TIGHT = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


@PROPAGATION
@given(field=drives, initial=states, gamma=st.one_of(st.just(0.0), st.floats(0.0, 0.05)))
def test_full_field_agrees_with_dp5(field, initial, gamma):
    system = TwoLevelSystem(0.0, 5.0, gamma_re=gamma)
    magnus = full_field_propagate(system, field, initial, WINDOW, FULL_TIGHT)
    dp5 = dp5_full_propagate(system, field, initial, WINDOW, FULL_TIGHT)
    assert compare_trajectories(magnus, dp5).max_amplitude_error <= 1e3 * FULL_TIGHT.rel_tol


# Small hydro runs: 64 to 256 points on [-10, 10], a packet at least seven
# widths from either edge, and 2 to 6 steps of 0.02, so no run leaks.
hydro_blocks = st.fixed_dictionaries({
    "n_points": st.sampled_from([64, 128, 256]),
    "potential": st.one_of(
        st.just({"shape": "free"}),
        st.builds(lambda w: {"shape": "harmonic", "omega0": w}, st.floats(0.05, 1.0)),
    ),
    "packet": st.fixed_dictionaries({
        "center": st.floats(-1.0, 1.0),
        "sigma": st.floats(0.5, 1.2),
        "k0": st.floats(-2.0, 2.0),
    }),
    "steps": st.integers(2, 6),
    "csv_stride": st.integers(0, 3),
})


@settings(PROPERTY, max_examples=50)
@given(block=hydro_blocks)
def test_hydro_run_is_the_public_hydro_functions(block):
    n, steps = block["n_points"], block["steps"]
    raw = {"kind": "hydro", "hydro": {
        "x_min": -10.0, "dx": 20.0 / n, "n_points": n, "potential": block["potential"],
        "packet": block["packet"], "t_final": steps * 0.02, "dt": 0.02,
        "csv_stride": block["csv_stride"],
    }}
    config = cli.load_config_dict(raw)
    metrics, tables = cli._run_hydro(config)
    p = config.params
    psi0, potential = cli._hydro_start(p)
    frames = split_step_solve(psi0, potential, p["t_final"], p["dt"])
    assert_bits_equal(np.array(metrics["hj_residual_l2"]), hj_residual(frames, potential).l2)
    assert_bits_equal(np.array(metrics["continuity_residual_l2"]),
                      continuity_residual(frames, p["mass"]).l2)
    stride = block["csv_stride"] or max(1, len(frames) // 16)
    polars = [polar_decompose(f) for f in frames[::stride]]
    table = tables["hydro"]
    assert_bits_equal(table["R"], np.concatenate([f.R for f in polars]))
    assert_bits_equal(table["S"], np.concatenate([f.S for f in polars]))
    assert_bits_equal(table["U"], np.concatenate([quantum_potential(f, p["mass"]) for f in polars]))
    assert_bits_equal(table["p"], np.concatenate([momentum_field(f) for f in polars]))


# Frame times from t0 by steps of dt, each but the first off by a relative
# amount from none to 1e-8, either side of the rule's 1e-9, and the solver's
# own times: psi0.t plus step * dt.
frame_times = st.tuples(
    st.floats(-1e3, 1e3), st.floats(1e-3, 1.0),
    st.lists(st.sampled_from((0.0, 1e-10, -1e-10, 9e-10, -9e-10, 1.1e-9, -1.1e-9, 1e-8)), min_size=2, max_size=6),
)


@settings(PROPERTY, max_examples=60)
@given(times=frame_times, solver=st.booleans())
def test_streamed_spacing_rule_is_the_whole_list_rule(times, solver):
    # The window checks each frame's spacing against the first as it arrives,
    # and fails where _frame_spacing fails on the whole list, with its message.
    t0, dt, offsets = times
    ts = t0 + dt * np.arange(len(offsets) + 1) if solver else np.cumsum([t0, dt, *(dt * (1 + e) for e in offsets[1:])])
    x = -4.0 + 0.5 * np.arange(16)
    frames = [GridWavefunction(-4.0, 0.5, np.exp(-(x**2)) + 0.0j, t=t) for t in ts.tolist()]
    dt = frames[1].t - frames[0].t  # _frame_spacing's dt
    failures = []
    for check in (lambda: hydro._frame_spacing(frames), lambda: list(hydro._frame_analysis(iter(frames), dt, 1.0))):
        try:
            check()
            failures.append(None)
        except GridError as exc:
            failures.append(str(exc))
    assert failures[0] == failures[1]


# Steps of exactly +-pi, +-2pi, just below pi and of either zero, mixed with
# arbitrary ones: np.unwrap's correction turns on at |step| >= pi, and a step
# of exactly +pi keeps +pi where the mod alone gives -pi.
UNWRAP_SAMPLES = (0.0, -0.0, math.pi, -math.pi, 2.0 * math.pi, -2.0 * math.pi, math.pi / 2,
                  -math.pi / 2, np.nextafter(math.pi, 0.0), -np.nextafter(math.pi, 0.0), 3.0 * math.pi)
unwrap_inputs = st.lists(
    st.sampled_from(UNWRAP_SAMPLES) | st.floats(-10.0, 10.0), min_size=1, max_size=40
).map(np.array)


@settings(PROPERTY, max_examples=200)
@given(phase=unwrap_inputs)
def test_exact_unwrap_is_numpys(phase):
    assert_bits_equal(hydro._unwrap(phase.copy()), np.unwrap(phase))


# Frames of a free packet on 64 to 256 points over [-10, 10], 0.02 apart, as
# drawn, times sin(k x) (nodes, so several valid runs under a raised floor)
# or (-1)^n (steps of exactly +-pi at t = 0).  A fast packet turns by half a
# cycle or more per point, so its wraps are steps between pi and 1.5 pi.
hydro_waves = st.fixed_dictionaries({
    "n_points": st.sampled_from([64, 128, 256]),
    "center": st.floats(-1.0, 1.0),
    "sigma": st.floats(0.5, 1.2),
    "k0": st.floats(-2.0, 2.0),
    "fast": st.none() | st.floats(-0.95, 0.95).filter(lambda q: abs(q) >= 0.5),
    "modulation": st.sampled_from(("none", "nodes", "alternating")),
    "k_nodes": st.floats(0.5, 4.0),
    "frames": st.integers(3, 6),
    "floor": st.none() | st.floats(1e-6, 0.1),
    "omega0": st.floats(0.05, 1.0),
})


def _hydro_wave_frames(n_points, center, sigma, k0, fast, modulation, k_nodes, frames, **_):
    dx = 20.0 / n_points
    x = -10.0 + dx * np.arange(n_points)
    if fast is not None:
        k0 = fast * math.pi / dx
    shape = {"none": 1.0, "nodes": np.sin(k_nodes * x), "alternating": (-1.0) ** np.arange(n_points)}
    return [
        GridWavefunction(-10.0, dx, free_gaussian(x, t, x0=center, sigma0=sigma, k0=k0) * shape[modulation], t=t)
        for t in 0.02 * np.arange(frames)
    ]


@settings(PROPERTY, max_examples=80)
@given(wave=hydro_waves)
def test_hydro_functions_are_the_frame_by_frame_oracle(wave):
    frames = _hydro_wave_frames(**wave)
    floor = wave["floor"] and wave["floor"] * float(np.max(np.abs(frames[0].values)))
    for frame in frames:
        got, want = polar_decompose(frame, floor), polar_decompose_loop(frame, floor)
        assert_bits_equal(got.R, want.R)
        assert_bits_equal(got.S, want.S)
        np.testing.assert_array_equal(got.valid, want.valid)
        if want.valid.any():
            assert_bits_equal(quantum_potential(got, 1.0), quantum_potential_loop(want, 1.0))
            assert_bits_equal(momentum_field(got), momentum_loop(want))
    potential = PotentialSpec.harmonic(1.0, wave["omega0"])
    for got, (rows, l2) in (
        (hj_residual(frames, potential, floor),
         residual_series_loop(frames, 1.0, floor, potential.evaluate(frames[0].x))),
        (continuity_residual(frames, 1.0, floor), residual_series_loop(frames, 1.0, floor)),
    ):
        assert_bits_equal(got.fields, rows)
        assert_bits_equal(got.l2, l2)


@settings(PROPERTY, max_examples=40)
@given(block=hydro_blocks, fast=st.floats(-9.0, 9.0))
def test_hydro_run_is_the_frame_by_frame_oracle(block, fast):
    # hydro_blocks' packets, and ones turning by up to 0.9 pi per point on
    # 64 points, at most 4 steps of 0.02 from the centre so none leaks.
    n, steps = block["n_points"], min(block["steps"], 4)
    packet = {**block["packet"], "sigma": min(block["packet"]["sigma"], 1.0), "k0": fast}
    raw = {"kind": "hydro", "hydro": {
        "x_min": -10.0, "dx": 20.0 / n, "n_points": n, "potential": block["potential"],
        "packet": packet, "t_final": steps * 0.02, "dt": 0.02, "csv_stride": block["csv_stride"],
    }}
    config = cli.load_config_dict(raw)
    metrics, tables = cli._run_hydro(config)
    p = config.params
    psi0, potential = cli._hydro_start(p)
    frames = split_step_solve(psi0, potential, p["t_final"], p["dt"])
    stride = block["csv_stride"] or max(1, len(frames) // 16)
    hj, cont, columns = hydro_run_loop(frames, p["mass"], potential.evaluate(psi0.x), stride)
    assert_bits_equal(np.array(metrics["hj_residual_l2"]), hj)
    assert_bits_equal(np.array(metrics["continuity_residual_l2"]), cont)
    for name, column in columns.items():
        assert_bits_equal(tables["hydro"][name], column)


# The paper's adiabatic regime: a pulse centred at tau on the grid of 2,401
# samples over [0, 2 tau], every sample inside the pulse (a flat top's
# support reaches 1.1 tau either side of its centre), detuned 3-15 times
# the peak Rabi frequency either way, with a constant, chirped or
# modulated phase and weak damping or none.  The two explicit examples make
# sure a sech pulse is checked, chirped and damped, and stretched.
ADIABATIC = settings(PROPERTY, max_examples=28)
ORACLE = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)

adiabatic_drives = st.fixed_dictionaries({
    "shape": st.sampled_from(("gaussian", "sech", "flat_top_cos2")),
    "tau": st.floats(100.0, 800.0),
    "peak": st.floats(0.3, 1.5),
    "detuning": st.floats(3.0, 15.0),
    "sign": st.sampled_from((-1.0, 1.0)),
    "phase": st.one_of(
        st.builds(PhaseSpec.constant, st.floats(-math.pi, math.pi)),
        st.builds(PhaseSpec.linear_chirp, st.floats(-1e-3, 1e-3)),
        st.builds(PhaseSpec.sinusoidal, st.floats(0.0, 0.3), st.floats(0.0, 0.02)),
    ),
    "gamma_re": st.just(0.0) | st.floats(0.0, 1e-3),
    "ramp": st.floats(0.3, 0.9),
})


def _adiabatic_drive(shape, tau, peak, detuning, sign, phase, gamma_re, ramp):
    """System, field and grid of one drawn drive; ``detuning`` is in units of ``peak``."""
    system = TwoLevelSystem(0.0, 40.0 + sign * detuning * peak, gamma_re=gamma_re)
    if shape == "flat_top_cos2":
        envelope = EnvelopeSpec.flat_top_cos2(peak, tau, 1.1 * ramp * tau, 2.2 * (1.0 - ramp) * tau)
    else:
        envelope = EnvelopeSpec(shape, peak, tau, tau if shape == "gaussian" else tau / 2.0)
    return system, DrivingField(40.0, envelope, phase), np.linspace(0.0, 2.0 * tau, 2401)


def _branch_and_oracle(system, field, t, branch):
    """The assembled state of ``branch`` and the rotating-wave oracle from its first sample."""
    assembled = assemble_bare_state(system, field, InitialPhases(0.0, 0.3), branch, t)
    return assembled, rwa_propagate(system, field, assembled[0], t, ORACLE)


def _ground_error(system, field, t):
    return compare_trajectories(*_branch_and_oracle(system, field, t, "ground")).max_amplitude_error


@ADIABATIC
@given(drive=adiabatic_drives, stretch=st.booleans())
@example(
    drive={"shape": "sech", "tau": 300.0, "peak": 1.0, "detuning": 5.0, "sign": -1.0,
           "phase": PhaseSpec.linear_chirp(1e-3), "gamma_re": 1e-3, "ramp": 0.5},
    stretch=False,
)
@example(
    drive={"shape": "sech", "tau": 400.0, "peak": 0.5, "detuning": 8.0, "sign": 1.0,
           "phase": PhaseSpec.constant(0.4), "gamma_re": 5e-4, "ramp": 0.5},
    stretch=True,
)
def test_closed_form_tracks_the_oracle_within_the_adiabatic_margin(drive, stretch):
    # The ground branch's amplitudes are within 10 x margin of the oracle's,
    # and the excited branch's phase within the margin (its amplitudes grow
    # as Omega(t)/Omega(t0) by design).  Stretching a constant-phase drive
    # to 2 tau lowers the error, as A3 asks of one Gaussian.
    system, field, t = _adiabatic_drive(**drive)
    margin = adiabatic_report(system, field, t, 1).margin
    error = _ground_error(system, field, t)
    assert error <= 10.0 * margin
    _, oracle = _branch_and_oracle(system, field, t, "excited")
    series = dressed_phases(system, field, InitialPhases(0.0, 0.3), "excited", t)
    drift = np.unwrap(np.angle(oracle.c_e)) - np.unwrap(-series.phi_E_r.real)
    assert np.max(np.abs(drift - drift[0])) <= margin
    if stretch and drive["phase"].shape == "constant":
        assert _ground_error(*_adiabatic_drive(**{**drive, "tau": 2.0 * drive["tau"]})) < error
