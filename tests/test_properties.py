"""Properties of the evaluators that are kept in two forms on purpose.

The ODE right-hand sides use fast scalar closures (``scalar_envelope_fn``,
``scalar_phase_fn``, the fused pulse-pair coupling); the closed-form layer
uses the array registries.  These tests check that the two forms agree, and
that ``generalized_rabi`` of a scalar time equals the array result there.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dressedphase.dressed import generalized_rabi
from dressedphase.interferometry import PulsePairConfig, _pair_coupling
from dressedphase.model import (
    ENVELOPE_SHAPES,
    PHASE_SHAPES,
    DrivingField,
    EnvelopeSpec,
    PhaseSpec,
    TwoLevelSystem,
    scalar_envelope_fn,
    scalar_phase_fn,
)
from dressedphase.propagator import _field_coupling_fn

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
def test_scalar_envelope_matches_array(env, t):
    scalar = scalar_envelope_fn(env)(t)
    array = env.value(np.array([t]))[0]
    assert abs(scalar - array) <= REL * env.peak + TINY


@PROPERTY
@given(ph=phases, t=times)
def test_scalar_phase_matches_array(ph, t):
    scalar = scalar_phase_fn(ph)(t)
    array = ph.value(np.array([t]))[0]
    dt = t - ph.t_ref
    scale = 1.0 + abs(ph.phi0) + abs(ph.rate * dt) + abs(ph.curvature * dt * dt) + abs(ph.depth)
    assert abs(scalar - array) <= REL * scale + TINY


@PROPERTY
@pytest.mark.filterwarnings("ignore:PulsePairConfig. pulses overlap")
@given(
    env=envelopes,
    ph=phases,
    carrier=st.floats(0.0, 10.0),
    mu=st.floats(0.0, 3.0),
    delay=st.floats(0.0, 20.0),
    rel_phase=st.floats(-10.0, 10.0),
    t=times,
)
def test_pair_coupling_is_sum_of_single_pulses(env, ph, carrier, mu, delay, rel_phase, t):
    system = TwoLevelSystem(0.0, 5.0, mu=mu)
    pair = PulsePairConfig(DrivingField(carrier, env, ph), delay, rel_phase)
    first = _field_coupling_fn(system, pair.base)(t)
    second = _field_coupling_fn(system, pair.second)(t)
    fused = _pair_coupling(system, pair)(t)
    assert abs(fused - (first + second)) <= REL * (abs(first) + abs(second)) + TINY


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
    # A whole pulse crosses gamma'/2 twice.  The array continuation keeps its
    # sign through the exact tie at each crossing, so beyond the second one it
    # follows -dw~ while a scalar call (weak-field rule) follows +dw~.
    "resonant_damped_pulse": pytest.param(
        TwoLevelSystem(0.0, 5.0, gamma_re=0.4),
        DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 2.0)),
        np.linspace(-10.0, 10.0, 2001),
        marks=pytest.mark.xfail(
            strict=True, reason="continuation leaves the weak-field branch after a second crossing"
        ),
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
