import math

import numpy as np
import pytest

from dressedphase.cli import TimeGrid
from dressedphase.errors import DerivativeOrderError, ValidationError
from dressedphase.interferometry import PulsePairConfig
from dressedphase.model import (
    DrivingField,
    EnvelopeSpec,
    InitialPhases,
    PhaseSpec,
    TwoLevelSystem,
    complex_detuning,
    instantaneous_field,
    optical_phase,
    rabi_frequency,
)


SYSTEM = TwoLevelSystem(omega_g=0.0, omega_e=5.0, mu=1.0)


def test_rabi_constant_envelope():
    field = DrivingField(5.0, EnvelopeSpec.constant(2.0))
    assert rabi_frequency(SYSTEM, field, 1.3, 0) == 2.0
    assert rabi_frequency(SYSTEM, field, 1.3, 3) == 0.0


def test_rabi_gaussian_peak_and_log_slope():
    field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 2.0))
    assert rabi_frequency(SYSTEM, field, 0.0, 1) == 0.0
    ratio = rabi_frequency(SYSTEM, field, 2.0, 1) / rabi_frequency(SYSTEM, field, 2.0, 0)
    assert ratio == pytest.approx(-2.0 / 2.0, abs=1e-14)


def test_optical_phase_values():
    field = DrivingField(5.0, EnvelopeSpec.constant(1.0), PhaseSpec.constant(0.3))
    assert optical_phase(field, 2.0, 0) == pytest.approx(10.3, abs=1e-14)
    assert optical_phase(field, 2.0, 1) == 5.0
    chirped = DrivingField(5.0, EnvelopeSpec.constant(1.0), PhaseSpec.linear_chirp(0.01))
    assert optical_phase(chirped, 7.7, 1) == pytest.approx(5.01, abs=1e-14)
    assert optical_phase(chirped, 7.7, 2) == 0.0


def test_complex_detuning_examples():
    field = DrivingField(5.0, EnvelopeSpec.constant(1.0))
    assert complex_detuning(TwoLevelSystem(0.0, 5.0), field) == 0.0
    assert complex_detuning(TwoLevelSystem(0.0, 6.0, gamma_re=0.2), field) == 1.0 - 0.1j
    assert complex_detuning(TwoLevelSystem(0.0, 6.0, gamma_im=0.4), field) == 0.8 + 0.0j


def test_instantaneous_field_examples():
    field = DrivingField(2.0 * math.pi, EnvelopeSpec.constant(1.0))
    assert instantaneous_field(field, 0.0) == 1.0
    assert instantaneous_field(field, 0.25) == pytest.approx(0.0, abs=1e-12)
    flipped = DrivingField(2.0 * math.pi, EnvelopeSpec.constant(1.0), PhaseSpec.constant(math.pi))
    assert instantaneous_field(flipped, 0.0) == -1.0


ENVELOPE_CASES = [
    (EnvelopeSpec.gaussian(1.3, 0.4, 1.7), 0.83),
    (EnvelopeSpec.sech(0.9, -0.2, 1.1), 0.4),
    (EnvelopeSpec.flat_top_cos2(1.0, 0.0, 2.0, 3.0), -2.2),  # on the up-ramp
]

PHASE_CASES = [
    (PhaseSpec.quadratic_chirp(0.3, -0.05), 0.3),
    (PhaseSpec.sinusoidal(0.4, 2.2), 0.3),
]


@pytest.mark.parametrize("spec,t0", ENVELOPE_CASES + PHASE_CASES)
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_derivatives_match_finite_differences(spec, t0, order):
    """Analytic n-th derivative agrees with the central FD of the (n-1)-th at O(h^2)."""

    def fd_error(h):
        fd = (spec.derivative(t0 + h, order - 1) - spec.derivative(t0 - h, order - 1)) / (2 * h)
        return abs(fd - spec.derivative(t0, order))

    e1, e2 = fd_error(1e-2), fd_error(5e-3)
    # Quadratic convergence: halving h cuts the error by ~4; exactly-zero
    # truncation (polynomial phases) shows up as both errors at roundoff.
    assert e2 < 1e-12 or e1 / e2 >= 3.5


def test_flat_top_c1_joins():
    env = EnvelopeSpec.flat_top_cos2(1.0, 0.0, 2.0, 3.0)
    for join in (-3.5, -1.5, 1.5, 3.5):
        left = np.nextafter(join, -np.inf)
        right = np.nextafter(join, np.inf)
        for order in (0, 1):
            vals = {env.derivative(x, order) for x in (left, join, right)}
            assert max(vals) - min(vals) <= 1e-12


def test_flat_top_support_and_area():
    env = EnvelopeSpec.flat_top_cos2(2.0, 1.0, 0.5, 3.0)
    assert env.value(1.0) == 2.0
    assert env.value(1.0 + 1.4) == 2.0  # still on the plateau
    assert env.value(1.0 + 2.1) == 0.0  # beyond the ramp
    assert env.area() == pytest.approx(2.0 * (3.0 + 0.5), rel=1e-14)
    assert EnvelopeSpec.gaussian(1.0, 0.0, 3.0).area() == pytest.approx(
        3.0 * math.sqrt(math.pi), rel=1e-14
    )
    assert EnvelopeSpec.sech(1.0, 0.0, 3.0).area() == pytest.approx(3.0 * math.pi, rel=1e-14)
    assert EnvelopeSpec.constant(1.0).area() == math.inf


def test_derivative_order_limit():
    env = EnvelopeSpec.gaussian(1.0, 0.0, 1.0)
    with pytest.raises(DerivativeOrderError, match="derivative order exceeded"):
        env.derivative(0.0, 7)
    field = DrivingField(1.0, env)
    with pytest.raises(DerivativeOrderError):
        optical_phase(field, 0.0, 7)
    with pytest.raises(DerivativeOrderError):
        rabi_frequency(SYSTEM, field, 0.0, -1)
    for order in (True, 2.5, "2"):
        with pytest.raises(DerivativeOrderError, match="must be an integer"):
            env.derivative(0.0, order)


def test_vectorized_evaluation_matches_scalar():
    env = EnvelopeSpec.sech(0.9, -0.2, 1.1)
    t = np.linspace(-3.0, 3.0, 7)
    vec = env.derivative(t, 2)
    for ti, vi in zip(t, vec):
        # identical formulas; numpy may pick different SIMD paths per size
        assert vi == pytest.approx(env.derivative(float(ti), 2), rel=1e-14, abs=1e-300)


def test_phase_shifted_replica():
    ph = PhaseSpec.quadratic_chirp(0.3, -0.05, phi0=0.1)
    moved = ph.shifted(2.5, extra_phi0=0.7)
    assert moved.value(4.0) == pytest.approx(ph.value(1.5) + 0.7, abs=1e-14)
    assert moved.derivative(4.0, 1) == pytest.approx(ph.derivative(1.5, 1), abs=1e-14)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TwoLevelSystem(1.0, 1.0),
        lambda: TwoLevelSystem(0.0, 1.0, gamma_re=-0.1),
        lambda: TwoLevelSystem(0.0, 1.0, mu=-1.0),
        lambda: EnvelopeSpec.gaussian(-1.0, 0.0, 1.0),
        lambda: EnvelopeSpec.gaussian(1.0, 0.0, 0.0),
        lambda: EnvelopeSpec("triangle", 1.0),
        lambda: PhaseSpec("cubic"),
        lambda: PhaseSpec.constant(float("nan")),
        lambda: DrivingField(-1.0, EnvelopeSpec.constant(1.0)),
        lambda: InitialPhases(float("inf"), 0.0),
        lambda: TwoLevelSystem(float("nan"), 1.0),
        lambda: TwoLevelSystem(0.0, math.inf),
        lambda: TwoLevelSystem(0.0, 1.0, mu=float("nan")),
        lambda: TwoLevelSystem(0.0, 1.0, gamma_re=float("nan")),
        lambda: TwoLevelSystem(0.0, 1.0, gamma_im=-math.inf),
        lambda: EnvelopeSpec.gaussian(float("nan"), 0.0, 1.0),
        lambda: EnvelopeSpec.gaussian(1.0, float("nan"), 1.0),
        lambda: EnvelopeSpec.gaussian(1.0, 0.0, math.inf),
        lambda: EnvelopeSpec.flat_top_cos2(1.0, 0.0, 1.0, float("nan")),
        lambda: DrivingField(float("nan"), EnvelopeSpec.constant(1.0)),
        lambda: DrivingField(math.inf, EnvelopeSpec.constant(1.0)),
        lambda: PulsePairConfig(DrivingField(1.0, EnvelopeSpec.constant(1.0)), float("nan"), 0.0),
        lambda: PulsePairConfig(DrivingField(1.0, EnvelopeSpec.constant(1.0)), 1.0, math.inf),
        lambda: TimeGrid(float("nan"), 1.0, 3),
        lambda: TimeGrid(0.0, math.inf, 3),
    ],
)
def test_invariant_violations_raise(build):
    with pytest.raises(ValidationError):
        build()
