import math

import numpy as np
import pytest

from dressedphase.dressed import (
    adiabatic_report,
    born_fock_value,
    usual_adiabatic_value,
)
from dressedphase.errors import FieldBelowFloorError, ValidationError
from dressedphase.model import (
    DrivingField,
    EnvelopeSpec,
    PhaseSpec,
    TwoLevelSystem,
    rabi_frequency,
)

DETUNED_ONE = TwoLevelSystem(0.0, 6.0)  # detuning 1 against carrier 5


def test_linear_chirp_margins():
    field = DrivingField(5.0, EnvelopeSpec.constant(1.0), PhaseSpec.linear_chirp(0.01))
    report = adiabatic_report(DETUNED_ONE, field, np.linspace(0.0, 10.0, 101), 2)
    assert report.ratio(0, 0) == pytest.approx(0.01, abs=1e-15)
    assert report.ratio(0, 1) == pytest.approx(0.01, abs=1e-15)
    assert report.orders[1].margin == 0.0
    assert report.orders[2].margin == 0.0
    assert report.margin == pytest.approx(0.01, abs=1e-15)


def test_constant_field_constant_phase_all_zero():
    field = DrivingField(5.0, EnvelopeSpec.constant(1.0))
    report = adiabatic_report(DETUNED_ONE, field, np.linspace(0.0, 10.0, 101), 3)
    assert report.margin == 0.0
    for entry in report.orders.values():
        assert all(r == 0.0 for r in entry.ratios.values())


def test_gaussian_margin_against_dense_grid():
    field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 25.0, 50.0))
    window = (0.0, 50.0)
    coarse = adiabatic_report(DETUNED_ONE, field, np.linspace(*window, 201), 2)
    dense = adiabatic_report(DETUNED_ONE, field, np.linspace(*window, 2001), 2)
    assert coarse.margin <= dense.margin * (1.0 + 1e-12)
    assert coarse.margin >= 0.98 * dense.margin
    # closed form for the leading ratio: |2 t' / tau^2| / detuning at the edge
    expected = (2.0 * 25.0 / 50.0**2) / 1.0
    assert dense.ratio(0, 0) == pytest.approx(expected, rel=1e-6)


@pytest.mark.filterwarnings("error")
def test_detuning_power_past_float_range_gives_zero_ratio():
    """|dw~|^(n+1-k) passes 1.8e308 from |dw~| ~ 1e62 at n = 3; at 1e160
    every power from 2 up does, and each of those ratios is 0.0, its limit.
    The k = n + 1 ratios do not depend on the detuning."""
    field = DrivingField(2.0, EnvelopeSpec.gaussian(1.0, 600.0, 600.0))
    t = np.linspace(0.0, 1200.0, 241)
    report = adiabatic_report(TwoLevelSystem(0.0, 1e160), field, t, 3)
    moderate = adiabatic_report(TwoLevelSystem(0.0, 12.0), field, t, 3)
    for n, entry in report.orders.items():
        for k, ratio in entry.ratios.items():
            if n + 1 - k >= 2:
                assert ratio == 0.0
        assert 0.0 < entry.ratios[n] < 1e-150
        assert entry.ratios[n + 1] == moderate.ratio(n, n + 1)
    assert report.margin == max(moderate.ratio(n, n + 1) for n in range(4))


def test_exact_resonance_reports_infinite_margin_for_nonzero_numerator():
    system = TwoLevelSystem(0.0, 5.0)
    field = DrivingField(5.0, EnvelopeSpec.constant(1.0), PhaseSpec.linear_chirp(0.01))
    report = adiabatic_report(system, field, np.linspace(0.0, 10.0, 51), 0)
    assert report.ratio(0, 0) == math.inf
    assert report.ratio(0, 1) == pytest.approx(0.01, abs=1e-15)
    assert report.margin == math.inf


def test_exact_resonance_constant_drive_is_trivially_adiabatic():
    system = TwoLevelSystem(0.0, 5.0)
    field = DrivingField(5.0, EnvelopeSpec.constant(2.0))
    report = adiabatic_report(system, field, np.linspace(0.0, 10.0, 51), 2)
    assert report.margin == 0.0


def test_order_limit_and_floor():
    field = DrivingField(5.0, EnvelopeSpec.constant(1.0))
    for n_max in (5, True, 2.5, "2"):
        with pytest.raises(ValidationError, match="n_max must be an integer"):
            adiabatic_report(DETUNED_ONE, field, np.linspace(0.0, 1.0, 11), n_max)
    dead = DrivingField(5.0, EnvelopeSpec.constant(0.0))
    with pytest.raises(FieldBelowFloorError):
        adiabatic_report(DETUNED_ONE, dead, np.linspace(0.0, 1.0, 11), 1)


def test_usual_and_born_fock_examples():
    tau = 10.0
    field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, tau))
    assert usual_adiabatic_value(DETUNED_ONE, field, tau) == pytest.approx(0.2, abs=1e-14)
    assert born_fock_value(DETUNED_ONE, field, tau) == pytest.approx(0.2 * math.e, rel=1e-14)
    flat = DrivingField(5.0, EnvelopeSpec.constant(1.0))
    assert usual_adiabatic_value(DETUNED_ONE, flat, 3.0) == 0.0
    assert born_fock_value(DETUNED_ONE, flat, 3.0) == 0.0


def test_reductions_match_report_for_constant_phase():
    """usual == ratio(0,0) and born_fock == |Omega^-2 dOmega| at 1e-12."""
    field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 20.0, 15.0))
    t = np.linspace(0.0, 40.0, 401)
    report = adiabatic_report(DETUNED_ONE, field, t, 0)
    usual_max = float(np.max(usual_adiabatic_value(DETUNED_ONE, field, t)))
    assert abs(usual_max - report.ratio(0, 0)) <= 1e-12
    omega = rabi_frequency(DETUNED_ONE, field, t, 0)
    d_omega = rabi_frequency(DETUNED_ONE, field, t, 1)
    manual = np.abs(d_omega) / omega**2
    np.testing.assert_allclose(born_fock_value(DETUNED_ONE, field, t), manual, atol=1e-12)
    assert abs(float(np.max(manual)) - report.ratio(0, 1)) <= 1e-12


def test_higher_order_numerator_uses_exact_log_derivatives():
    """n = 1 numerator against a finite difference of the n = 0 one."""
    field = DrivingField(
        5.0, EnvelopeSpec.gaussian(1.0, 20.0, 15.0), PhaseSpec.sinusoidal(0.05, 0.3)
    )
    t0, h = 17.0, 1e-4

    def numerator0(t):
        omega = rabi_frequency(DETUNED_ONE, field, t, 0)
        d_omega = rabi_frequency(DETUNED_ONE, field, t, 1)
        return field.phase.derivative(t, 1) - 1j * d_omega / omega

    fd = (numerator0(t0 + h) - numerator0(t0 - h)) / (2 * h)
    report_grid = np.array([t0 - 1e-9, t0, t0 + 1e-9])
    report = adiabatic_report(DETUNED_ONE, field, report_grid, 1)
    # reconstruct the pointwise |numerator| from the reported grid max of n=1, k=0
    dw_abs = abs(complex(1.0, 0.0))
    assert report.ratio(1, 0) * dw_abs**2 == pytest.approx(abs(fd), rel=1e-6)
