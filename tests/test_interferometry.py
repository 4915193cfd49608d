import math
import warnings
from unittest import mock

import numpy as np
import pytest

from dressedphase import interferometry, propagator
from dressedphase.errors import StepSizeUnderflowError, ValidationError
from dressedphase.interferometry import (
    FringeRecord,
    PulsePairConfig,
    fit_fringe,
    phase_scan,
    pulse_pair_population,
    visibility,
)
from dressedphase.model import DrivingField, EnvelopeSpec, PhaseSpec, TwoLevelSystem
from dressedphase.propagator import IntegratorConfig, TwoLevelState, rwa_propagate
from oracles import dp5_rwa_propagate, phase_scan_loop

SYSTEM = TwoLevelSystem(0.0, 5.0, mu=1.0)
WIDTH = 2.0
AREA = 0.04 * math.pi
PEAK = AREA / (WIDTH * math.sqrt(math.pi))
BASE = DrivingField(5.0, EnvelopeSpec.gaussian(PEAK, 0.0, WIDTH))
CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)


def make_pair(delay=30.0, rel_phase=0.0, field=BASE):
    return PulsePairConfig(field, delay=delay, rel_phase=rel_phase)


def single_pulse_population():
    t = np.linspace(-10.0, 10.0, 3)
    traj = dp5_rwa_propagate(SYSTEM, BASE, TwoLevelState(1.0, 0.0), t, CFG)
    return float(traj.population_e[-1])


def test_visibility_arithmetic():
    rec = FringeRecord(np.array([0.0, 1.0]), np.array([0.1, 0.3]), 0.0, 0.0)
    assert visibility(rec) == pytest.approx(0.5, abs=1e-15)
    flat = FringeRecord(np.array([0.0, 1.0]), np.array([0.2, 0.2]), 0.0, 0.0)
    assert visibility(flat) == 0.0
    zero = FringeRecord(np.array([0.0, 1.0]), np.array([0.0, 0.0]), 0.0, 0.0)
    assert visibility(zero) == 0.0
    ideal = FringeRecord(
        np.linspace(0, 2 * np.pi, 32, endpoint=False),
        0.02 * (1.0 + np.cos(np.linspace(0, 2 * np.pi, 32, endpoint=False))),
        0.0,
        0.0,
    )
    assert visibility(ideal) == pytest.approx(1.0, abs=1e-12)


def test_scan_fringe_and_fit():
    deltas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    record = phase_scan(SYSTEM, make_pair(), deltas, CFG)
    amp, fringe, delta0, residual = fit_fringe(record)
    assert record.visibility > 0.99
    assert residual < 1e-3 * fringe
    # periodic fringe: P(delta) + P(delta + pi) is constant
    half = len(deltas) // 2
    sums = record.populations[:half] + record.populations[half:]
    assert np.max(sums) - np.min(sums) < 1e-6 * np.max(record.populations)


def test_constructive_is_four_single_pulses():
    p1 = single_pulse_population()
    deltas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    record = phase_scan(SYSTEM, make_pair(), deltas, CFG)
    _, _, delta0, _ = fit_fringe(record)
    constructive = pulse_pair_population(SYSTEM, make_pair(rel_phase=-delta0), CFG)
    assert constructive == pytest.approx(4.0 * p1, rel=0.02)


def test_destructive_suppression():
    deltas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    record = phase_scan(SYSTEM, make_pair(), deltas, CFG)
    _, _, delta0, _ = fit_fringe(record)
    constructive = pulse_pair_population(SYSTEM, make_pair(rel_phase=-delta0), CFG)
    destructive = pulse_pair_population(SYSTEM, make_pair(rel_phase=-delta0 + np.pi), CFG)
    assert destructive <= 1e-3 * constructive


def test_merged_pair_equals_double_amplitude_pulse():
    with pytest.warns(UserWarning, match="overlap"):
        merged_pair = PulsePairConfig(BASE, delay=1.0, rel_phase=0.0)
    merged = pulse_pair_population(SYSTEM, PulsePairConfig(BASE, 0.0, 0.0), CFG)
    doubled = DrivingField(5.0, EnvelopeSpec.gaussian(2.0 * PEAK, 0.0, WIDTH))
    t = np.linspace(-12.0, 12.0, 3)
    direct = dp5_rwa_propagate(SYSTEM, doubled, TwoLevelState(1.0, 0.0), t, CFG)
    assert merged == pytest.approx(float(direct.population_e[-1]), abs=1e-10)


def test_two_pi_periodicity_is_exact():
    a = pulse_pair_population(SYSTEM, make_pair(rel_phase=1.234), CFG)
    b = pulse_pair_population(SYSTEM, make_pair(rel_phase=1.234 + 2.0 * math.pi), CFG)
    assert a == b


@pytest.mark.parametrize("rel_phase", [-1e-20, -5e-324, 2.0 * math.pi])
def test_rel_phase_is_normalized_below_two_pi(rel_phase):
    """``x % 2pi`` rounds a tiny negative x up to exactly 2pi, which is 0."""
    assert make_pair(rel_phase=rel_phase).rel_phase == 0.0


def test_global_phase_immunity():
    shifted_base = DrivingField(5.0, EnvelopeSpec.gaussian(PEAK, 0.0, WIDTH), PhaseSpec.constant(0.77))
    a = pulse_pair_population(SYSTEM, make_pair(rel_phase=1.234), CFG)
    b = pulse_pair_population(SYSTEM, make_pair(rel_phase=1.234, field=shifted_base), CFG)
    assert a == pytest.approx(b, abs=1e-12)


def test_weak_pulse_linearity():
    halved_base = DrivingField(5.0, EnvelopeSpec.gaussian(0.5 * PEAK, 0.0, WIDTH))
    deltas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    full = phase_scan(SYSTEM, make_pair(), deltas, CFG)
    half = phase_scan(SYSTEM, make_pair(field=halved_base), deltas, CFG)
    # relative comparison is meaningful away from the destructive null, where
    # the population is dominated by higher-order terms
    on_fringe = full.populations > 0.01 * np.max(full.populations)
    ratio = full.populations[on_fringe] / half.populations[on_fringe]
    assert np.all(np.abs(ratio / 4.0 - 1.0) < 0.05)


def test_damping_reduces_visibility():
    deltas = np.linspace(0.0, 2.0 * np.pi, 32, endpoint=False)
    lossless = phase_scan(SYSTEM, make_pair(), deltas, CFG)
    damped_system = TwoLevelSystem(0.0, 5.0, mu=1.0, gamma_re=1.0 / 30.0)
    damped = phase_scan(damped_system, make_pair(), deltas, CFG)
    assert damped.visibility < lossless.visibility
    r = math.exp(-0.5 * (1.0 / 30.0) * 30.0)
    assert damped.visibility == pytest.approx(2.0 * r / (1.0 + r * r), abs=0.01)


def test_single_pulse_scan_has_no_fringe():
    """With one pulse only, the scanned constant phase is a global phase:
    P_e is delta-independent and the visibility vanishes."""
    t = np.linspace(-10.0, 10.0, 3)
    deltas = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    populations = []
    for delta in deltas:
        lone = DrivingField(
            5.0, EnvelopeSpec.gaussian(PEAK, 0.0, WIDTH), PhaseSpec.constant(float(delta))
        )
        traj = rwa_propagate(SYSTEM, lone, TwoLevelState(1.0, 0.0), t, CFG)
        populations.append(float(traj.population_e[-1]))
    record = FringeRecord(deltas, np.array(populations), 0.0, 0.0)
    assert visibility(record) < 1e-9


CARRIER_40 = TwoLevelSystem(0.0, 40.0, mu=1.0)
PAIR_40 = PulsePairConfig(
    DrivingField(40.0, EnvelopeSpec.gaussian(PEAK, 0.0, WIDTH)), delay=12.0, rel_phase=0.3
)


def test_full_field_engine_available():
    """At carrier 40 the Magnus segments must resolve the carrier over the
    34-long window: the grid passes 2**16 intervals."""
    system, pair = CARRIER_40, PAIR_40
    p_rwa = pulse_pair_population(system, pair, CFG, engine="rwa")
    with mock.patch.object(propagator, "_magnus_grid", wraps=propagator._magnus_grid) as grid:
        p_full = pulse_pair_population(system, pair, CFG, engine="full")
    assert p_full == pytest.approx(p_rwa, rel=0.1)
    assert max(call.args[-1] for call in grid.call_args_list) > 2**16


def test_full_field_below_the_rounding_floor():
    """At rel_tol 1e-12 the carrier-40 pair's Magnus change levels off near
    2.5e-11 from 139,264 intervals on, above the tolerance.  The doubling
    stops at the rounding floor, 278,528 * eps = 6.2e-11 at the next grid,
    and the population agrees with DP5 at the same tolerance (5e-12 off a
    rel_tol-1e-13 DP5 run): an amplitude off by the floor moves the
    population by at most twice it, so 1.5e-10 bounds the difference."""
    cfg = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-16)
    magnus = pulse_pair_population(CARRIER_40, PAIR_40, cfg, engine="full")
    dp5 = phase_scan_loop(CARRIER_40, PAIR_40, [PAIR_40.rel_phase], cfg, engine="full")
    assert abs(magnus - dp5.populations[0]) <= 1.5e-10


@pytest.mark.parametrize("engine", ["rwa", "full"])
@pytest.mark.parametrize("delay", [30.0, 0.0], ids=["separated", "merged"])
def test_pair_population_is_the_scan_at_its_own_phase(delay, engine):
    pair = make_pair(delay, rel_phase=1.234)
    population = pulse_pair_population(SYSTEM, pair, CFG, engine)
    record = phase_scan(SYSTEM, pair, [pair.rel_phase], CFG, engine)
    assert population == record.populations[0]


@pytest.mark.parametrize("engine", ["rwa", "full"])
@pytest.mark.parametrize("delay", [30.0, 10.0], ids=["separated", "overlapping"])
def test_unresolvable_coupling_is_rejected_before_any_segment(delay, engine):
    """At mu 1e12 the coupling turns by pi or more per Magnus step even at the
    cap over the segment (pulse 1's support, or the whole window), so the
    scan raises before any segment, where the doubling would run to the cap.
    At mu 1e3 the bound passes and the segment is stepped."""
    stepped = mock.Mock(side_effect=RuntimeError("stepped"))
    with warnings.catch_warnings(), mock.patch.object(interferometry, "_magnus_propagator", stepped):
        warnings.simplefilter("ignore")  # the overlapping pair's warning
        pair = make_pair(delay)
        with pytest.raises(StepSizeUnderflowError, match=r"coupling \|K\| .* steps over an interval of"):
            phase_scan(TwoLevelSystem(0.0, 5.0, mu=1e12), pair, [0.0, 1.0], CFG, engine)
        stepped.assert_not_called()
        with pytest.raises(RuntimeError, match="stepped"):
            phase_scan(TwoLevelSystem(0.0, 5.0, mu=1e3), pair, [0.0, 1.0], CFG, engine)


def test_unknown_engine_is_rejected_before_any_work():
    """Checked before the strong-pulse warning and before any propagation."""
    strong = DrivingField(5.0, EnvelopeSpec.gaussian(100.0 * PEAK, 0.0, WIDTH))
    pair = PulsePairConfig(strong, 30.0, 0.0)
    with warnings.catch_warnings(), mock.patch.object(interferometry, "_magnus_propagator") as magnus:
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match="engine must be 'rwa' or 'full'"):
            pulse_pair_population(SYSTEM, pair, CFG, engine="bogus")
        with pytest.raises(ValidationError, match="engine must be 'rwa' or 'full'"):
            phase_scan(SYSTEM, pair, [0.0], CFG, engine="bogus")
    magnus.assert_not_called()


def test_area_and_strong_pulse_warning():
    pair = make_pair()
    assert pair.pulse_area() == pytest.approx(AREA, rel=1e-12)
    strong = DrivingField(5.0, EnvelopeSpec.gaussian(100.0 * PEAK, 0.0, WIDTH))
    # Every call warns once, here, whatever the engine or the number of deltas.
    deltas = np.linspace(0.0, 2.0 * math.pi, 4, endpoint=False)
    for engine in ("rwa", "full"):
        with pytest.warns(UserWarning, match="excitation estimate") as record:
            pulse_pair_population(SYSTEM, PulsePairConfig(strong, 30.0, 0.0), CFG, engine)
            phase_scan(SYSTEM, PulsePairConfig(strong, 30.0, 0.0), deltas, CFG, engine)
        assert [w.filename for w in record] == [__file__] * 2


def test_pair_validation():
    with pytest.raises(ValidationError):
        PulsePairConfig(BASE, delay=-1.0, rel_phase=0.0)
    assert PulsePairConfig(BASE, 30.0, 7.0).rel_phase == pytest.approx(7.0 - 2 * math.pi)
    with pytest.raises(ValidationError):
        phase_scan(SYSTEM, make_pair(), np.array([]), CFG)
    # Composed (delay 30), summed (delay 0) and full-field scans alike.
    for bad in (math.nan, math.inf, -math.inf):
        for delay, engine in ((30.0, "rwa"), (0.0, "rwa"), (30.0, "full")):
            with pytest.raises(ValidationError, match="delta_grid must be finite"):
                phase_scan(SYSTEM, make_pair(delay), np.array([0.0, bad]), CFG, engine=engine)


def test_overlap_warning_names_the_caller():
    with pytest.warns(UserWarning, match="overlap") as record:
        pair = PulsePairConfig(BASE, delay=1.0, rel_phase=0.0)
    assert [w.filename for w in record] == [__file__]
    # The scan builds no pair per delta, so it does not warn again.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        phase_scan(SYSTEM, pair, [0.0, 1.0, 2.0], CFG, engine="full")
