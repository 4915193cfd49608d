import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dressedphase import dressed, numerics
from dressedphase.dressed import (
    adiabatic_report,
    assemble_bare_state,
    dressed_amplitudes,
    dressed_phases,
    effective_excited_frequency,
    generalized_rabi,
    level_shifts,
)
from dressedphase.errors import (
    DegenerateRabiError,
    FieldBelowFloorError,
    GridError,
    ValidationError,
)
from dressedphase.model import (
    DrivingField,
    EnvelopeSpec,
    InitialPhases,
    PhaseSpec,
    TwoLevelSystem,
    complex_detuning,
    rabi_frequency,
)
from dressedphase.propagator import IntegratorConfig, compare_trajectories, rwa_propagate
from oracles import rwa_eigensystem
from test_properties import PROPERTY, phases

RESONANT = TwoLevelSystem(0.0, 5.0)
RES_FIELD = DrivingField(5.0, EnvelopeSpec.constant(2.0))
DETUNED = TwoLevelSystem(0.0, 8.0)           # detuning 3 against carrier 5
# Resonant with gamma' = 0.2: the exceptional point is Omega = 0.1, where
# dw~^2 + Omega^2 rounds to exactly 0.
EXCEPTIONAL = TwoLevelSystem(0.0, 5.0, gamma_re=0.2)
DET_FIELD = DrivingField(5.0, EnvelopeSpec.constant(4.0))  # Omega 4


class TestGeneralizedRabi:
    def test_resonance(self):
        assert generalized_rabi(RESONANT, RES_FIELD, 0.0) == 2.0 + 0.0j

    def test_three_four_five(self):
        assert generalized_rabi(DETUNED, DET_FIELD, 1.0) == pytest.approx(5.0 + 0.0j, abs=1e-14)

    def test_weak_field_limit_tracks_detuning_sign(self):
        weak = DrivingField(5.0, EnvelopeSpec.constant(1e-8))
        blue = TwoLevelSystem(0.0, 6.0)   # detuning +1
        red = TwoLevelSystem(0.0, 4.5)    # detuning -0.5
        assert generalized_rabi(blue, weak, 0.0).real > 0
        assert generalized_rabi(red, weak, 0.0).real < 0
        assert generalized_rabi(red, weak, 0.0) == pytest.approx(
            complex_detuning(red, weak), abs=1e-8
        )

    def test_radicand_matches_direct_formula(self):
        """Independent evaluation of the square of the weak-field root.

        The complex detuning is constant per configuration, so its time
        derivative contributes nothing to the radicand.
        """
        system = TwoLevelSystem(0.0, 7.0, gamma_re=0.1, gamma_im=0.05)
        field = DrivingField(
            5.0,
            EnvelopeSpec.gaussian(1.0, 5.0, 3.0),
            PhaseSpec.linear_chirp(0.02),
        )
        t = np.linspace(0.0, 10.0, 101)
        w = generalized_rabi(system, field, t)
        dw = complex_detuning(system, field)
        omega = rabi_frequency(system, field, t, 0)
        radicand = dw * dw + omega**2 - 2j * 0.0
        np.testing.assert_allclose(w * w, radicand, atol=1e-12)
        # mid-ramp scalar call agrees with the array evaluation
        mid = generalized_rabi(system, field, float(t[30]))
        assert mid == pytest.approx(w[30], abs=1e-12)

    def test_grid_continuity(self):
        system = TwoLevelSystem(0.0, 4.0, gamma_re=0.3)
        field = DrivingField(5.0, EnvelopeSpec.gaussian(3.0, 5.0, 2.0))  # detuning -1
        t = np.linspace(0.0, 10.0, 2001)
        w = generalized_rabi(system, field, t)
        assert np.max(np.abs(np.diff(w))) < 0.05  # no branch flips


class TestLevelShifts:
    def test_bare_limit(self):
        system = TwoLevelSystem(1.0, 2.0)
        field = DrivingField(0.0, EnvelopeSpec.constant(0.0))
        eff = level_shifts(system, field, 0.0)
        assert eff.lambda_minus == 0.0
        assert eff.omega_G == 1.0
        assert eff.omega_E == 2.0
        assert eff.omega_E_eff is None

    def test_resonant_splitting(self):
        eff = level_shifts(RESONANT, RES_FIELD, 0.3)
        assert eff.lambda_plus == pytest.approx(1.0, abs=1e-14)
        assert eff.lambda_minus == pytest.approx(-1.0, abs=1e-14)
        assert eff.omega_G == pytest.approx(-1.0, abs=1e-14)
        # A grid of times is not silently read at its first point.
        with pytest.raises(ValidationError, match="level_shifts: t must be a scalar time"):
            level_shifts(RESONANT, RES_FIELD, np.array([0.0, 1.0]))

    def test_degenerate_derivative_correction_raises(self):
        """At t = 0 the gaussian's Omega is exp(-1) and changing; at gamma' =
        2 exp(-1) the generalized Rabi frequency rounds to 0 there, so the
        correction -(i/2) Omega dOmega / gen_rabi^2 has no value."""
        field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 1.0, 1.0))
        system = TwoLevelSystem(0.0, 5.0, gamma_re=2.0 * rabi_frequency(RESONANT, field, 0.0))
        with pytest.raises(DegenerateRabiError, match=r"in level_shifts: \|gen_rabi\| < 1e-12$"):
            level_shifts(system, field, 0.0)

    def test_static_tilde_equals_plain(self):
        eff = level_shifts(DETUNED, DET_FIELD, 1.0)
        assert eff.lambda_tilde_plus == eff.lambda_plus
        assert eff.lambda_tilde_minus == eff.lambda_minus

    @pytest.mark.parametrize("seed", range(4))
    def test_sum_and_difference_invariants(self, seed):
        rng = np.random.default_rng(seed)
        system = TwoLevelSystem(
            0.0,
            float(rng.uniform(3.0, 9.0)),
            mu=float(rng.uniform(0.5, 2.0)),
            gamma_re=float(rng.uniform(0.0, 0.4)),
            gamma_im=float(rng.uniform(0.0, 0.4)),
        )
        field = DrivingField(
            float(rng.uniform(2.0, 6.0)),
            EnvelopeSpec.gaussian(float(rng.uniform(0.5, 2.0)), 5.0, 3.0),
        )
        dw = complex_detuning(system, field)
        for t in (2.0, 5.0, 7.5):
            eff = level_shifts(system, field, t)
            assert abs(eff.lambda_plus + eff.lambda_minus - dw) < 1e-12
            assert abs(eff.lambda_plus - eff.lambda_minus - eff.gen_rabi) < 1e-12
            assert abs(eff.omega_G + eff.omega_E - (system.omega_g + system.omega_e)) < 1e-12


class TestEffectiveExcitedFrequency:
    def test_static_resonant_is_stark_shifted_level(self):
        eff = level_shifts(RESONANT, RES_FIELD, 0.0)
        val = effective_excited_frequency(RESONANT, RES_FIELD, 0.0)
        assert val == eff.omega_E

    def test_damping_contribution(self):
        system = TwoLevelSystem(0.0, 5.0, gamma_re=0.2)
        field = DrivingField(5.0, EnvelopeSpec.constant(1.0))
        val = effective_excited_frequency(system, field, 0.0)
        eff = level_shifts(system, field, 0.0)
        assert val == pytest.approx(eff.omega_E - 0.1j, abs=1e-14)

    def test_gaussian_log_slope_contribution(self):
        tau = 10.0
        field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, tau))
        val = effective_excited_frequency(RESONANT, field, tau)
        eff = level_shifts(RESONANT, field, tau)
        assert val == pytest.approx(eff.omega_E - 2j / tau, abs=1e-12)

    def test_field_below_floor(self):
        field = DrivingField(5.0, EnvelopeSpec.flat_top_cos2(1.0, 0.0, 1.0, 2.0))
        with pytest.raises(FieldBelowFloorError, match="field below floor"):
            effective_excited_frequency(RESONANT, field, 10.0)
        with pytest.raises(FieldBelowFloorError, match="field below floor"):
            effective_excited_frequency(RESONANT, field, float("nan"))


class TestDressedAmplitudes:
    def test_bare_limit(self):
        weak = DrivingField(5.0, EnvelopeSpec.constant(1e-7))
        system = TwoLevelSystem(0.0, 6.0)
        real_amp, virt_amp = dressed_amplitudes(system, weak, 0.0, "ground")
        assert abs(real_amp - 1.0) < 1e-12
        assert abs(virt_amp) < 1e-6

    def test_exceptional_point_raises_without_warning(self):
        field = DrivingField(5.0, EnvelopeSpec.constant(0.1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateRabiError, match="exceptional point"):
                dressed_amplitudes(EXCEPTIONAL, field, 0.0)
            for branch in dressed.BRANCHES:
                with pytest.raises(DegenerateRabiError, match="exceptional point"):
                    assemble_bare_state(EXCEPTIONAL, field, PHASES, branch, np.linspace(0, 1, 5))

    def test_resonant_equal_mixing(self):
        real_amp, virt_amp = dressed_amplitudes(RESONANT, RES_FIELD, 0.0, "ground")
        assert real_amp == pytest.approx(np.sqrt(0.5), abs=1e-14)
        assert virt_amp == pytest.approx(np.sqrt(0.5), abs=1e-14)

    def test_matches_eigenvector_oracle(self):
        """(cos, sin) of the complex half-angle is the ground eigenvector of
        the rotating-frame matrix; its eigenvalue is lambda_minus."""
        real_amp, virt_amp = dressed_amplitudes(DETUNED, DET_FIELD, 0.0, "ground")
        evals, evecs = rwa_eigensystem(4.0, complex_detuning(DETUNED, DET_FIELD))
        vec = evecs[:, 0] / evecs[0, 0] * abs(evecs[0, 0])
        assert abs(real_amp - vec[0]) < 1e-12
        assert abs(virt_amp - vec[1]) < 1e-12
        eff = level_shifts(DETUNED, DET_FIELD, 0.0)
        assert abs(evals[0] - eff.lambda_minus) < 1e-12
        # magnitudes also match the halved-Rabi matrix [[0, 2], [2, 3]]
        mags = np.abs(np.linalg.eigh(np.array([[0.0, 2.0], [2.0, 3.0]]))[1][:, 0])
        assert np.allclose(sorted(mags), sorted([abs(real_amp), abs(virt_amp)]), atol=1e-12)

    def test_branches_are_orthogonal_and_normalized(self):
        g = dressed_amplitudes(DETUNED, DET_FIELD, 0.0, "ground")
        e = dressed_amplitudes(DETUNED, DET_FIELD, 0.0, "excited")
        ground_vec = np.array([g[0], g[1]])          # (|g>, |e>) content
        excited_vec = np.array([e[1], e[0]])         # virtual is the |g> content
        assert abs(np.dot(ground_vec, excited_vec)) < 1e-12
        assert abs(np.dot(ground_vec, ground_vec) - 1.0) < 1e-12

    def test_rejects_unknown_branch(self):
        with pytest.raises(ValidationError):
            dressed_amplitudes(DETUNED, DET_FIELD, 0.0, "sideways")


PHASES = InitialPhases(phi_g=0.7, phi_e=-0.4)


def _phase_field(phi0=0.1):
    return DrivingField(5.0, EnvelopeSpec.constant(2.0), PhaseSpec.constant(phi0))


# Damped systems driven on or off resonance, by envelopes that stay above the
# floor on [0, 8]; on resonance with gamma' > 0 the drive may cross the
# exceptional point Omega = gamma'/2.
damped_systems = st.builds(
    lambda gamma_re, gamma_im: TwoLevelSystem(0.0, 5.0, gamma_re=gamma_re, gamma_im=gamma_im),
    st.floats(0.0, 1.0),
    st.floats(-0.2, 0.2),
)
phase_drives = st.builds(
    DrivingField,
    carrier=st.one_of(st.just(5.0), st.floats(3.0, 7.0)),
    envelope=st.builds(
        EnvelopeSpec,
        shape=st.sampled_from(["constant", "gaussian", "sech"]),
        peak=st.floats(0.05, 3.0),
        center=st.floats(3.0, 5.0),
        width=st.floats(1.5, 4.0),
    ),
    phase=phases,
)
SHIFTS = st.floats(-math.pi, math.pi)


class TestDressedPhases:
    def test_initial_constants_ground(self):
        field = _phase_field()
        t = np.linspace(0.0, 5.0, 201)
        first = dressed_phases(RESONANT, field, PHASES, "ground", t)[0]
        phi0 = field.phase.value(0.0)
        assert first.phi_G_r == PHASES.phi_g
        assert first.phi_G_v == PHASES.phi_g + phi0
        assert first.phi_E_r == PHASES.phi_g + phi0
        assert first.phi_E_v == PHASES.phi_g

    def test_initial_constants_excited(self):
        field = _phase_field()
        t = np.linspace(0.0, 5.0, 201)
        first = dressed_phases(RESONANT, field, PHASES, "excited", t)[0]
        phi0 = field.phase.value(0.0)
        assert first.phi_E_r == PHASES.phi_e
        assert first.phi_E_v == PHASES.phi_e - phi0
        assert first.phi_G_r == PHASES.phi_e - phi0
        assert first.phi_G_v == PHASES.phi_e

    def test_static_resonant_linear_phase(self):
        t = np.linspace(0.0, 5.0, 201)
        series = dressed_phases(RESONANT, RES_FIELD, PHASES, "ground", t)
        expected = PHASES.phi_g + (RESONANT.omega_g - 1.0) * t
        np.testing.assert_allclose(series.phi_G_r.real, expected, atol=1e-12)
        np.testing.assert_allclose(series.phi_G_r.imag, 0.0, atol=1e-12)

    @pytest.mark.parametrize("branch", ["ground", "excited"])
    def test_virtual_real_relation(self, branch):
        system = TwoLevelSystem(0.3, 7.0, gamma_re=0.1)
        field = DrivingField(
            6.0, EnvelopeSpec.gaussian(1.5, 4.0, 2.5), PhaseSpec.sinusoidal(0.2, 0.9, phi0=0.4)
        )
        t = np.linspace(0.0, 8.0, 801)
        series = dressed_phases(system, field, PHASES, branch, t)
        full_phase = field.carrier * t + field.phase.value(t)
        np.testing.assert_allclose(series.phi_G_v - series.phi_G_r, full_phase, atol=1e-10)
        np.testing.assert_allclose(series.phi_E_v - series.phi_E_r, -full_phase, atol=1e-10)

    @pytest.mark.parametrize("branch", ["ground", "excited"])
    @PROPERTY
    @given(system=damped_systems, field=phase_drives, shift=SHIFTS)
    def test_own_phase_covariance(self, branch, system, field, shift):
        """Shifting the branch's own initial phase shifts all four outputs by
        exactly that constant; the other initial phase is inert."""
        t = np.linspace(0.0, 8.0, 401)
        base = dressed_phases(system, field, InitialPhases(0.2, -0.1), branch, t)
        if branch == "ground":
            moved = dressed_phases(system, field, InitialPhases(0.2 + shift, -0.1), branch, t)
            inert = dressed_phases(system, field, InitialPhases(0.2, -0.1 + shift), branch, t)
        else:
            moved = dressed_phases(system, field, InitialPhases(0.2, -0.1 + shift), branch, t)
            inert = dressed_phases(system, field, InitialPhases(0.2 + shift, -0.1), branch, t)
        for name in ("phi_G_r", "phi_G_v", "phi_E_r", "phi_E_v"):
            np.testing.assert_allclose(
                getattr(moved, name) - getattr(base, name), shift, atol=1e-12
            )
            np.testing.assert_array_equal(getattr(inert, name), getattr(base, name))

    @pytest.mark.parametrize("branch", ["ground", "excited"])
    @PROPERTY
    @given(system=damped_systems, field=phase_drives, delta=SHIFTS)
    def test_optical_phase_additivity(self, branch, system, field, delta):
        t = np.linspace(0.0, 8.0, 401)
        moved_field = dataclasses.replace(
            field, phase=dataclasses.replace(field.phase, phi0=field.phase.phi0 + delta)
        )
        base = dressed_phases(system, field, PHASES, branch, t)
        moved = dressed_phases(system, moved_field, PHASES, branch, t)
        plus = ("phi_G_v", "phi_E_r") if branch == "ground" else ()
        minus = ("phi_E_v", "phi_G_r") if branch == "excited" else ()
        for name in ("phi_G_r", "phi_G_v", "phi_E_r", "phi_E_v"):
            diff = getattr(moved, name) - getattr(base, name)
            expect = delta if name in plus else (-delta if name in minus else 0.0)
            np.testing.assert_allclose(diff, expect, atol=1e-12)

    def test_quadrature_convergence(self):
        system = TwoLevelSystem(0.0, 7.0, gamma_re=0.05)
        field = DrivingField(6.0, EnvelopeSpec.gaussian(1.5, 4.0, 2.5))
        coarse = dressed_phases(system, field, PHASES, "ground", np.linspace(0.0, 8.0, 801))
        fine = dressed_phases(system, field, PHASES, "ground", np.linspace(0.0, 8.0, 1601))
        assert np.max(np.abs(fine.phi_G_r[::2] - coarse.phi_G_r)) < 1e-8
        assert np.max(np.abs(fine.phi_E_r[::2] - coarse.phi_E_r)) < 1e-8

    def test_grid_errors(self):
        with pytest.raises(GridError):
            dressed_phases(RESONANT, RES_FIELD, PHASES, "ground", np.array([1.0, 2.0, 3.0]))
        with pytest.raises(GridError, match="non-monotone"):
            dressed_phases(RESONANT, RES_FIELD, PHASES, "ground", np.array([0.0, 2.0, 1.0]))

    @pytest.mark.filterwarnings("error")
    def test_subnormal_spacing_is_rejected_without_a_warning(self):
        """Intervals of 1e-104 make each Simpson denominator h0*h1*(h0 + h1)
        about 2e-312, subnormal: the phases came out NaN, with numpy's
        divide warnings."""
        t = np.linspace(0.0, 1e-102, 101)
        for evaluate in (dressed_phases, assemble_bare_state):
            with pytest.raises(GridError, match=r"Simpson denominator h0\*h1\*\(h0 \+ h1\) a normal float"):
                evaluate(DETUNED, DET_FIELD, PHASES, "ground", t)

    def test_series_is_a_sequence_of_phase_sets(self):
        series = dressed_phases(DETUNED, DET_FIELD, PHASES, "ground", np.linspace(0.0, 1.0, 5))
        assert len(series) == 5
        assert list(series) == [series[i] for i in range(5)]
        assert series[4].phi_G_r == series.phi_G_r[4]

    def test_detuning_whose_square_overflows_is_rejected(self):
        """From |dw~| ~ 1.3e154 dw~^2 overflows and the phases would be NaN."""
        field = DrivingField(2.0, EnvelopeSpec.gaussian(1.0, 600.0, 600.0))
        t = np.linspace(0.0, 1200.0, 241)
        series = dressed_phases(TwoLevelSystem(0.0, 1e154), field, PHASES, "ground", t)
        for phase in (series.phi_G_r, series.phi_G_v, series.phi_E_r, series.phi_E_v):
            assert np.all(np.isfinite(phase))
        for evaluate in (dressed_phases, assemble_bare_state):
            with pytest.raises(ValidationError, match="generalized Rabi frequency is not finite"):
                evaluate(TwoLevelSystem(0.0, 1e160), field, PHASES, "ground", t)

    @pytest.mark.filterwarnings("error")
    def test_detuning_whose_square_overflows_is_rejected_without_a_warning(self):
        """The rejection is the only report: numpy warns of nothing first."""
        field = DrivingField(2.0, EnvelopeSpec.gaussian(1.0, 600.0, 600.0))
        t = np.linspace(0.0, 1200.0, 241)
        for evaluate in (dressed_phases, assemble_bare_state):
            with pytest.raises(ValidationError, match="generalized Rabi frequency is not finite"):
                evaluate(TwoLevelSystem(0.0, 1e160), field, PHASES, "ground", t)

    def test_field_below_floor(self):
        field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 0.1))
        with pytest.raises(FieldBelowFloorError):
            dressed_phases(RESONANT, field, PHASES, "ground", np.linspace(0.0, 10.0, 64))


class TestAssembleBareState:
    def test_composition_at_zero(self):
        field = _phase_field(0.25)
        t = np.linspace(0.0, 2.0, 65)
        traj = assemble_bare_state(DETUNED, field, InitialPhases(0.0, 0.0), "ground", t)
        real_amp, virt_amp = dressed_amplitudes(DETUNED, field, 0.0, "ground")
        assert traj.c_g[0] == pytest.approx(real_amp, abs=1e-14)
        assert traj.c_e[0] == pytest.approx(virt_amp * np.exp(-0.25j), abs=1e-14)

    def test_weak_field_reduces_to_bare_evolution(self):
        system = TwoLevelSystem(0.7, 6.0)
        weak = DrivingField(4.0, EnvelopeSpec.constant(1e-6))
        t = np.linspace(0.0, 3.0, 301)
        traj = assemble_bare_state(system, weak, InitialPhases(0.4, 0.0), "ground", t)
        expected = np.exp(-1j * (0.4 + system.omega_g * t))
        assert np.max(np.abs(traj.c_g - expected)) < 1e-6
        assert np.max(np.abs(traj.c_e)) < 1e-6

    def test_adiabatic_pulse_matches_oracle(self):
        """Ground-branch assembly against the brute-force propagator."""
        from dressedphase.dressed import adiabatic_report

        system = TwoLevelSystem(0.0, 12.0)
        tau = 150.0
        field = DrivingField(2.0, EnvelopeSpec.gaussian(1.0, tau, tau))
        t = np.linspace(0.0, 2 * tau, 1201)
        margin = adiabatic_report(system, field, t, 1).margin
        assembled = assemble_bare_state(system, field, InitialPhases(0.0, 0.0), "ground", t)
        oracle = rwa_propagate(
            system, field, assembled[0], t, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
        )
        comparison = compare_trajectories(assembled, oracle)
        assert comparison.max_amplitude_error <= 10.0 * margin

    def test_excited_branch_phase_tracks_oracle_under_chirp(self):
        from dressedphase.dressed import adiabatic_report

        system = TwoLevelSystem(0.0, 12.0)
        tau = 150.0
        field = DrivingField(
            2.0, EnvelopeSpec.gaussian(1.0, tau, tau), PhaseSpec.linear_chirp(5e-4)
        )
        t = np.linspace(0.0, 2 * tau, 1201)
        margin = adiabatic_report(system, field, t, 1).margin
        series = dressed_phases(system, field, InitialPhases(0.0, 0.3), "excited", t)
        assembled = assemble_bare_state(system, field, InitialPhases(0.0, 0.3), "excited", t)
        oracle = rwa_propagate(
            system, field, assembled[0], t, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
        )
        drift = np.unwrap(np.angle(oracle.c_e)) - np.unwrap(-series.phi_E_r.real)
        drift -= drift[0]
        assert np.max(np.abs(drift)) <= margin

    @pytest.mark.parametrize("branch", ["ground", "excited"])
    @pytest.mark.parametrize(
        "system,field",
        [
            (
                TwoLevelSystem(0.0, 12.0, gamma_re=0.01, gamma_im=0.003),
                DrivingField(
                    2.0, EnvelopeSpec.gaussian(1.0, 150.0, 150.0), PhaseSpec.linear_chirp(5e-4)
                ),
            ),
            (
                TwoLevelSystem(0.2, 5.0, mu=1.3, gamma_re=0.4),
                DrivingField(4.8, EnvelopeSpec.sech(0.9, 150.0, 40.0)),
            ),
        ],
        ids=["chirped_damped_gaussian", "near_resonant_sech"],
    )
    def test_equals_public_phases_and_amplitudes(self, system, field, branch):
        """The shared-Rabi assembly equals composing the public functions, bit for bit."""
        t = np.linspace(0.0, 300.0, 1202)
        phases = InitialPhases(0.3, -0.7)
        series = dressed_phases(system, field, phases, branch, t)
        real_amp, virt_amp = dressed_amplitudes(system, field, series.times, branch)
        if branch == "ground":
            c_g = real_amp * np.exp(-1j * series.phi_G_r)
            c_e = virt_amp * np.exp(-1j * series.phi_G_v)
        else:
            c_e = real_amp * np.exp(-1j * series.phi_E_r)
            c_g = virt_amp * np.exp(-1j * series.phi_E_v)
        traj = assemble_bare_state(system, field, phases, branch, t)
        for got, want in ((traj.times, series.times), (traj.c_g, c_g), (traj.c_e, c_e)):
            np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


# The grid-wide calls run over blocks of numerics._BLOCK samples; a fault
# that first shows in a later block raises what the whole-grid call raises.
def _raised(evaluate):
    """Type and message of the error ``evaluate()`` raises."""
    with pytest.raises(Exception) as info:
        evaluate()
    return type(info.value), str(info.value)


_nearer_root = dressed._continued_rabi


def _grid_calls(system, field):
    return {
        "dressed_phases": lambda t: dressed_phases(system, field, PHASES, "ground", t),
        "ground": lambda t: assemble_bare_state(system, field, PHASES, "ground", t),
        "excited": lambda t: assemble_bare_state(system, field, PHASES, "excited", t),
        "adiabatic_report": lambda t: adiabatic_report(system, field, t, 3),
    }


def _two_faults(system, field, t, zero, infinite):
    """The nearer root, but 0 where Omega is in ``zero`` and inf from ``infinite`` on, by Omega on ``t``.

    Omega rises along ``t``; like the true root, the fault that is not
    finite sits at the largest Omega.
    """
    omega = rabi_frequency(system, field, t, 0)

    def rabi(dw, om):
        w = _nearer_root(dw, om)
        w = np.where((om >= omega[zero.start]) & (om < omega[zero.stop]), 0.0, w)
        return np.where(om >= omega[infinite], np.inf, w)

    return rabi


RISING = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 4.4, 3.0))
RISING_GRID = np.linspace(0.0, 4.4, 32)

LATE_FAULTS = {
    # Omega = e^-t^2 passes the 1e-9 floor at t = 4.55.
    "below_floor": (
        RESONANT,
        DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 0.0, 1.0)),
        np.linspace(0.0, 10.0, 100),
        _nearer_root,
        FieldBelowFloorError,
        ("dressed_phases", "ground", "excited", "adiabatic_report"),
    ),
    # Omega rises to the exceptional point 0.1 at the last sample, t = 4.5.
    "degenerate_half_angle": (
        EXCEPTIONAL,
        DrivingField(5.0, EnvelopeSpec.gaussian(0.1, 4.5, 3.0)),
        np.linspace(0.0, 4.5, 100),
        _nearer_root,
        DegenerateRabiError,
        ("ground", "excited"),
    ),
    # Omega^2 overflows from Omega ~ 1.3e154, past t = 0.73.
    "rabi_not_finite": (
        RESONANT,
        DrivingField(5.0, EnvelopeSpec.gaussian(1e160, 4.4, 1.0)),
        np.linspace(0.0, 4.4, 100),
        _nearer_root,
        ValidationError,
        ("dressed_phases", "ground", "excited"),
    ),
    # A degenerate half-angle in block 1 and an infinite root in block 3 (of
    # 8 samples each): the whole grid checks the root before any half-angle.
    "degenerate_then_not_finite": (
        RESONANT,
        RISING,
        RISING_GRID,
        _two_faults(RESONANT, RISING, RISING_GRID, slice(10, 14), 24),
        ValidationError,
        ("dressed_phases", "ground", "excited"),
    ),
}


@pytest.mark.parametrize("system,field,t,rabi,error,names", list(LATE_FAULTS.values()), ids=list(LATE_FAULTS))
def test_late_fault_raises_as_on_the_whole_grid(system, field, t, rabi, error, names):
    calls = _grid_calls(system, field)
    with mock.patch.object(dressed, "_continued_rabi", rabi):
        for name in names:
            calls[name](t[:9])  # the first block of 8 alone is sound
            whole = _raised(lambda: calls[name](t))
            assert whole[0] is error
            with mock.patch.object(numerics, "_BLOCK", 8):
                assert _raised(lambda: calls[name](t)) == whole


@pytest.mark.parametrize("call,bound", [("ground", 66), ("excited", 66), ("dressed_phases", 100)])
def test_closed_form_memory_per_sample(call, bound):
    # Each block's phase integrals continue the running sum of the block
    # before, so no whole-grid generalized Rabi frequency or phase integral
    # is kept: the outputs, Omega and block temporaries stay under ``bound``
    # bytes per sample.
    t = np.linspace(0.0, 1200.0, 16 * numerics._BLOCK + 1)
    field = DrivingField(2.0, EnvelopeSpec.gaussian(1.0, 600.0, 600.0), PhaseSpec.linear_chirp(1e-3))
    evaluate = _grid_calls(TwoLevelSystem(0.0, 12.0), field)[call]
    evaluate(t)  # warm-up
    tracemalloc.start()
    try:
        evaluate(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * t.size
