import math

import numpy as np
import pytest

from dressedphase.errors import (
    EdgeLeakageError,
    GridError,
    InsufficientFramesError,
    ValidationError,
)
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
from oracles import free_gaussian, free_gaussian_sigma, harmonic_ground


def grid(n, length, x_min):
    dx = length / n
    return x_min + dx * np.arange(n), dx


def wavefunction(values, x_min, dx, mass=1.0, t=0.0):
    return GridWavefunction(x_min, dx, values, mass=mass, t=t)


class TestSolver:
    def test_free_gaussian_matches_closed_form(self):
        x, dx = grid(2048, 40.0, -20.0)
        psi0 = wavefunction(free_gaussian(x, 0.0, k0=0.6), -20.0, dx)
        frames = split_step_solve(psi0, PotentialSpec.free(), t_final=2.0, dt=0.02)
        assert len(frames) == 101
        err = np.max(np.abs(frames[-1].values - free_gaussian(x, 2.0, k0=0.6)))
        assert err <= 1e-8

    def test_harmonic_ground_state_is_stationary(self):
        # Splitting error scales as dt^2; this step size puts the density
        # drift below the 1e-10 target with margin.
        x, dx = grid(1024, 16.0, -8.0)
        psi0 = wavefunction(harmonic_ground(x) + 0.0j, -8.0, dx)
        frames = split_step_solve(
            psi0, PotentialSpec.harmonic(1.0, 1.0), t_final=0.1, dt=2.5e-5
        )
        density0 = np.abs(frames[0].values) ** 2
        drift = max(np.max(np.abs(np.abs(f.values) ** 2 - density0)) for f in frames)
        assert drift < 1e-10
        # and the splitting conserves the norm to roundoff
        norms = [f.norm() for f in frames]
        assert max(abs(n - norms[0]) for n in norms) < 1e-12

    def test_windowed_plane_wave_norm_conservation(self):
        x, dx = grid(2048, 80.0, -40.0)
        window = np.exp(-((x + 5.0) ** 2) / (2.0 * 5.0**2))
        psi0 = wavefunction(window * np.exp(1j * 1.5 * x), -40.0, dx)
        frames = split_step_solve(psi0, PotentialSpec.free(), t_final=1.0, dt=0.01)
        assert abs(frames[-1].norm() - frames[0].norm()) < 1e-12

    def test_edge_leakage_raises(self):
        x, dx = grid(512, 20.0, -10.0)
        fast = wavefunction(free_gaussian(x, 0.0, x0=6.0, sigma0=1.0, k0=8.0), -10.0, dx)
        with pytest.raises(EdgeLeakageError, match="edge leakage"):
            split_step_solve(fast, PotentialSpec.free(), t_final=2.0, dt=0.01)

    def test_initial_edge_check(self):
        x, dx = grid(64, 8.0, -4.0)
        wide = wavefunction(np.exp(-(x**2) / 64.0) + 0.0j, -4.0, dx)
        with pytest.raises(EdgeLeakageError):
            split_step_solve(wide, PotentialSpec.free(), t_final=0.1, dt=0.01)

    def test_potential_phase_must_be_resolved(self):
        # From a half-step phase 0.5*dt*max|V| of 2**52 rad on, rounding alone
        # moves the phase by >= 1 rad: the potential is named before any step.
        x, dx = grid(256, 20.0, -10.0)
        psi0 = wavefunction(free_gaussian(x, 0.0), -10.0, dx)
        with pytest.raises(ValidationError, match="potential"):
            split_step_solve(psi0, PotentialSpec.harmonic(1.0, 1e150), t_final=0.04, dt=0.02)
        at_bound = PotentialSpec.tabulated(np.full(256, 2.0**54))
        with pytest.raises(ValidationError, match="potential"):
            split_step_solve(psi0, at_bound, t_final=1.0, dt=0.5)
        below = PotentialSpec.tabulated(np.full(256, np.nextafter(2.0**54, 0.0)))
        assert len(split_step_solve(psi0, below, t_final=1.0, dt=0.5)) == 3

    def test_dt_must_divide_t_final(self):
        x, dx = grid(256, 20.0, -10.0)
        psi0 = wavefunction(free_gaussian(x, 0.0), -10.0, dx)
        with pytest.raises(GridError):
            split_step_solve(psi0, PotentialSpec.free(), t_final=1.0, dt=0.3)


class TestPolarDecomposition:
    def test_plane_wave(self):
        n, length = 1024, 40.0
        x, dx = grid(n, length, -20.0)
        k = 2.0 * math.pi * round(3.0 * length / (2.0 * math.pi)) / length
        fields = polar_decompose(wavefunction(np.exp(1j * k * x), -20.0, dx))
        assert np.max(np.abs(fields.R - 1.0)) < 1e-14
        # S equals k x up to one global 2*pi*n offset
        offset = fields.S[0] - k * x[0]
        assert np.max(np.abs(fields.S - k * x - offset)) < 1e-10
        assert fields.valid.all()

    def test_real_gaussian_has_zero_phase(self):
        x, dx = grid(512, 40.0, -20.0)
        fields = polar_decompose(wavefunction(np.exp(-(x**2) / 4.0) + 0.0j, -20.0, dx))
        assert np.nanmax(np.abs(fields.S[fields.valid])) == 0.0

    def test_node_splits_valid_regions(self):
        x, dx = grid(1024, 16.0, -8.0)
        excited = x * np.exp(-0.5 * x**2)
        fields = polar_decompose(wavefunction(excited + 0.0j, -8.0, dx))
        from dressedphase.hydro import _valid_runs

        runs = _valid_runs(fields.valid)
        assert len(runs) == 2
        for start, stop in runs:
            segment = fields.S[start:stop]
            assert np.nanmax(segment) - np.nanmin(segment) < 1e-12

    def test_reconstruction_inverts_decomposition(self):
        x, dx = grid(512, 40.0, -20.0)
        psi = free_gaussian(x, 0.7, sigma0=1.3, k0=0.9)
        fields = polar_decompose(wavefunction(psi, -20.0, dx))
        rebuilt = fields.reconstruct()
        v = fields.valid
        assert np.max(np.abs(rebuilt[v] - psi[v])) < 1e-12

    def test_floor_validation(self):
        x, dx = grid(64, 8.0, -4.0)
        psi = wavefunction(np.exp(-(x**2)) + 0.0j, -4.0, dx)
        with pytest.raises(ValidationError):
            polar_decompose(psi, r_floor=0.0)


class TestQuantumPotential:
    def test_plane_wave_is_zero(self):
        x, dx = grid(512, 40.0, -20.0)
        k = 2.0 * math.pi * 19.0 / 40.0
        fields = polar_decompose(wavefunction(np.exp(1j * k * x), -20.0, dx))
        u = quantum_potential(fields, 1.0)
        assert np.nanmax(np.abs(u)) < 1e-10

    def test_harmonic_ground_state_energy_identity(self):
        n = 8192
        x, dx = grid(n, 8.0, -4.0)
        fields = polar_decompose(wavefunction(harmonic_ground(x) + 0.0j, -4.0, dx))
        u = quantum_potential(fields, 1.0)
        total = u + 0.5 * x**2
        central = slice(int(0.1 * n), int(0.9 * n))
        assert np.nanstd(total[central]) <= 1e-6
        assert np.nanmean(total[central]) == pytest.approx(0.5, abs=1e-6)

    def test_free_gaussian_against_closed_form(self):
        n = 16384
        x, dx = grid(n, 48.0, -24.0)
        t, s0, k0 = 1.5, 2.0, 0.4
        psi = free_gaussian(x, t, sigma0=s0, k0=k0)
        fields = polar_decompose(
            wavefunction(psi, -24.0, dx), r_floor=1e-3 * np.abs(psi).max()
        )
        u = quantum_potential(fields, 1.0)
        st2 = free_gaussian_sigma(t, sigma0=s0) ** 2
        center = k0 * t
        exact = -0.5 * ((x - center) ** 2 / (4.0 * st2**2) - 1.0 / (2.0 * st2))
        assert np.nanmax(np.abs(u - exact)) <= 1e-6

    def test_scale_invariance(self):
        x, dx = grid(1024, 48.0, -24.0)
        psi = free_gaussian(x, 0.8, sigma0=2.0)
        floor = 1e-4
        base = quantum_potential(
            polar_decompose(wavefunction(psi, -24.0, dx), r_floor=floor * np.abs(psi).max()), 1.0
        )
        scaled_psi = (1.7 - 0.3j) * psi
        scaled = quantum_potential(
            polar_decompose(
                wavefunction(scaled_psi, -24.0, dx), r_floor=floor * np.abs(scaled_psi).max()
            ),
            1.0,
        )
        assert np.nanmax(np.abs(scaled - base)) < 1e-12


class TestMomentumField:
    def test_plane_wave_momentum(self):
        x, dx = grid(512, 40.0, -20.0)
        k = 2.0 * math.pi * 19.0 / 40.0  # close to 3, grid-commensurate
        fields = polar_decompose(wavefunction(np.exp(1j * k * x), -20.0, dx))
        p = momentum_field(fields)
        assert np.nanmax(np.abs(p - k)) < 1e-8

    def test_real_gaussian_is_at_rest(self):
        x, dx = grid(512, 40.0, -20.0)
        fields = polar_decompose(wavefunction(np.exp(-(x**2) / 4.0) + 0.0j, -20.0, dx))
        assert np.nanmax(np.abs(momentum_field(fields))) < 1e-12

    def test_galilean_boost_shifts_momentum(self):
        x, dx = grid(2048, 48.0, -24.0)
        psi = free_gaussian(x, 0.6, sigma0=2.0, k0=0.5)
        k0 = 0.9
        floor = 1e-4 * np.abs(psi).max()
        p_base = momentum_field(polar_decompose(wavefunction(psi, -24.0, dx), r_floor=floor))
        p_boost = momentum_field(
            polar_decompose(wavefunction(psi * np.exp(1j * k0 * x), -24.0, dx), r_floor=floor)
        )
        both = np.isfinite(p_base) & np.isfinite(p_boost)
        assert np.max(np.abs(p_boost[both] - p_base[both] - k0)) < 1e-8


class TestResiduals:
    def test_stationary_state_hamilton_jacobi(self):
        n = 2**17
        x, dx = grid(n, 14.0, -7.0)
        gs = harmonic_ground(x)
        frames = [
            wavefunction(gs * np.exp(-0.5j * t), -7.0, dx, t=t) for t in (0.0, 0.01, 0.02)
        ]
        res = hj_residual(frames, PotentialSpec.harmonic(1.0, 1.0), r_floor=1e-6 * gs.max())
        assert res.l2.max() <= 1e-6

    def test_stationary_state_continuity(self):
        x, dx = grid(2048, 16.0, -8.0)
        gs = harmonic_ground(x)
        frames = [
            wavefunction(gs * np.exp(-0.5j * t), -8.0, dx, t=t) for t in (0.0, 0.01, 0.02)
        ]
        res = continuity_residual(frames, 1.0)
        assert res.l2.max() <= 1e-8

    def test_plane_wave_identity(self):
        n, length = 1024, 40.0
        x, dx = grid(n, length, -20.0)
        k = 2.0 * math.pi * 19.0 / length
        energy = 0.5 * k**2
        frames = [
            wavefunction(np.exp(1j * (k * x - energy * t)), -20.0, dx, t=t)
            for t in (0.0, 0.005, 0.01)
        ]
        res = hj_residual(frames, PotentialSpec.free())
        assert res.l2.max() <= 1e-10

    def _solver_residuals(self, n, dt, n_steps=40):
        dx = 40.0 / n
        x = -20.0 + dx * np.arange(n)
        psi0 = wavefunction(free_gaussian(x, 0.0, sigma0=1.5, k0=0.6), -20.0, dx)
        frames = split_step_solve(psi0, PotentialSpec.free(), t_final=n_steps * dt, dt=dt)
        mid = len(frames) // 2
        hj = hj_residual(frames[mid - 1 : mid + 2], PotentialSpec.free())
        cont = continuity_residual(frames[mid - 1 : mid + 2], 1.0)
        return hj.l2[0], cont.l2[0]

    def test_second_order_convergence(self):
        hj_coarse, cont_coarse = self._solver_residuals(1024, 0.02, n_steps=40)
        hj_fine, cont_fine = self._solver_residuals(2048, 0.01, n_steps=80)
        assert hj_coarse / hj_fine >= 3.5
        assert cont_coarse / cont_fine >= 3.5

    def test_norm_constant_across_frames(self):
        x, dx = grid(1024, 40.0, -20.0)
        psi0 = wavefunction(free_gaussian(x, 0.0, sigma0=1.5), -20.0, dx)
        frames = split_step_solve(psi0, PotentialSpec.free(), t_final=1.0, dt=0.02)
        norms = np.array([f.norm() for f in frames])
        assert np.max(np.abs(norms - norms[0])) < 1e-10

    def test_amplitude_and_phase_codetermine_each_other(self):
        """Replacing either polar field by a trivial one breaks both equations:
        the solver's R and S only satisfy them together."""
        x, dx = grid(1024, 40.0, -20.0)
        psi0 = wavefunction(free_gaussian(x, 0.0, sigma0=1.5, k0=0.8), -20.0, dx)
        frames = split_step_solve(psi0, PotentialSpec.free(), t_final=0.4, dt=0.01)
        mid = len(frames) // 2
        triple = frames[mid - 1 : mid + 2]
        true_hj = hj_residual(triple, PotentialSpec.free()).l2[0]
        true_cont = continuity_residual(triple, 1.0).l2[0]

        phase_stripped = [
            wavefunction(np.abs(f.values) + 0.0j, -20.0, dx, t=f.t) for f in triple
        ]
        amp_stripped = [
            wavefunction(
                np.exp(1j * np.angle(f.values)) * np.exp(-(x**2) / 200.0), -20.0, dx, t=f.t
            )
            for f in triple
        ]
        stripped_cont = continuity_residual(phase_stripped, 1.0).l2[0]
        stripped_hj = hj_residual(amp_stripped, PotentialSpec.free()).l2[0]
        assert stripped_cont > 100.0 * true_cont
        assert stripped_hj > 100.0 * true_hj

    def test_insufficient_frames(self):
        x, dx = grid(256, 20.0, -10.0)
        psi0 = wavefunction(free_gaussian(x, 0.0), -10.0, dx)
        with pytest.raises(InsufficientFramesError, match="insufficient frames"):
            hj_residual([psi0, psi0], PotentialSpec.free())


def test_grid_wavefunction_validation():
    with pytest.raises(ValidationError):
        GridWavefunction(0.0, 0.1, np.ones(100, dtype=complex))  # not a power of two
    with pytest.raises(ValidationError):
        GridWavefunction(0.0, 0.1, np.ones(8, dtype=complex))  # too few
    with pytest.raises(ValidationError):
        GridWavefunction(0.0, -0.1, np.ones(16, dtype=complex))
    with pytest.raises(ValidationError):
        PotentialSpec("coulomb")
    with pytest.raises(ValidationError):
        PotentialSpec.harmonic(1.0, -1.0)
    with pytest.raises(ValidationError):
        PotentialSpec.tabulated([np.nan, 0.0])
