"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single pass/fail line (visible with ``pytest -s``) before
asserting, so a red criterion still reports its measured numbers.
"""

import math
import time

import numpy as np
import pytest

from dressedphase.dressed import (
    adiabatic_report,
    assemble_bare_state,
    born_fock_value,
    dressed_phases,
    usual_adiabatic_value,
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
from dressedphase.interferometry import PulsePairConfig, fit_fringe, phase_scan, pulse_pair_population
from dressedphase.model import (
    DrivingField,
    EnvelopeSpec,
    InitialPhases,
    PhaseSpec,
    TwoLevelSystem,
    rabi_frequency,
)
from dressedphase.propagator import (
    IntegratorConfig,
    TwoLevelState,
    compare_trajectories,
    full_field_propagate,
    rwa_propagate,
)
from oracles import free_gaussian, harmonic_ground


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {detail} -> {'PASS' if ok else 'FAIL'}", flush=True)


def test_a1_norm_conservation():
    """A1: gamma = 0, resonant Rabi, 100 periods, rel_tol 1e-10 -> drift < 1e-9, < 1 s."""
    system = TwoLevelSystem(0.0, 5.0, mu=1.0)
    field = DrivingField(5.0, EnvelopeSpec.constant(1.0))
    period = 2.0 * math.pi
    t = np.linspace(0.0, 100.0 * period, 2001)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12, max_step=period / 200.0)
    started = time.perf_counter()
    traj = rwa_propagate(system, field, TwoLevelState(1.0, 0.0), t, cfg)
    elapsed = time.perf_counter() - started
    drift = float(np.max(np.abs(traj.norm - 1.0)))
    ok = drift < 1e-9 and elapsed < 1.0
    report("A1 norm conservation", ok, f"drift={drift:.2e} (<1e-9), runtime={elapsed:.2f}s (<1s)")
    assert drift < 1e-9
    assert elapsed < 1.0


def test_a2_rwa_validity():
    """A2: full-field vs RWA deviation strictly decreasing in w/Omega, < 0.05 at 50."""
    started = time.perf_counter()
    deviations = []
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    for ratio in (25.0, 50.0, 100.0):
        system = TwoLevelSystem(0.0, ratio, mu=1.0)
        field = DrivingField(ratio, EnvelopeSpec.constant(1.0))
        # dense enough to resolve the counter-rotating ripple at 2*carrier
        t = np.linspace(0.0, 2.0 * math.pi, 1601)
        full = full_field_propagate(system, field, TwoLevelState(1.0, 0.0), t, cfg)
        rwa = rwa_propagate(system, field, TwoLevelState(1.0, 0.0), t, cfg)
        deviations.append(float(np.max(np.abs(full.population_e - rwa.population_e))))
    elapsed = time.perf_counter() - started
    decreasing = deviations[0] > deviations[1] > deviations[2]
    ok = decreasing and deviations[1] < 0.05 and elapsed < 10.0
    report(
        "A2 RWA validity",
        ok,
        f"deviations={['%.4f' % d for d in deviations]} (decreasing, mid<0.05), "
        f"runtime={elapsed:.2f}s (<10s)",
    )
    assert decreasing
    assert deviations[1] < 0.05
    assert elapsed < 10.0


def _dressed_vs_oracle(tau: float):
    system = TwoLevelSystem(0.0, 12.0, mu=1.0)  # detuning 10 x peak Rabi
    field = DrivingField(2.0, EnvelopeSpec.gaussian(1.0, tau, tau))
    t = np.linspace(0.0, 2.0 * tau, 2401)
    margin = adiabatic_report(system, field, t, 1).margin
    assembled = assemble_bare_state(system, field, InitialPhases(0.0, 0.0), "ground", t)
    oracle = rwa_propagate(
        system, field, assembled[0], t, IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13)
    )
    return margin, compare_trajectories(assembled, oracle).max_amplitude_error


def test_a3_dressed_vs_oracle():
    """A3: Gaussian pulse, detuning 10x peak Rabi, margin <= 1e-2 -> error <= 10*margin,
    and stretching the pulse 2x cuts the error by 2x within a factor of 2; < 5 s."""
    started = time.perf_counter()
    margin, error = _dressed_vs_oracle(600.0)
    margin2, error2 = _dressed_vs_oracle(1200.0)
    elapsed = time.perf_counter() - started
    ratio = error / error2
    ok = (
        margin <= 1e-2
        and error <= 10.0 * margin
        and margin2 < margin
        and 1.0 <= ratio <= 4.0
        and elapsed < 5.0
    )
    report(
        "A3 dressed vs oracle",
        ok,
        f"margin={margin:.2e} (<=1e-2), error={error:.2e} (<={10.0 * margin:.1e}), "
        f"stretch ratio={ratio:.2f} (in [1,4]), runtime={elapsed:.2f}s (<5s)",
    )
    assert margin <= 1e-2
    assert error <= 10.0 * margin
    assert 1.0 <= ratio <= 4.0
    assert elapsed < 5.0


def test_a4_phase_causality():
    """A4: shifting the branch's own initial phase moves all four phases by exactly
    that constant (<= 1e-12); the other branch's phase changes nothing."""
    system = TwoLevelSystem(0.0, 7.0, mu=1.0)
    field = DrivingField(6.0, EnvelopeSpec.gaussian(1.0, 4.0, 2.5))
    t = np.linspace(0.0, 8.0, 801)
    shift = 0.7071
    worst = 0.0
    exact_inert = True
    for branch in ("ground", "excited"):
        base = dressed_phases(system, field, InitialPhases(0.2, -0.4), branch, t)
        if branch == "ground":
            moved = dressed_phases(system, field, InitialPhases(0.2 + shift, -0.4), branch, t)
            inert = dressed_phases(system, field, InitialPhases(0.2, -0.4 + shift), branch, t)
        else:
            moved = dressed_phases(system, field, InitialPhases(0.2, -0.4 + shift), branch, t)
            inert = dressed_phases(system, field, InitialPhases(0.2 + shift, -0.4), branch, t)
        for name in ("phi_G_r", "phi_G_v", "phi_E_r", "phi_E_v"):
            worst = max(
                worst,
                float(np.max(np.abs(getattr(moved, name) - getattr(base, name) - shift))),
            )
            exact_inert &= bool(
                np.array_equal(getattr(inert, name), getattr(base, name))
            )
    ok = worst <= 1e-12 and exact_inert
    report(
        "A4 phase causality",
        ok,
        f"max covariance deviation={worst:.2e} (<=1e-12), other-branch phase inert={exact_inert}",
    )
    assert worst <= 1e-12
    assert exact_inert


def test_a5_optical_phase_additivity():
    """A5: a constant offset on phi(t) shifts Phi_G_v and Phi_E_r by exactly that
    offset in the ground branch and leaves Phi_G_r, Phi_E_v unchanged (<= 1e-12)."""
    system = TwoLevelSystem(0.0, 7.0, mu=1.0)
    delta = 0.83
    phases = InitialPhases(0.2, -0.4)

    def field_with(offset):
        return DrivingField(
            6.0,
            EnvelopeSpec.gaussian(1.0, 4.0, 2.5),
            PhaseSpec.linear_chirp(0.01, phi0=0.2 + offset),
        )

    t = np.linspace(0.0, 8.0, 801)
    worst = 0.0
    base = dressed_phases(system, field_with(0.0), phases, "ground", t)
    moved = dressed_phases(system, field_with(delta), phases, "ground", t)
    for name, expect in (
        ("phi_G_v", delta),
        ("phi_E_r", delta),
        ("phi_G_r", 0.0),
        ("phi_E_v", 0.0),
    ):
        worst = max(
            worst, float(np.max(np.abs(getattr(moved, name) - getattr(base, name) - expect)))
        )
    ok = worst <= 1e-12
    report("A5 optical-phase additivity", ok, f"max deviation={worst:.2e} (<=1e-12)")
    assert worst <= 1e-12


def test_a6_constant_phase_observability():
    """A6: weak lossless pulse pair -> visibility >= 0.999 and destructive/constructive
    <= 1e-3; with decay gamma'*delay = 1 the visibility is strictly lower; < 10 s/scan."""
    width = 2.0
    delay = 30.0
    peak = 0.04 * math.pi / (width * math.sqrt(math.pi))
    base = DrivingField(5.0, EnvelopeSpec.gaussian(peak, 0.0, width))
    pair = PulsePairConfig(base, delay=delay, rel_phase=0.0)
    cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-14)
    lossless_system = TwoLevelSystem(0.0, 5.0, mu=1.0)

    started = time.perf_counter()
    deltas = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
    record = phase_scan(lossless_system, pair, deltas, cfg)
    scan_time = time.perf_counter() - started

    _, _, delta0, _ = fit_fringe(record)
    constructive = pulse_pair_population(
        lossless_system, PulsePairConfig(base, delay, -delta0), cfg
    )
    destructive = pulse_pair_population(
        lossless_system, PulsePairConfig(base, delay, -delta0 + math.pi), cfg
    )
    suppression = destructive / constructive

    damped_system = TwoLevelSystem(0.0, 5.0, mu=1.0, gamma_re=1.0 / delay)
    damped = phase_scan(damped_system, pair, deltas[::4], cfg)

    ok = (
        record.visibility >= 0.999
        and suppression <= 1e-3
        and damped.visibility < record.visibility
        and scan_time < 10.0
    )
    report(
        "A6 constant-phase observability",
        ok,
        f"visibility={record.visibility:.5f} (>=0.999), destructive/constructive="
        f"{suppression:.1e} (<=1e-3), damped visibility={damped.visibility:.4f} "
        f"(<{record.visibility:.4f}), scan runtime={scan_time:.2f}s (<10s)",
    )
    assert record.visibility >= 0.999
    assert suppression <= 1e-3
    assert damped.visibility < record.visibility
    assert scan_time < 10.0


def test_a7_classic_reductions():
    """A7: usual condition equals ratio(0,0) and Born-Fock equals |Omega^-2 dOmega/dt|
    for constant-phase fields, to 1e-12."""
    system = TwoLevelSystem(0.0, 6.0, mu=1.0)
    field = DrivingField(5.0, EnvelopeSpec.gaussian(1.0, 20.0, 15.0))
    t = np.linspace(0.0, 40.0, 401)
    reference = adiabatic_report(system, field, t, 0)
    usual_dev = abs(
        float(np.max(usual_adiabatic_value(system, field, t))) - reference.ratio(0, 0)
    )
    omega = rabi_frequency(system, field, t, 0)
    d_omega = rabi_frequency(system, field, t, 1)
    born_dev = float(
        np.max(np.abs(born_fock_value(system, field, t) - np.abs(d_omega) / omega**2))
    )
    ok = usual_dev <= 1e-12 and born_dev <= 1e-12
    report(
        "A7 classic adiabatic reductions",
        ok,
        f"usual deviation={usual_dev:.2e}, born-fock deviation={born_dev:.2e} (<=1e-12)",
    )
    assert usual_dev <= 1e-12
    assert born_dev <= 1e-12


def test_a8_hydrodynamic_identities():
    """A8: U + V constant for the harmonic ground state (stddev <= 1e-6 w0 over the
    central 80%), both residuals drop >= 3.5x per dx,dt halving, plane-wave momentum
    within 1e-8; < 10 s."""
    started = time.perf_counter()

    n = 8192
    dx = 8.0 / n
    x = -4.0 + dx * np.arange(n)
    fields = polar_decompose(GridWavefunction(-4.0, dx, harmonic_ground(x) + 0.0j))
    total = quantum_potential(fields, 1.0) + 0.5 * x**2
    central = slice(int(0.1 * n), int(0.9 * n))
    stddev = float(np.nanstd(total[central]))

    def residuals(n_grid, dt, n_steps):
        dxg = 40.0 / n_grid
        xg = -20.0 + dxg * np.arange(n_grid)
        psi0 = GridWavefunction(-20.0, dxg, free_gaussian(xg, 0.0, sigma0=1.5, k0=0.6))
        frames = split_step_solve(psi0, PotentialSpec.free(), t_final=n_steps * dt, dt=dt)
        mid = len(frames) // 2
        hj = hj_residual(frames[mid - 1 : mid + 2], PotentialSpec.free()).l2[0]
        cont = continuity_residual(frames[mid - 1 : mid + 2], 1.0).l2[0]
        return hj, cont

    hj_coarse, cont_coarse = residuals(1024, 0.02, 40)
    hj_fine, cont_fine = residuals(2048, 0.01, 80)
    hj_drop = hj_coarse / hj_fine
    cont_drop = cont_coarse / cont_fine

    n_pw = 1024
    dx_pw = 40.0 / n_pw
    x_pw = -20.0 + dx_pw * np.arange(n_pw)
    k = 2.0 * math.pi * 19.0 / 40.0
    plane = polar_decompose(GridWavefunction(-20.0, dx_pw, np.exp(1j * k * x_pw)))
    momentum_err = float(np.nanmax(np.abs(momentum_field(plane) - k)))

    elapsed = time.perf_counter() - started
    ok = (
        stddev <= 1e-6
        and hj_drop >= 3.5
        and cont_drop >= 3.5
        and momentum_err <= 1e-8
        and elapsed < 10.0
    )
    report(
        "A8 hydrodynamic identities",
        ok,
        f"stddev(U+V)={stddev:.2e} (<=1e-6), hj drop={hj_drop:.2f}, continuity drop="
        f"{cont_drop:.2f} (>=3.5), plane-wave momentum err={momentum_err:.2e} (<=1e-8), "
        f"runtime={elapsed:.2f}s (<10s)",
    )
    assert stddev <= 1e-6
    assert hj_drop >= 3.5
    assert cont_drop >= 3.5
    assert momentum_err <= 1e-8
    assert elapsed < 10.0


def test_results_are_read_only_views_of_the_callers_arrays():
    """README: all value types are immutable.  Every result array is read-only,
    and the arrays the caller passed in stay writeable."""
    system = TwoLevelSystem(0.0, 5.0)
    field = DrivingField(5.0, EnvelopeSpec.gaussian(0.05, 5.0, 2.0))
    t = np.linspace(0.0, 10.0, 101)
    deltas = np.linspace(0.0, 2.0 * math.pi, 8)
    x = -20.0 + 40.0 / 256 * np.arange(256)
    psi = free_gaussian(x, 0.0, sigma0=1.5)
    wavefunction = GridWavefunction(-20.0, 40.0 / 256, psi)
    frames = split_step_solve(wavefunction, PotentialSpec.free(), t_final=0.1, dt=0.05)
    results = [
        (rwa_propagate(system, field, TwoLevelState(1.0, 0.0), t), ("times", "c_g", "c_e")),
        (
            dressed_phases(system, field, InitialPhases(), "ground", t),
            ("times", "phi_G_r", "phi_G_v", "phi_E_r", "phi_E_v"),
        ),
        (phase_scan(system, PulsePairConfig(field, 30.0, 0.0), deltas), ("deltas", "populations")),
        (wavefunction, ("values",)),
        (polar_decompose(wavefunction), ("R", "S", "valid")),
        (hj_residual(frames, PotentialSpec.free()), ("times", "fields", "l2")),
    ]
    for result, names in results:
        for name in names:
            assert not getattr(result, name).flags.writeable, (type(result).__name__, name)
    assert t.flags.writeable and deltas.flags.writeable and psi.flags.writeable
