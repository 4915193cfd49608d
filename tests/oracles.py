"""Independent closed-form oracles used by the tests.

These are intentionally separate derivations (textbook formulas, direct
eigendecompositions, brute-force evaluations) so the library code they check
cannot share a bug with the check itself.
"""

from dataclasses import replace

import numpy as np

from dressedphase.errors import ValidationError
from dressedphase.interferometry import FringeRecord, _step_capped, _visibility_value
from dressedphase.propagator import IntegratorConfig, TwoLevelState, _drive, rwa_propagate_coupling


def free_gaussian(x, t, mass=1.0, x0=0.0, sigma0=1.0, k0=0.0):
    """Spreading free Gaussian, unit norm, closed form.

    psi(x, 0) = (2 pi s0^2)^(-1/4) exp(-(x-x0)^2/(4 s0^2) + i k0 (x-x0)).
    """
    alpha = 1.0 + 1j * t / (2.0 * mass * sigma0**2)
    return (
        (2.0 * np.pi * sigma0**2) ** (-0.25)
        / np.sqrt(alpha)
        * np.exp(
            -((x - x0 - k0 * t / mass) ** 2) / (4.0 * sigma0**2 * alpha)
            + 1j * k0 * (x - x0)
            - 1j * k0**2 * t / (2.0 * mass)
        )
    )


def free_gaussian_sigma(t, mass=1.0, sigma0=1.0):
    """Spread width: |psi|^2 has std sigma(t) with sigma^2 = s0^2 (1 + (t/2ms0^2)^2)."""
    return sigma0 * np.sqrt(1.0 + (t / (2.0 * mass * sigma0**2)) ** 2)


def harmonic_ground(x, mass=1.0, omega0=1.0, center=0.0):
    """Ground state of the harmonic oscillator, energy omega0/2 (hbar = 1)."""
    return (mass * omega0 / np.pi) ** 0.25 * np.exp(-0.5 * mass * omega0 * (x - center) ** 2)


def rabi_population(t, omega_rabi, detuning=0.0):
    """Excited population for constant drive from the ground state.

    P_e(t) = (Omega^2 / W^2) sin^2(W t / 2) with W = sqrt(Omega^2 + detuning^2).
    """
    w = np.sqrt(omega_rabi**2 + detuning**2)
    return (omega_rabi**2 / w**2) * np.sin(0.5 * w * t) ** 2


def rwa_eigensystem(omega_rabi, complex_detuning):
    """Eigen-decomposition of the rotating-frame two-level matrix.

    H = [[0, -Omega/2], [-Omega/2, dw~]]; returns (eigenvalues, eigenvectors)
    sorted so index 0 is the branch that connects to the bare ground state.
    """
    h = np.array(
        [[0.0, -0.5 * omega_rabi], [-0.5 * omega_rabi, complex_detuning]], dtype=complex
    )
    evals, evecs = np.linalg.eig(h)
    order = np.argsort(evals.real)
    return evals[order], evecs[:, order]


def expm_taylor(m):
    """exp(M) of a square matrix: Taylor series with scaling and squaring.

    M is halved j times until its largest row sum is at most 1/2, the series
    of exp(M / 2^j) is summed to 30 terms (the remainder is below
    0.5^30 / 30!), and the result is squared j times.
    """
    m = np.asarray(m, dtype=complex)
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    j = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.0 else 0
    scaled = m / 2.0**j
    term = np.eye(m.shape[0], dtype=complex)
    out = term.copy()
    for k in range(1, 31):
        term = term @ scaled / k
        out = out + term
    for _ in range(j):
        out = out @ out
    return out


def central_difference(fn, t, h):
    """Second-order central first derivative of a callable."""
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def continued_rabi_loop(dw: complex, omega: np.ndarray) -> np.ndarray:
    """sqrt(dw~^2 + Omega^2) along a 1-D grid, branch-fixed and sign-continued.

    The sign at the smallest |Omega| is the one closer to dw~ (the weak-field
    limit); every other point takes the sign closer to its neighbour towards
    that anchor, keeping +1 on an exact tie.  Off resonance this is the
    library's pointwise weak-field root; through an exceptional point of a
    resonant, damped drive the walk keeps its sign and leaves that branch.
    """
    w = np.sqrt((dw * dw + omega**2).astype(complex))
    signs = np.ones(w.shape)
    anchor = int(np.argmin(np.abs(omega)))
    if abs(-w[anchor] - dw) < abs(w[anchor] - dw):
        signs[anchor] = -1.0
    for away_from_anchor in (range(anchor + 1, w.size), range(anchor - 1, -1, -1)):
        prev = signs[anchor] * w[anchor]
        for i in away_from_anchor:
            if abs(-w[i] - prev) < abs(w[i] - prev):
                signs[i] = -1.0
            prev = signs[i] * w[i]
    return signs * w


def cumulative_simpson_loop(f, t):
    """Cumulative Simpson integral, one point triple at a time.

    Each triple (t[i], t[i+1], t[i+2]), i even, is fitted by
    p(u) = a u^2 + b u + c with u = t - t[i+1] and integrated over its two
    intervals; an odd trailing interval is integrated with the quadratic of
    the last three points.

    numpy's scalar ``**`` may call a different ``pow`` than its (SIMD) array
    kernel and differ in the last bit, so for a bit-for-bit comparison each
    value is evaluated the way the library evaluates it: the paired triples
    as one-element arrays, the trailing interval as numpy scalars.
    """
    t = np.asarray(t, dtype=float)
    f = np.asarray(f)
    n = t.size

    def quadratic(t0, t1, t2, f0, f1, f2):
        h0 = t1 - t0
        h1 = t2 - t1
        d0 = f0 - f1
        d2 = f2 - f1
        denom = h0 * h1 * (h0 + h1)
        a = (d0 * h1 + d2 * h0) / denom
        b = (d2 * h0 * h0 - d0 * h1 * h1) / denom
        return a, b, f1, h0, h1

    increments = []
    for i in range(0, n - 2, 2):
        triple = [x[j : j + 1] for x in (t, f) for j in (i, i + 1, i + 2)]
        a, b, c, h0, h1 = quadratic(*triple)
        increments.append(a * h0**3 / 3.0 - b * h0**2 / 2.0 + c * h0)
        increments.append(a * h1**3 / 3.0 + b * h1**2 / 2.0 + c * h1)
    if (n - 1) % 2 == 1:
        a, b, c, _, h1 = quadratic(t[n - 3], t[n - 2], t[n - 1], f[n - 3], f[n - 2], f[n - 1])
        increments.append(np.atleast_1d(a * h1**3 / 3.0 + b * h1**2 / 2.0 + c * h1))
    out = np.zeros(n, dtype=np.result_type(f.dtype, np.float64))
    np.cumsum(np.concatenate(increments), out=out[1:])
    return out


def _fmt(value: float) -> str:
    return f"{value:.17g}"


def write_csv_loop(path, header, rows) -> None:
    """The CSV writer of the command line, one value at a time."""
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


def phase_scan_loop(system, pair, delta_grid, cfg=IntegratorConfig(), engine="rwa"):
    """The fringe scan one delta at a time, on DP5.

    Each delta is an independent ``rwa_propagate_coupling`` run from |g>
    over the pair's window, with the scan's step cap, of the summed scalar
    coupling of the two pulses: K1 + K2 on the carrier, or the real
    mu E1 + mu E2 on carrier 0 for the full field.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValidationError("phase_scan: delta_grid must be a non-empty 1-D array")
    capped = _step_capped(cfg, pair)
    populations = np.empty_like(deltas)
    for i, delta in enumerate(deltas):
        at_delta = replace(pair, rel_phase=float(delta))
        (k1, carrier), (k2, _) = (_drive(system, p, engine) for p in (pair.base, at_delta.second))
        traj = rwa_propagate_coupling(
            system, lambda t: k1(t) + k2(t), carrier, TwoLevelState(1.0, 0.0), pair.window(), capped
        )
        populations[i] = abs(traj.c_e[-1]) ** 2
    vis = _visibility_value(populations)
    delta_star = float(deltas[int(np.argmax(populations))])
    record = FringeRecord(
        deltas=deltas, populations=populations, visibility=vis, delta_star=delta_star
    )
    record.deltas.flags.writeable = False
    record.populations.flags.writeable = False
    return record
