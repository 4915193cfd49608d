"""Independent closed-form oracles used by the tests.

These are intentionally separate derivations (textbook formulas, direct
eigendecompositions, brute-force evaluations) so the library code they check
cannot share a bug with the check itself.  The propagation reference is an
adaptive Dormand-Prince 5(4) stepper driven by scalar evaluators of the
envelope, the phase and the couplings, written apart from the array
registries and the Magnus steps of the library.  The Magnus trajectory's
reference is its step doubling run on the whole grid every round, and the
Magnus grid's is its tuple form (``magnus_grid``): each 2x2 entry its own
array, products entry by entry, every step's coefficients per step.  The
CSV kernel's tables have ``csv_tables_loop`` as theirs, which builds every
power of ten and every (form, digits) template on its own.  The hydro
analysis has its frame-by-frame form as first written
(``residual_series_loop``, ``hydro_run_loop``): ``np.unwrap`` per valid run,
the stencil mask for U and p each, the anchor by ``nanargmax``.
"""

import cmath
import math
from dataclasses import replace
from functools import partial

import numpy as np

from dressedphase import propagator
from dressedphase.errors import StepSizeUnderflowError, ValidationError
from dressedphase.hydro import R_FLOOR_FRACTION, PolarFields
from dressedphase.interferometry import FringeRecord, _step_capped, _visibility_value
from dressedphase.propagator import IntegratorConfig, TwoLevelState, _check_engine


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


def _scaled_power(j: int) -> tuple:
    """(m, e, rho): 64·10^j = m·2^e·(1 + rho), the mantissa m correctly rounded to 64 bits."""
    if j >= 0:
        n = 10**j << 6
        shift = max(n.bit_length() - 64, 0)
        m, r = divmod(n, 1 << shift)
        m += 2 * r > 1 << shift or (2 * r == 1 << shift and m & 1)
        return m, shift, (n - (m << shift)) / (m << shift)
    d = 10**-j  # 2^s / d lies in (2^63, 2^64) and is never a tie
    s = d.bit_length() + 63
    m, r = divmod(1 << s, d)
    m += 2 * r > d
    return m, 6 - s, ((1 << s) - m * d) / (m * d)


def _template(form: int, k: int) -> list:
    """Source-row bytes of a value of ``form`` with ``k`` significant digits, then its separator."""
    digits = list(range(3, 20))
    if form > 21:
        return [[0, 1], [0, 28, 26, 29], [26, 27, 26]][form - 22] + [25]
    if form == 21:
        return [0, 3] + ([2] + digits[1:k] if k > 1 else []) + [24, 20, 21, 22, 23, 25]
    e = form - 4
    if e < 0:
        return [0, 1, 2] + [1] * (-e - 1) + digits[:k] + [25]
    return [0] + digits[: e + 1] + ([2] + digits[e + 1 : k] if k > e + 1 else []) + [25]


def csv_tables_loop():
    """The CSV kernel's tables, each power of ten and each template built on its own.

    The reference for ``csvformat._tables``: every power from ``10**j``, every
    (form, digits) template from its own list, in the layout ``_tables`` returns.
    """
    e_min, e_max, widest = -325, 308, 25
    powers = [_scaled_power(16 - e) for e in range(e_min, e_max + 1)] + [_scaled_power(16)] * 3
    high = np.array([m >> 32 for m, _, _ in powers], dtype=np.longdouble)
    low = np.array([m & 0xFFFFFFFF for m, _, _ in powers], dtype=np.longdouble)
    scale = np.ldexp(high * 2**32 + low, np.array([e for _, e, _ in powers]))
    rho = np.array([r for _, _, r in powers])
    e = np.arange(e_min, e_max + 1)
    exponent = b"".join((b"%+03d" % k).ljust(4, b"\0") for k in e.tolist()) + bytes(12)
    exponent = np.frombuffer(exponent, dtype=np.uint32)
    forms = np.concatenate([np.where((e >= -4) & (e <= 16), e + 4, 21), [22, 23, 24]])
    last = forms * 17 + 16
    group = np.arange(10_000, dtype=np.uint16)
    ascii4 = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=1)
    ascii4 = (ascii4 + 48).astype(np.uint8).view(np.uint32).ravel()
    zeros4 = (group % 10 == 0).astype(np.uint8) + (group % 100 == 0) + (group % 1000 == 0)
    zeros4[0] = 4
    templates = np.full((25 * 17, widest), 31, dtype=np.intp)
    for form in range(25):
        for k in range(1, 18):
            row = _template(form, k)
            templates[form * 17 + k - 1, : len(row)] = row
    widths = (templates != 31).sum(axis=1)
    return scale, rho, exponent, last, ascii4, zeros4, templates, widths


def scalar_envelope_fn(env):
    """Scalar-argument evaluator for the envelope, written apart from the array registry."""
    peak = env.peak
    if env.shape == "constant":
        return lambda t: peak
    center, width = env.center, env.width
    if env.shape == "gaussian":
        def gauss(t: float) -> float:
            u = (t - center) / width
            return peak * math.exp(-u * u)
        return gauss
    if env.shape == "sech":
        def sech(t: float) -> float:
            try:
                return peak / math.cosh((t - center) / width)
            except OverflowError:  # where the array form divides by inf
                return 0.0
        return sech
    half = env.plateau / 2.0
    a0, a1 = center - half - width, center - half
    b1, b0 = center + half, center + half + width
    k = math.pi / width

    def flat_top(t: float) -> float:
        if t < a0 or t > b0:
            return 0.0
        if t < a1:
            return 0.5 * peak * (1.0 - math.cos(k * (t - a0)))
        if t <= b1:
            return peak
        return 0.5 * peak * (1.0 + math.cos(k * (t - b1)))

    return flat_top


def scalar_phase_fn(ph):
    """Scalar-argument evaluator for the slow phase phi(t), written apart from the array registry."""
    phi0, t_ref = ph.phi0, ph.t_ref
    if ph.shape == "constant":
        return lambda t: phi0
    if ph.shape == "linear_chirp":
        rate = ph.rate
        return lambda t: phi0 + rate * (t - t_ref)
    if ph.shape == "quadratic_chirp":
        rate, curv = ph.rate, ph.curvature
        return lambda t: phi0 + (rate + curv * (t - t_ref)) * (t - t_ref)
    depth, nu = ph.depth, ph.mod_freq
    return lambda t: phi0 + depth * math.sin(nu * (t - t_ref))


def coupling_fn(system, field):
    """K(t) = (mu E0(t)/2) exp(-i phi(t)) of one pulse at a scalar time."""
    env, phi = scalar_envelope_fn(field.envelope), scalar_phase_fn(field.phase)
    half_mu = 0.5 * system.mu
    return lambda t: half_mu * env(t) * cmath.exp(-1j * phi(t))


def real_coupling_fn(system, field):
    """Real coupling mu E(t) = mu E0(t) cos(W t + phi(t)) of one pulse at a scalar time."""
    env, phi = scalar_envelope_fn(field.envelope), scalar_phase_fn(field.phase)
    mu, carrier = system.mu, field.carrier
    return lambda t: mu * (env(t) * math.cos(carrier * t + phi(t)))


def scalar_drive(system, field, engine):
    """The scalar coupling and frame carrier of ``rwa_rhs`` for one pulse.

    'rwa': K(t) on the carrier W.  'full': the real mu E(t) on carrier 0, in
    the frame rotating at w_g.
    """
    _check_engine(engine)
    if engine == "rwa":
        return coupling_fn(system, field), field.carrier
    return real_coupling_fn(system, field), 0.0


# Dormand-Prince 5(4) tableau.
_C2, _C3, _C4, _C5 = 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0
_A21 = 1.0 / 5.0
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)


def rwa_rhs(coupling, detuning):
    """Rotating-frame right-hand side with a_g, a_e referenced to w_g and w_g + w.

    ``coupling`` is K(t) of ``scalar_drive``: (Omega(t)/2) exp(-i phi(t)), or
    the real mu E(t) at w = 0.  The equations are da_g/dt = i conj(K) a_e
    and da_e/dt = -i dw~ a_e + i K a_g with the full complex detuning
    dw~ = dw - i gamma/2.
    """
    m_i_det = -1j * detuning

    def rhs(t, a_g, a_e):
        k = coupling(t)
        return 1j * k.conjugate() * a_e, m_i_det * a_e + 1j * k * a_g

    return rhs


def dp5_pair(coupling, detuning, t_grid, y0, cfg):
    """Adaptive DP5(4) integration of ``rwa_rhs`` over t_grid.

    The state is kept in scalar complex variables; steps are clipped so every
    requested sample time is hit exactly.
    """
    rhs = rwa_rhs(coupling, detuning)
    n = t_grid.size
    out_g = np.empty(n, dtype=complex)
    out_e = np.empty(n, dtype=complex)
    g, e = complex(y0[0]), complex(y0[1])
    out_g[0] = g
    out_e[0] = e

    rel, abt, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    t = float(t_grid[0])
    t_end = float(t_grid[-1])
    span = t_end - t

    k1g, k1e = rhs(t, g, e)
    d0 = max(abs(g), abs(e), abt)
    d1 = max(abs(k1g), abs(k1e), 1e-300)
    h = min(max_step, span, 1e-2 * d0 / d1)
    h_floor = 16.0 * np.finfo(float).eps

    idx = 1
    target = float(t_grid[idx])
    while True:
        if h < h_floor * max(abs(t), 1.0):
            raise StepSizeUnderflowError(f"step-size underflow at t = {t!r}")
        clipped = t + h >= target
        h_used = target - t if clipped else h

        k2g, k2e = rhs(t + _C2 * h_used, g + h_used * (_A21 * k1g), e + h_used * (_A21 * k1e))
        k3g, k3e = rhs(
            t + _C3 * h_used,
            g + h_used * (_A31 * k1g + _A32 * k2g),
            e + h_used * (_A31 * k1e + _A32 * k2e),
        )
        k4g, k4e = rhs(
            t + _C4 * h_used,
            g + h_used * (_A41 * k1g + _A42 * k2g + _A43 * k3g),
            e + h_used * (_A41 * k1e + _A42 * k2e + _A43 * k3e),
        )
        k5g, k5e = rhs(
            t + _C5 * h_used,
            g + h_used * (_A51 * k1g + _A52 * k2g + _A53 * k3g + _A54 * k4g),
            e + h_used * (_A51 * k1e + _A52 * k2e + _A53 * k3e + _A54 * k4e),
        )
        k6g, k6e = rhs(
            t + h_used,
            g + h_used * (_A61 * k1g + _A62 * k2g + _A63 * k3g + _A64 * k4g + _A65 * k5g),
            e + h_used * (_A61 * k1e + _A62 * k2e + _A63 * k3e + _A64 * k4e + _A65 * k5e),
        )
        g_new = g + h_used * (_B1 * k1g + _B3 * k3g + _B4 * k4g + _B5 * k5g + _B6 * k6g)
        e_new = e + h_used * (_B1 * k1e + _B3 * k3e + _B4 * k4e + _B5 * k5e + _B6 * k6e)
        t_new = target if clipped else t + h_used
        k7g, k7e = rhs(t_new, g_new, e_new)

        err_g = h_used * (
            _E1 * k1g + _E3 * k3g + _E4 * k4g + _E5 * k5g + _E6 * k6g + _E7 * k7g
        )
        err_e = h_used * (
            _E1 * k1e + _E3 * k3e + _E4 * k4e + _E5 * k5e + _E6 * k6e + _E7 * k7e
        )
        scale_g = abt + rel * max(abs(g), abs(g_new))
        scale_e = abt + rel * max(abs(e), abs(e_new))
        err = math.sqrt(0.5 * ((abs(err_g) / scale_g) ** 2 + (abs(err_e) / scale_e) ** 2))

        if err <= 1.0:
            t, g, e = t_new, g_new, e_new
            k1g, k1e = k7g, k7e
            factor = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
            h_next = min(max_step, h_used * factor)
            if clipped:
                # Do not let an output-clipped step shrink the natural step.
                h_next = min(max_step, max(h_next, h))
                out_g[idx] = g
                out_e[idx] = e
                idx += 1
                if idx == n:
                    break
                target = float(t_grid[idx])
            h = h_next
        else:
            h = h_used * max(0.2, 0.9 * err ** -0.2)

    return out_g, out_e


def dp5_propagate(system, coupling, carrier, initial, t_grid, cfg=IntegratorConfig(), frame="bare"):
    """``rwa_propagate_coupling`` on the adaptive Dormand-Prince 5(4) stepper.

    The same rotating-frame equation and frame conversions as the library's
    propagators, with the scalar coupling K(t) on ``carrier`` evaluated at
    DP5's own stages, so it shares no evaluator or stepper with the Magnus
    steps they run on.
    """
    integrate = partial(dp5_pair, cfg=cfg)
    return propagator._propagate(system, coupling, carrier, initial, t_grid, integrate, frame)


def dp5_rwa_propagate(system, field, initial, t_grid, cfg=IntegratorConfig(), frame="bare"):
    """``rwa_propagate`` of one pulse on DP5 (see ``dp5_propagate``)."""
    return dp5_propagate(system, *scalar_drive(system, field, "rwa"), initial, t_grid, cfg, frame)


def dp5_full_propagate(system, field, initial, t_grid, cfg=IntegratorConfig()):
    """``full_field_propagate`` of one pulse on DP5: the scalar real field on carrier 0."""
    return dp5_propagate(system, *scalar_drive(system, field, "full"), initial, t_grid, cfg)


def mat_mul(a, b):
    """Products a @ b of stacks of 2x2 matrices, each held as its entries (00, 01, 10, 11)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def expm2(m):
    """``propagator._expm2`` on the entries (00, 01, 10, 11), returned as a tuple of four arrays."""
    m00, m01, m10, m11 = m
    tau = 0.5 * (m00 + m11)
    d = 0.5 * (m00 - m11)
    s2 = d * d + m01 * m10
    small = s2.real**2 + s2.imag**2 < propagator._SERIES_S2**2
    if small.all():
        cosh, sinhc = propagator._series(s2)
    else:
        cosh, sinhc = np.empty_like(s2), np.empty_like(s2)
        cosh[small], sinhc[small] = propagator._series(s2[small])
        large = ~small
        cosh[large], sinhc[large] = propagator._cosh_sinhc(s2[large])
    growth = np.exp(tau.real)
    scale = propagator._complex(growth * np.cos(tau.imag), growth * np.sin(tau.imag))
    c, k = scale * cosh, scale * sinhc
    return (c + k * d, k * m01, k * m10, c - k * d)


def ordered_product(m):
    """Time-ordered product M[n-1] ... M[1] M[0] over the last axis of the entries, pairwise."""
    while m[0].shape[-1] > 1:
        n = m[0].shape[-1]
        paired = mat_mul([x[..., 1::2] for x in m], [x[..., 0 : n - 1 : 2] for x in m])
        if n % 2:
            paired = [np.concatenate((p, x[..., -1:]), axis=-1) for p, x in zip(paired, m)]
        m = paired
    return tuple(x[..., 0] for x in m)


def magnus_steps(terms, weights, detuning, h):
    """One-step propagators of every step for every weight column, entry by entry.

    ``terms[j]`` holds K_j at the n lower Gauss nodes, then the n upper
    ones; K = 0 + sum_j weights[j] K_j, and ``h`` is a float or one length
    per step.
    """
    k = sum(w[:, None] * term for w, term in zip(weights, terms))
    n = k.shape[-1] // 2
    k1, k2 = k[:, :n], k[:, n:]
    ksum = k1 + k2
    c = propagator._COMMUTATOR_WEIGHT * h * h
    z = c * (np.conj(k1) * k2 - np.conj(k2) * k1)
    return expm2(
        (
            z,
            0.5j * h * np.conj(ksum) + c * detuning * np.conj(k2 - k1),
            0.5j * h * ksum + c * detuning * (k1 - k2),
            -1j * detuning * h - z,
        )
    )


def magnus_grid(terms, weights, detuning, t, k):
    """``propagator._magnus_grid`` in tuple form, with the library's chunk and stack sizes.

    A chunk's nodes are the concatenated lower and upper Gauss nodes; an
    interval's steps take its length repeated per step, or as a float when
    the chunk is one interval.
    """
    m, n = weights.shape[1], t.size - 1
    span = min(k, propagator._MAGNUS_CHUNK)
    per_chunk = min(n, propagator._MAGNUS_CHUNK // span)
    drives = propagator._MAGNUS_STACK // (per_chunk * span)
    h = (t[1:] - t[:-1])[:, None] / k
    out = np.empty((4, m, n), dtype=complex)
    for i in range(0, n, per_chunk):
        hi = h[i : i + per_chunk]
        hs = np.repeat(hi, k) if hi.size > 1 else float(hi[0, 0])
        blocks = np.empty((4, m, hi.size, -(-k // span)), dtype=complex)
        for b, j in enumerate(range(0, k, span)):
            offsets = np.arange(j, min(j + span, k)) + 0.5
            mids = (t[i : i + hi.size, None] + hi * offsets).ravel()
            offset = propagator._GAUSS_OFFSET * hs
            values = terms(np.concatenate((mids - offset, mids + offset)))
            for d in range(0, m, drives):
                u = magnus_steps(values, weights[:, d : d + drives], detuning, hs)
                per_interval = [x.reshape(x.shape[0], hi.size, -1) for x in u]
                blocks[:, d : d + drives, :, b] = ordered_product(per_interval)
        out[..., i : i + hi.size] = ordered_product(blocks)
    return out


def magnus_states_whole(coupling, detuning, t, y0, k):
    """The rotating-frame states at the samples ``t`` from ``y0``, k Magnus steps per interval.

    One ``_magnus_grid`` call over the whole grid, then the state loop in
    chunks of tuples.
    """
    u = propagator._magnus_grid(lambda x: (coupling(x),), np.ones((1, 1), dtype=complex), detuning, t, k)[:, 0]
    out = np.empty((2, t.size), dtype=complex)
    out[:, 0] = g, e = y0
    for i in range(0, u.shape[1], propagator._MAGNUS_CHUNK):
        chunk = []
        for u00, u01, u10, u11 in zip(*u[:, i : i + propagator._MAGNUS_CHUNK].tolist()):
            g, e = u00 * g + u01 * e, u10 * g + u11 * e
            chunk.append((g, e))
        out[:, i + 1 : i + 1 + len(chunk)] = np.array(chunk, dtype=complex).T
    return out


def magnus_trajectory_whole(coupling, detuning, t, y0, cfg, rounds=None):
    """``propagator._magnus_trajectory`` with every round run on the whole grid.

    k starts at the count ``cfg.max_step`` asks for and doubles until the
    states of ``magnus_states_whole`` at 2k change from those at k by at
    most abs_tol + rel_tol max|x|, or n k eps max|x| if larger; the finer
    are returned.  Each round's k and states are appended to ``rounds`` if
    it is a list.
    """
    n = t.size - 1
    k = max(1, math.ceil(float(np.max(np.diff(t))) / cfg.max_step))
    coarse = None
    while k <= propagator._MAGNUS_MAX_INTERVALS:
        fine = magnus_states_whole(coupling, detuning, t, y0, k)
        if rounds is not None:
            rounds.append((k, fine))
        scale = np.max(np.abs(fine))
        tol = max(cfg.abs_tol + cfg.rel_tol * scale, n * k * np.finfo(float).eps * scale)
        if coarse is not None and np.max(np.abs(fine - coarse)) <= tol:
            return fine[0], fine[1]
        coarse = fine
        k *= 2
    raise StepSizeUnderflowError("Magnus step doubling passed the cap")


def phase_scan_loop(system, pair, delta_grid, cfg=IntegratorConfig(), engine="rwa"):
    """The fringe scan one delta at a time, on DP5.

    Each delta is an independent ``dp5_propagate`` run from |g> over the
    pair's window, with the scan's step cap, of the summed scalar coupling
    of the two pulses: K1 + K2 on the carrier, or the real mu E1 + mu E2 on
    carrier 0 for the full field.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValidationError("phase_scan: delta_grid must be a non-empty 1-D array")
    capped = _step_capped(cfg, pair)
    populations = np.empty_like(deltas)
    for i, delta in enumerate(deltas):
        at_delta = replace(pair, rel_phase=float(delta))
        (k1, carrier), (k2, _) = (scalar_drive(system, p, engine) for p in (pair.base, at_delta.second))
        traj = dp5_propagate(
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


# The hydrodynamic analysis as first written, frame by frame: ``np.angle``
# of every sample and ``np.unwrap`` of each valid run, the stencil mask
# formed for U and p each, and the anchor taken by ``nanargmax`` over the
# valid points.  The library forms each of these once per frame and
# unwraps with the ``mod`` only at the steps that wrap.


def polar_decompose_loop(psi, r_floor=None):
    """R, the validity mask and S of ``psi``, S unwrapped by ``np.unwrap`` run by run."""
    r = np.abs(psi.values)
    if r_floor is None:
        r_floor = R_FLOOR_FRACTION * float(np.max(r))
    valid = r >= r_floor
    s = np.full(psi.n_points, np.nan)
    raw = np.angle(psi.values)
    idx = np.flatnonzero(np.diff(valid.astype(np.int8)))
    edges = np.concatenate([[0], idx + 1, [valid.size]])
    for a, b in zip(edges[:-1], edges[1:]):
        if valid[a]:
            s[a:b] = np.unwrap(raw[a:b])
    return PolarFields(R=r, S=s, valid=valid, dx=psi.dx, x_min=psi.x_min, r_floor=r_floor)


def _grid_difference(f, dx):
    out = np.full(f.shape, np.nan)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    return out


def _stencil_valid(valid):
    out = np.zeros(valid.shape, dtype=bool)
    out[1:-1] = valid[1:-1] & valid[:-2] & valid[2:]
    return out


def quantum_potential_loop(fields, mass):
    """U = -(1/2m) R'' / R on the interior points whose three-point stencil is valid."""
    r = fields.R
    d2 = np.full(r.shape, np.nan)
    d2[1:-1] = r[2:] - 2.0 * r[1:-1] + r[:-2]
    with np.errstate(invalid="ignore", divide="ignore"):
        u = -d2 / (2.0 * mass * fields.dx**2 * r)
    return np.where(_stencil_valid(fields.valid), u, np.nan)


def momentum_loop(fields):
    """dS/dx on the interior points whose three-point stencil is valid."""
    return np.where(_stencil_valid(fields.valid), _grid_difference(fields.S, fields.dx), np.nan)


def anchored_phase_triple_loop(window):
    """S of the three frames, the outer two shifted by the 2 pi winding at the middle one's max valid R."""
    p_prev, p_mid, p_next = window
    anchor = int(np.nanargmax(np.where(p_mid.valid, p_mid.R, -np.inf)))
    out = [p_prev.S, p_mid.S, p_next.S]
    for j, p in ((0, p_prev), (2, p_next)):
        if not (p.valid[anchor] and p_mid.valid[anchor]):
            continue
        k = round((p_mid.S[anchor] - p.S[anchor]) / (2.0 * math.pi))
        if k:
            out[j] = p.S + 2.0 * math.pi * k
    return out


def frame_residual_loop(window, dt, mass, vx=None):
    """The Hamilton-Jacobi residual at the middle of three decomposed frames if ``vx`` is given, else the continuity one."""
    p_prev, p, p_next = window
    grad = _grid_difference(p.S, p.dx)
    if vx is None:
        drho_dt = (p_next.R**2 - p_prev.R**2) / (2.0 * dt)
        current = p.R**2 * grad / mass
        return drho_dt + _grid_difference(current, p.dx)
    s_prev, _, s_next = anchored_phase_triple_loop(window)
    ds_dt = (s_next - s_prev) / (2.0 * dt)
    return ds_dt + grad**2 / (2.0 * mass) + vx + quantum_potential_loop(p, mass)


def residual_l2_loop(res, dx):
    kept = res[np.isfinite(res)]
    return math.sqrt(float(np.sum(kept * kept) * dx))


def residual_series_loop(frames, mass, r_floor=None, vx=None):
    """Residual rows (NaN where not finite) and L2 norms at every interior frame, all frames decomposed first."""
    dt = frames[1].t - frames[0].t
    polars = [polar_decompose_loop(f, r_floor) for f in frames]
    rows, l2 = [], []
    for i in range(1, len(polars) - 1):
        res = frame_residual_loop(polars[i - 1 : i + 2], dt, mass, vx)
        rows.append(np.where(np.isfinite(res), res, np.nan))
        l2.append(residual_l2_loop(res, polars[i].dx))
    return np.array(rows), np.array(l2)


def hydro_run_loop(frames, mass, vx, stride):
    """Both residuals' L2 norms, and R, S, U and p of every ``stride``-th frame, as the ``hydro`` run reports them."""
    _, hj = residual_series_loop(frames, mass, vx=vx)
    _, cont = residual_series_loop(frames, mass)
    polars = [polar_decompose_loop(f) for f in frames[::stride]]
    columns = {
        "R": [f.R for f in polars],
        "S": [f.S for f in polars],
        "U": [quantum_potential_loop(f, mass) for f in polars],
        "p": [momentum_loop(f) for f in polars],
    }
    return hj, cont, {name: np.concatenate(col) for name, col in columns.items()}
