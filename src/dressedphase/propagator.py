"""Brute-force numerical integration of the driven two-level Schrodinger equation.

This is the ground-truth oracle the closed-form dressed-state results are
checked against.  Two engines are provided:

* ``full_field_propagate`` integrates the bare-frame equations with the real
  field E0(t) cos(W t + phi(t)), counter-rotating terms included;
* ``rwa_propagate`` integrates the rotating-wave equations the dressed-state
  solution lives in; ``rwa_propagate_coupling`` takes any complex coupling
  K(t) on one carrier instead of a pulse.

Both integrate one equation, ``_rwa_rhs``, in a frame rotating at w_g: an
engine is a choice of drive (``_drive``) for one pulse, and every trajectory
runs through ``_propagate``.  The main stepper is an adaptive embedded
Dormand-Prince 5(4) one for the two-component complex state (steps are
clipped onto the samples, so no interpolation error enters trajectories);
``rk4_propagate`` runs the same equation through a fixed-step RK4 stepper as
an independent cross-check.

The pulse pairs and fringe scans of ``interferometry``, on either engine,
need only the 2x2 rotating-frame propagator of a drive, often for many
drives that differ in one phase.  ``_magnus_propagator`` computes it with
fourth-order Magnus steps evaluated as numpy arrays (Blanes, Casas, Oteo &
Ros, Phys. Rep. 470 (2009)): the constant complex detuning enters each
step's exponent exactly, the 2x2 exponentials are closed-form, and the
interval count is doubled until the propagator changes by at most
``abs_tol + rel_tol * max|U|``, or by no more than its rounding can reach.
DP5 stays the engine of every trajectory and the oracle the Magnus segments
are tested against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    GridMismatchError,
    StepSizeUnderflowError,
    ValidationError,
)
from .model import (
    DrivingField,
    TwoLevelSystem,
    _complex_detuning,
    _require_finite,
    scalar_envelope_fn,
    scalar_phase_fn,
)
from .numerics import _read_only, check_monotone_grid

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

# Fourth-order Magnus step: Gauss-Legendre nodes at the interval midpoint
# -+ _GAUSS_OFFSET * h, and the weight of the commutator term.
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0
_MAGNUS_MAX_INTERVALS = 2**20
_MAGNUS_CHUNK = 2**15  # a power of two
# Below this |s^2| the closed-form exponential sums cosh(s) and sinh(s)/s as
# series; the first term left out is below s^10 / 10! < 3e-17.
_SERIES_S2 = 1e-2


@dataclass(frozen=True)
class TwoLevelState:
    """Bare-basis complex amplitudes (c_g, c_e)."""

    c_g: complex
    c_e: complex

    def __post_init__(self):
        _require_finite(self, ("c_g", "c_e"), cmath.isfinite)

    def norm(self) -> float:
        return abs(self.c_g) ** 2 + abs(self.c_e) ** 2


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator tolerances and step cap.

    For the adaptive embedded Runge-Kutta 5(4) engine of the trajectories
    they bound each step's error estimate, ``abs_tol + rel_tol * |y|`` per
    component.  For the Magnus segments of the pulse pairs and fringe scans
    they bound the largest change of the segment propagator when its
    interval count is doubled, ``abs_tol + rel_tol * max|U|`` (raised to the
    rounding floor n * eps * max|U| of n intervals), and ``max_step`` sets
    the first count.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = math.inf

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
            tol = getattr(self, name)
            if not 0.0 < tol <= 1e-2:
                raise ValidationError(f"IntegratorConfig: {name} must be in (0, 1e-2]")
        if not self.max_step > 0.0:
            raise ValidationError("IntegratorConfig: max_step must be > 0")


class TwoLevelTrajectory:
    """Time series of bare-basis amplitudes on a sample grid.

    Acts as a sequence of :class:`TwoLevelState`; the underlying arrays are
    exposed read-only as ``times``, ``c_g`` and ``c_e``.
    """

    def __init__(self, times: np.ndarray, c_g: np.ndarray, c_e: np.ndarray, frame: str = "bare"):
        self.times = _read_only(times, float)
        self.c_g = _read_only(c_g, complex)
        self.c_e = _read_only(c_e, complex)
        if not (self.times.shape == self.c_g.shape == self.c_e.shape):
            raise ValidationError("TwoLevelTrajectory: times and amplitudes must share a shape")
        if frame not in ("bare", "rotating"):
            raise ValidationError("TwoLevelTrajectory: frame must be 'bare' or 'rotating'")
        self.frame = frame

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i: int) -> TwoLevelState:
        return TwoLevelState(complex(self.c_g[i]), complex(self.c_e[i]))

    def __iter__(self) -> Iterator[TwoLevelState]:
        for i in range(len(self)):
            yield self[i]

    @property
    def population_g(self) -> np.ndarray:
        return np.abs(self.c_g) ** 2

    @property
    def population_e(self) -> np.ndarray:
        return np.abs(self.c_e) ** 2

    @property
    def norm(self) -> np.ndarray:
        return self.population_g + self.population_e


@dataclass(frozen=True)
class TrajectoryComparison:
    """Elementwise error metrics between two trajectories on one grid."""

    max_amplitude_error: float
    max_population_error: float
    final_phase_error_g: float
    final_phase_error_e: float


def _integrate_pair(
    rhs: Callable[[float, complex, complex], tuple[complex, complex]],
    t_grid: np.ndarray,
    y0: tuple[complex, complex],
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive DP5(4) integration of a 2-component complex ODE over t_grid.

    The state is kept in scalar complex variables; steps are clipped so every
    requested sample time is hit exactly.
    """
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


def _rk4_pair(
    rhs: Callable[[float, complex, complex], tuple[complex, complex]],
    t_grid: np.ndarray,
    y0: tuple[complex, complex],
    substeps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Classic fixed-step RK4 over t_grid, ``substeps`` steps per sample interval."""
    n = t_grid.size
    out_g = np.empty(n, dtype=complex)
    out_e = np.empty(n, dtype=complex)
    g, e = y0
    out_g[0], out_e[0] = g, e
    for i in range(n - 1):
        h = (t_grid[i + 1] - t_grid[i]) / substeps
        tt = t_grid[i]
        for _ in range(substeps):
            k1g, k1e = rhs(tt, g, e)
            k2g, k2e = rhs(tt + 0.5 * h, g + 0.5 * h * k1g, e + 0.5 * h * k1e)
            k3g, k3e = rhs(tt + 0.5 * h, g + 0.5 * h * k2g, e + 0.5 * h * k2e)
            k4g, k4e = rhs(tt + h, g + h * k3g, e + h * k3e)
            g = g + (h / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
            e = e + (h / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
            tt += h
        out_g[i + 1], out_e[i + 1] = g, e
    return out_g, out_e


def _mat_mul(a: Sequence[np.ndarray], b: Sequence[np.ndarray]) -> tuple:
    """Products a @ b of stacks of 2x2 matrices, each held as its entries (00, 01, 10, 11)."""
    a00, a01, a10, a11 = a
    b00, b01, b10, b11 = b
    return (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11, a10 * b00 + a11 * b10, a10 * b01 + a11 * b11)


def _expm2(m: Sequence[np.ndarray]) -> tuple:
    """exp(M) of a stack of 2x2 matrices in closed form (entries (00, 01, 10, 11)).

    With tau = tr(M)/2 and B = M - tau I (traceless, so B^2 = s^2 I with
    s^2 = -det B), exp(M) = e^tau (cosh(s) I + sinh(s)/s B).  Both functions
    are even in s, so the root taken does not matter.  Below |s| = 0.1 they
    are summed as series, which also covers s = 0: a multiple of the identity,
    or a nilpotent B at an exceptional point.
    """
    m00, m01, m10, m11 = m
    tau = 0.5 * (m00 + m11)
    d = 0.5 * (m00 - m11)
    s2 = d * d + m01 * m10
    small = np.abs(s2) < _SERIES_S2
    s = np.sqrt(np.where(small, 1.0, s2))
    cosh_series = 1.0 + s2 / 2.0 * (1.0 + s2 / 12.0 * (1.0 + s2 / 30.0 * (1.0 + s2 / 56.0)))
    sinhc_series = 1.0 + s2 / 6.0 * (1.0 + s2 / 20.0 * (1.0 + s2 / 42.0 * (1.0 + s2 / 72.0)))
    cosh = np.where(small, cosh_series, np.cosh(s))
    sinhc = np.where(small, sinhc_series, np.sinh(s) / s)
    scale = np.exp(tau)
    c, k = scale * cosh, scale * sinhc
    return (c + k * d, k * m01, k * m10, c - k * d)


def _ordered_product(m: Sequence[np.ndarray]) -> tuple:
    """Time-ordered product M[n-1] ... M[1] M[0] over the last axis, in log2(n) pairwise rounds."""
    while m[0].shape[-1] > 1:
        n = m[0].shape[-1]
        paired = _mat_mul([x[..., 1::2] for x in m], [x[..., 0 : n - 1 : 2] for x in m])
        if n % 2:
            paired = [np.concatenate((p, x[..., -1:]), axis=-1) for p, x in zip(paired, m)]
        m = paired
    return tuple(x[..., 0] for x in m)


def _magnus_steps(terms: Sequence[np.ndarray], weights: np.ndarray, detuning: complex, h: float) -> tuple:
    """One-step propagators exp(Omega) of every interval, for every weight column.

    ``terms[j]`` holds K_j at the two Gauss nodes of each interval (first the
    n lower nodes, then the n upper ones), so the coupling at the nodes is
    K = sum_j weights[j] K_j, with shape (n_drives, 2n).  For the generator
    A = [[0, i conj K], [i K, -i dw~]] the fourth-order Magnus exponent is
    Omega = (h/2)(A1 + A2) + (sqrt(3)/12) h^2 [A2, A1], written out entry by
    entry; its trace -i dw~ h is exact.
    """
    k = sum(w[:, None] * term for w, term in zip(weights, terms))
    n = k.shape[-1] // 2
    k1, k2 = k[:, :n], k[:, n:]
    ksum = k1 + k2
    c = _COMMUTATOR_WEIGHT * h * h
    z = c * (np.conj(k1) * k2 - np.conj(k2) * k1)
    return _expm2(
        (
            z,
            0.5j * h * np.conj(ksum) + c * detuning * np.conj(k2 - k1),
            0.5j * h * ksum + c * detuning * (k1 - k2),
            -1j * detuning * h - z,
        )
    )


def _magnus_grid(
    terms: Callable[[np.ndarray], Sequence[np.ndarray]],
    weights: np.ndarray,
    detuning: complex,
    t0: float,
    t1: float,
    n: int,
) -> np.ndarray:
    """The propagators of ``_magnus_propagator`` on one grid of n intervals.

    Time is taken in chunks of ``_MAGNUS_CHUNK`` intervals and the drives in
    chunks within each, so a stack holds at most ``_MAGNUS_CHUNK`` steps.  A
    power-of-two chunk is an aligned block of ``_ordered_product``'s pairwise
    tree, so multiplying the chunk products in order changes no bit.
    """
    h = (t1 - t0) / n
    span = min(n, _MAGNUS_CHUNK)
    drives = _MAGNUS_CHUNK // span
    batches = [weights[:, i : i + drives] for i in range(0, weights.shape[1], drives)]
    products = []
    for start in range(0, n, span):
        mids = t0 + h * (np.arange(start, min(start + span, n)) + 0.5)
        nodes = np.concatenate((mids - _GAUSS_OFFSET * h, mids + _GAUSS_OFFSET * h))
        values = terms(nodes)
        chunk = [np.stack(_ordered_product(_magnus_steps(values, w, detuning, h))) for w in batches]
        products.append(np.concatenate(chunk, axis=-1))
    return np.stack(_ordered_product(np.stack(products, axis=-1)))


def _magnus_propagator(
    terms: Callable[[np.ndarray], Sequence[np.ndarray]],
    weights: np.ndarray,
    detuning: complex,
    t0: float,
    t1: float,
    cfg: IntegratorConfig,
) -> np.ndarray:
    """Rotating-frame propagators over [t0, t1] of m drives K = sum_j weights[j] K_j.

    ``terms`` evaluates every term K_j on an array of times at once and
    returns their arrays in order; ``weights`` has shape (number of terms,
    m).  Returns the entries (00, 01, 10, 11) of the m propagators as a
    (4, m) array, in the rotating frame of ``_rwa_rhs``.

    The steps are fourth-order Magnus steps (two Gauss-Legendre nodes, one
    commutator) on a uniform grid, all evaluated at once; the 2x2
    exponentials are closed-form and the time-ordered product is a pairwise
    reduction.  The grid starts at the interval count ``cfg.max_step`` asks
    for and is doubled until the largest entry change between the n-interval
    and the 2n-interval propagators, over all drives, is at most
    ``abs_tol + rel_tol * max|U_2n|``, or at most ``2n * eps * max|U_2n|``,
    the rounding a product of 2n steps can reach (it binds below the cap only
    for rel_tol < 2.3e-10); U_2n is returned.  Past 2**20 intervals
    StepSizeUnderflowError is raised; the cap bounds work only, since
    ``_magnus_grid`` chunks time and drives.
    """
    weights = np.asarray(weights, dtype=complex)
    n = max(1, math.ceil((t1 - t0) / cfg.max_step))
    coarse = None
    while n <= _MAGNUS_MAX_INTERVALS:
        fine = _magnus_grid(terms, weights, detuning, t0, t1, n)
        scale = np.max(np.abs(fine))
        tol = max(cfg.abs_tol + cfg.rel_tol * scale, n * np.finfo(float).eps * scale)
        if coarse is not None and np.max(np.abs(fine - coarse)) <= tol:
            return fine
        coarse = fine
        n *= 2
    raise StepSizeUnderflowError(
        f"Magnus step doubling passed {_MAGNUS_MAX_INTERVALS} intervals on [{t0!r}, {t1!r}]"
    )


def _rwa_rhs(
    coupling: Callable[[float], complex], detuning: complex
) -> Callable[[float, complex, complex], tuple[complex, complex]]:
    """Rotating-frame right-hand side with a_g, a_e referenced to w_g and w_g + w.

    ``coupling`` is K(t) of ``_drive``: (Omega(t)/2) exp(-i phi(t)), or the
    real mu E(t) at w = 0.  The equations, the only ones integrated, are
    da_g/dt = i conj(K) a_e and da_e/dt = -i dw~ a_e + i K a_g with the full
    complex detuning dw~ = dw - i gamma/2.
    """
    m_i_det = -1j * detuning

    def rhs(t: float, a_g: complex, a_e: complex) -> tuple[complex, complex]:
        k = coupling(t)
        return 1j * k.conjugate() * a_e, m_i_det * a_e + 1j * k * a_g

    return rhs


def _coupling_fn(system: TwoLevelSystem, field: DrivingField) -> Callable[[float], complex]:
    """K(t) = (mu E0(t)/2) exp(-i phi(t)) of one pulse."""
    env, phi = scalar_envelope_fn(field.envelope), scalar_phase_fn(field.phase)
    half_mu = 0.5 * system.mu
    return lambda t: half_mu * env(t) * cmath.exp(-1j * phi(t))


def _array_coupling_fn(system: TwoLevelSystem, field: DrivingField) -> Callable[[np.ndarray], np.ndarray]:
    """K(t) = (mu E0(t)/2) exp(-i phi(t)) on an array of times, for the Magnus steps."""
    half_mu = 0.5 * system.mu

    def coupling(t: np.ndarray) -> np.ndarray:
        return half_mu * field.envelope.value(t) * np.exp(-1j * field.phase.value(t))

    return coupling


def _field_fn(system: TwoLevelSystem, field: DrivingField) -> Callable[[float], float]:
    """Real coupling mu E(t) = mu E0(t) cos(W t + phi(t)) of one pulse."""
    env, phi = scalar_envelope_fn(field.envelope), scalar_phase_fn(field.phase)
    mu, carrier = system.mu, field.carrier
    return lambda t: mu * (env(t) * math.cos(carrier * t + phi(t)))


def _drive(system: TwoLevelSystem, field: DrivingField, engine: str) -> tuple:
    """The coupling and frame carrier of ``_rwa_rhs`` for the pulse ``field`` on carrier W.

    'rwa': K(t) on W.  'full': the real mu E(t) on carrier 0, since the
    bare-frame equations with the real field are ``_rwa_rhs`` in the frame
    rotating at w_g (Allen & Eberly, Optical Resonance and Two-Level Atoms,
    1975, ch. 2); a common shift of both levels is then an exact global phase.
    """
    _check_engine(engine)
    if engine == "rwa":
        return _coupling_fn(system, field), field.carrier
    return _field_fn(system, field), 0.0


def _check_engine(engine: str) -> None:
    """Raise ValidationError unless ``engine`` is 'rwa' or 'full'."""
    if engine not in ("rwa", "full"):
        raise ValidationError(f"engine must be 'rwa' or 'full', not {engine!r}")


def _propagate(system, coupling, carrier, initial, t_grid, integrate, frame="bare"):
    """Propagate ``initial`` over ``t_grid`` under K(t) on ``carrier`` with ``integrate``.

    The state is moved into the frame rotating at w_g and w_g + carrier,
    integrated there by ``_rwa_rhs``, and moved back unless ``frame`` is
    'rotating'.  The grid and the frame are checked before any integration.
    """
    t = check_monotone_grid(t_grid)
    if frame not in ("bare", "rotating"):
        raise ValidationError(f"frame must be 'bare' or 'rotating', not {frame!r}")
    rhs = _rwa_rhs(coupling, _complex_detuning(system, carrier))
    w_g, w_e_frame = system.omega_g, system.omega_g + carrier
    a0 = (initial.c_g * cmath.exp(1j * w_g * t[0]), initial.c_e * cmath.exp(1j * w_e_frame * t[0]))
    a_g, a_e = integrate(rhs, t, a0)
    if frame == "bare":
        a_g, a_e = a_g * np.exp(-1j * w_g * t), a_e * np.exp(-1j * w_e_frame * t)
    return TwoLevelTrajectory(t, a_g, a_e, frame=frame)


def rwa_propagate(
    system: TwoLevelSystem,
    field: DrivingField,
    initial: TwoLevelState,
    t_grid,
    cfg: IntegratorConfig = IntegratorConfig(),
    frame: str = "bare",
) -> TwoLevelTrajectory:
    """Integrate the rotating-wave equations and return the trajectory in ``frame``.

    With a_g = c_g e^{i w_g t} and a_e = c_e e^{i (w_g + w) t} the equations are

        i da_g/dt = -(Omega/2) e^{+i phi} a_e
        i da_e/dt = dw a_e - (Omega/2) e^{-i phi} a_g - i (gamma/2) a_e
    """
    integrate = partial(_integrate_pair, cfg=cfg)
    return _propagate(system, *_drive(system, field, "rwa"), initial, t_grid, integrate, frame)


def rwa_propagate_coupling(
    system: TwoLevelSystem,
    coupling: Callable[[float], complex],
    carrier: float,
    initial: TwoLevelState,
    t_grid,
    cfg: IntegratorConfig = IntegratorConfig(),
    frame: str = "bare",
) -> TwoLevelTrajectory:
    """Rotating-wave propagation with an arbitrary complex coupling K(t).

    K(t) is any drive on one carrier, e.g. the coherent sum of
    (Omega_j(t)/2) exp(-i phi_j(t)) over pulses; ``rwa_propagate`` is the
    case of one ``DrivingField``.
    """
    integrate = partial(_integrate_pair, cfg=cfg)
    return _propagate(system, coupling, carrier, initial, t_grid, integrate, frame)


def full_field_propagate(
    system: TwoLevelSystem,
    field: DrivingField,
    initial: TwoLevelState,
    t_grid,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> TwoLevelTrajectory:
    """Integrate the bare-frame equations with the full real field (no RWA).

        i dc_g/dt = w_g c_g - Omega(t) cos(Phi(t)) c_e
        i dc_e/dt = w_e c_e - Omega(t) cos(Phi(t)) c_g - i (gamma/2) c_e

    They are integrated in the frame rotating at w_g (see ``_drive``).
    """
    integrate = partial(_integrate_pair, cfg=cfg)
    return _propagate(system, *_drive(system, field, "full"), initial, t_grid, integrate)


def rk4_propagate(
    system: TwoLevelSystem,
    field: DrivingField,
    initial: TwoLevelState,
    t_grid,
    engine: str = "rwa",
    substeps: int = 1,
) -> TwoLevelTrajectory:
    """Fixed-step classic RK4 cross-check integrator (``engine``: 'rwa' or 'full').

    Steps ``substeps`` times between consecutive sample points; the stepper is
    entirely independent of the adaptive one so the two can audit each other.
    The equations never grow the norm (gamma' >= 0), so a trajectory whose
    norm passes twice the initial one has diverged: ValidationError.
    """
    if isinstance(substeps, bool) or not isinstance(substeps, (int, np.integer)) or substeps < 1:
        raise ValidationError("rk4_propagate: substeps must be an integer >= 1")
    integrate = partial(_rk4_pair, substeps=substeps)
    traj = _propagate(system, *_drive(system, field, engine), initial, t_grid, integrate)
    # Amplitude norms cannot overflow, and NaN fails the test too.
    if not np.max(np.hypot(np.abs(traj.c_g), np.abs(traj.c_e))) <= math.sqrt(2.0 * initial.norm()):
        raise ValidationError("rk4_propagate: the norm more than doubled; increase substeps")
    return traj


def _final_phase_error(ca: np.ndarray, cb: np.ndarray) -> float:
    amp_floor = 1e-12
    valid = (np.abs(ca) > amp_floor) & (np.abs(cb) > amp_floor)
    if not valid.any():
        return 0.0
    diff = np.unwrap(np.angle(ca[valid] * np.conjugate(cb[valid])))
    final = float(diff[-1])
    return (final + math.pi) % (2.0 * math.pi) - math.pi


def compare_trajectories(a: TwoLevelTrajectory, b: TwoLevelTrajectory) -> TrajectoryComparison:
    """Elementwise maxima of amplitude and population errors, final phase error per component."""
    if a.frame != b.frame or a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise GridMismatchError("grid mismatch: trajectories must share time grid and frame")
    amp = max(
        float(np.max(np.abs(a.c_g - b.c_g))),
        float(np.max(np.abs(a.c_e - b.c_e))),
    )
    pop = max(
        float(np.max(np.abs(a.population_g - b.population_g))),
        float(np.max(np.abs(a.population_e - b.population_e))),
    )
    return TrajectoryComparison(
        max_amplitude_error=amp,
        max_population_error=pop,
        final_phase_error_g=_final_phase_error(a.c_g, b.c_g),
        final_phase_error_e=_final_phase_error(a.c_e, b.c_e),
    )
