"""Brute-force numerical integration of the driven two-level Schrodinger equation.

This is the ground-truth oracle the closed-form dressed-state results are
checked against.  Two engines are provided:

* ``full_field_propagate`` integrates the bare-frame equations with the real
  field E0(t) cos(W t + phi(t)), counter-rotating terms included;
* ``rwa_propagate`` integrates the rotating-wave equations the dressed-state
  solution lives in; ``rwa_propagate_coupling`` takes any complex coupling
  K(t) on one carrier instead of a pulse.

Both integrate one equation in a frame rotating at w_g: an engine is a
choice of drive (``_drive``) for one pulse, and every trajectory runs
through ``_propagate``, which checks the grid and the frame.

Every trajectory of either engine, and the pulse pairs and fringe scans of
``interferometry``, run fourth-order Magnus steps evaluated as numpy arrays
(Blanes, Casas, Oteo & Ros, Phys. Rep. 470 (2009)): the constant complex
detuning enters each step's exponent exactly, and ``_magnus_grid`` forms
the propagator of every sample interval.  A stack of steps is one
(2, 2, ...) complex array: the 2x2 exponentials are closed-form in real
arithmetic (``_expm2``), and each round of the pairwise time-ordered
product is two broadcast products and a sum.  One ladder,
``_magnus_doubled``, doubles the steps per interval until what is
returned, the sampled states or the segment propagators, changes by at
most its tolerance, and settles a failing round on its first chunk of
intervals; a segment is one interval, so its first chunk is its round.
``rk4_propagate`` runs a fixed-step RK4 stepper as an independent
cross-check.  The tests keep an adaptive Dormand-Prince 5(4) stepper on
scalar couplings as the reference for the Magnus steps.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import GridMismatchError, StepSizeUnderflowError, ValidationError
from .model import DrivingField, TwoLevelSystem, _complex_detuning, _require_finite, instantaneous_field
from .numerics import _read_only, check_monotone_grid

# Fourth-order Magnus step: Gauss-Legendre nodes at the interval midpoint
# -+ _GAUSS_OFFSET * h, and the weight of the commutator term.
_GAUSS_OFFSET = math.sqrt(3.0) / 6.0
_COMMUTATOR_WEIGHT = math.sqrt(3.0) / 12.0
_MAGNUS_MAX_INTERVALS = 2**20  # Magnus steps per sample interval
# A time chunk holds at most _MAGNUS_CHUNK steps (a power of two), and a
# stack at most _MAGNUS_STACK steps over all its drives: one drive's short
# stacks keep a trajectory's memory down, many drives share a longer one.
_MAGNUS_CHUNK = 2**11
_MAGNUS_STACK = 2**15
# Below this |s^2| the closed-form exponential sums cosh(s) and sinh(s)/s as
# series; the first term left out is below s^10 / 10! < 3e-17.  The test is
# Re(s^2)^2 + Im(s^2)^2 < _SERIES_S2^2, in real arithmetic.  Each series is
# summed in Horner form in s^2 over the reciprocal factorials below, so it
# takes multiplications only; the series and the closed form each run only
# on the steps in their range.
_SERIES_S2 = 1e-2
_COSH_SERIES = tuple(1.0 / math.factorial(n) for n in (2, 4, 6, 8))
_SINHC_SERIES = tuple(1.0 / math.factorial(n) for n in (3, 5, 7, 9))


@dataclass(frozen=True)
class TwoLevelState:
    """Bare-basis complex amplitudes (c_g, c_e)."""

    c_g: complex
    c_e: complex

    def __post_init__(self):
        _require_finite(self, ("c_g", "c_e"), cmath.isfinite)
        # Products, not powers: a float power raises OverflowError.
        if not math.isfinite(abs(self.c_g) * abs(self.c_g) + abs(self.c_e) * abs(self.c_e)):
            raise ValidationError("TwoLevelState: |c_g|^2 + |c_e|^2 must be finite")

    def norm(self) -> float:
        return abs(self.c_g) ** 2 + abs(self.c_e) ** 2


@dataclass(frozen=True)
class IntegratorConfig:
    """Integrator tolerances and step cap.

    For the Magnus steps of the trajectories and of the pulse pairs'
    segments they bound the largest change of what is returned (the
    sampled states, or the segment propagator U) when the steps per sample
    interval are doubled, ``abs_tol + rel_tol * max|x|`` (raised to the
    rounding floor n * eps * max|x| of n steps), and ``max_step`` sets the
    first count.
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


def _rk4_pair(
    coupling: Callable[[np.ndarray], np.ndarray],
    detuning: complex,
    t_grid: np.ndarray,
    y0: tuple[complex, complex],
    substeps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Classic fixed-step RK4 over t_grid, ``substeps`` steps per sample interval.

    Every node the steps need, t_i + j h/2 for j = 0 .. 2 substeps, is
    evaluated in one array call of ``coupling``; the loop runs over the
    state only (see ``_propagate`` for the equations).
    """
    h = np.diff(t_grid) / substeps
    nodes = t_grid[:-1, None] + h[:, None] * (0.5 * np.arange(2 * substeps + 1))
    k_nodes = np.asarray(coupling(nodes), dtype=complex)
    m_i_det = -1j * detuning

    def rhs(k, g, e):
        return 1j * k.conjugate() * e, m_i_det * e + 1j * k * g

    out = np.empty((2, t_grid.size), dtype=complex)
    out[:, 0] = g, e = y0
    for i, (hi, row) in enumerate(zip(h.tolist(), k_nodes), start=1):
        ks = row.tolist()
        for j in range(0, 2 * substeps, 2):
            k1g, k1e = rhs(ks[j], g, e)
            k2g, k2e = rhs(ks[j + 1], g + 0.5 * hi * k1g, e + 0.5 * hi * k1e)
            k3g, k3e = rhs(ks[j + 1], g + 0.5 * hi * k2g, e + 0.5 * hi * k2e)
            k4g, k4e = rhs(ks[j + 2], g + hi * k3g, e + hi * k3e)
            g = g + (hi / 6.0) * (k1g + 2.0 * k2g + 2.0 * k3g + k4g)
            e = e + (hi / 6.0) * (k1e + 2.0 * k2e + 2.0 * k3e + k4e)
        out[:, i] = g, e
    return out[0], out[1]


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array re + i im, assembled without complex arithmetic."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _series(s2: np.ndarray) -> tuple:
    """cosh(s) and sinh(s)/s for s^2 = s2 as series in s2, in Horner form."""
    out = []
    for coefficients in (_COSH_SERIES, _SINHC_SERIES):
        acc = coefficients[-1] * s2
        for c in coefficients[-2::-1]:
            # Not in place: numpy's in-place complex product may take another
            # loop, whose last bit depends on the array's length.
            acc = (c + acc) * s2
        out.append(1.0 + acc)
    return tuple(out)


def _cosh_sinhc(s2: np.ndarray) -> tuple:
    """cosh(s) and sinh(s)/s for s^2 = s2 outside the series range (so s != 0).

    With s = u + i v, cosh s = cosh u cos v + i sinh u sin v and sinh s =
    sinh u cos v + i cosh u sin v, and sinh(s)/s = sinh(s) conj(s) / |s2|.
    The root is formed from the larger of |u|, |v| as sqrt((|s2| + |Re s2|)/2),
    the other as Im(s2) / 2 over it (no cancellation); either sign of s does.
    """
    x, y = s2.real, s2.imag
    r = np.hypot(x, y)
    a = np.sqrt(0.5 * (r + np.abs(x)))
    b = 0.5 * y / a
    positive = x >= 0.0
    u, v = np.where(positive, a, b), np.where(positive, b, a)
    ch, sh, cv, sv = np.cosh(u), np.sinh(u), np.cos(v), np.sin(v)
    sinh_re, sinh_im = sh * cv, ch * sv
    sinhc = _complex((sinh_re * u + sinh_im * v) / r, (sinh_im * u - sinh_re * v) / r)
    return _complex(ch * cv, sh * sv), sinhc


def _expm2(m) -> np.ndarray:
    """exp(M) of a (2, 2, ...) stack of 2x2 matrices in closed form, as a new (2, 2, ...) stack.

    With tau = tr(M)/2 and B = M - tau I (traceless, so B^2 = s^2 I with
    s^2 = -det B), exp(M) = e^tau (cosh(s) I + sinh(s)/s B).  Both functions
    are even in s, so the root taken does not matter.  Below |s| = 0.1 they
    are summed as multiply-only series in s^2 (``_series``), which also
    covers s = 0: a multiple of the identity, or a nilpotent B at an
    exceptional point.  Each branch is evaluated only on the matrices that
    take it, and the closed form (``_cosh_sinhc``) not at all when every
    matrix is in the series range.  e^tau, cosh s and sinh s come from real
    exp, cos, sin, cosh and sinh of real and imaginary parts, so no complex
    division or complex transcendental runs.  ``m`` may be nested pairs of entries.
    """
    (m00, m01), (m10, m11) = m
    tau = 0.5 * (m00 + m11)
    d = 0.5 * (m00 - m11)
    s2 = d * d + m01 * m10
    small = s2.real**2 + s2.imag**2 < _SERIES_S2**2
    if small.all():
        cosh, sinhc = _series(s2)
    else:
        cosh, sinhc = np.empty_like(s2), np.empty_like(s2)
        cosh[small], sinhc[small] = _series(s2[small])
        large = ~small
        cosh[large], sinhc[large] = _cosh_sinhc(s2[large])
    growth = np.exp(tau.real)
    scale = _complex(growth * np.cos(tau.imag), growth * np.sin(tau.imag))
    c, k = scale * cosh, scale * sinhc
    kd = k * d
    out = np.empty((2, 2, *s2.shape), dtype=complex)
    np.add(c, kd, out=out[0, 0])
    np.multiply(k, m01, out=out[0, 1])
    np.multiply(k, m10, out=out[1, 0])
    np.subtract(c, kd, out=out[1, 1])
    return out


def _ordered_product(m: np.ndarray) -> np.ndarray:
    """Time-ordered product M[n-1] ... M[1] M[0] of a (2, 2, ..., n) stack, in log2(n) pairwise rounds.

    A round forms (A B)[i, j] = A[i, 0] B[0, j] + A[i, 1] B[1, j] for every
    pair at once, A's columns and B's rows broadcast: two products, one sum.
    """
    while m.shape[-1] > 1:
        n = m.shape[-1]
        a, b = m[..., 1::2], m[..., 0 : n - 1 : 2]
        paired = a[:, 0:1] * b[0:1]
        paired += a[:, 1:2] * b[1:2]
        m = np.concatenate((paired, m[..., -1:]), axis=-1) if n % 2 else paired
    return m[..., 0]


def _magnus_steps(values: Sequence[np.ndarray], weights: np.ndarray, coefficients: tuple) -> np.ndarray:
    """One-step propagators exp(Omega) of every step, as a (2, 2, drives, intervals, steps) stack.

    ``values[j]`` is K_j at the (lower, upper) Gauss nodes, shape (2,
    intervals, steps); K = sum_j weights[j] K_j starts from its first term,
    and one unit-weight term is K itself.  ``coefficients`` are each
    interval's c = (sqrt(3)/12) h^2, i h/2, c dw~ and -i dw~ h, as columns or
    floats.  With A = [[0, i conj K], [i K, -i dw~]], Omega = (h/2)(A1 + A2)
    + c [A2, A1], written out entry by entry; its trace -i dw~ h is exact.
    """
    if weights.shape == (1, 1) and weights[0, 0] == 1.0:
        k = values[0][None]
    else:
        w = weights[..., None, None, None]
        k = w[0] * values[0]
        for w_j, term in zip(w[1:], values[1:]):
            k += w_j * term
    k1, k2 = k[:, 0], k[:, 1]
    c, half_ih, c_detuning, trace = coefficients
    ksum = k1 + k2
    z = c * (np.conj(k1) * k2 - np.conj(k2) * k1)
    m01 = half_ih * np.conj(ksum) + c_detuning * np.conj(k2 - k1)
    return _expm2(((z, m01), (half_ih * ksum + c_detuning * (k1 - k2), trace - z)))


# A step past the float range gives inf or NaN, which fails the doubling (an
# inf is never small in ``_expm2``), so numpy need not warn of it.
@np.errstate(over="ignore", invalid="ignore")
def _magnus_grid(
    terms: Callable[[np.ndarray], Sequence[np.ndarray]],
    weights: np.ndarray,
    detuning: complex,
    t: np.ndarray,
    k: int,
) -> np.ndarray:
    """Propagators over every interval of the sample grid ``t``, k Magnus steps each.

    Returns the entries (00, 01, 10, 11) for the m drives of ``weights`` over
    the n = t.size - 1 intervals as a (4, m, n) array; a segment is n = 1.
    One loop takes time in chunks of at most ``_MAGNUS_CHUNK`` steps (whole
    intervals while k fits, power-of-two blocks of one interval beyond) and
    the drives in batches within each, so a stack holds at most
    ``_MAGNUS_STACK`` steps.  A chunk's nodes are one (2, intervals, steps)
    array, passed to ``terms`` flat, and each interval's step coefficients
    a column broadcast over its steps.  A power-of-two block is an aligned
    block of ``_ordered_product``'s pairwise tree, so multiplying the block
    products in order changes no bit, and each interval's propagator is,
    bit for bit, the one-interval grid's over it.
    """
    m, n = weights.shape[1], t.size - 1
    span = min(k, _MAGNUS_CHUNK)
    per_chunk = min(n, _MAGNUS_CHUNK // span)
    drives = _MAGNUS_STACK // (per_chunk * span)
    h = (t[1:] - t[:-1])[:, None] / k
    out = np.empty((4, m, n), dtype=complex)
    product = out.reshape(2, 2, m, n)
    for i in range(0, n, per_chunk):
        hi = h[i : i + per_chunk]
        per = hi.shape[0]
        # One interval's coefficients are floats: numpy multiplies a size-1
        # column and a size-1 stack in another loop, whose last bit differs.
        hc = hi if per > 1 else float(hi[0, 0])
        c = _COMMUTATOR_WEIGHT * hc * hc
        coefficients = (c, 0.5j * hc, c * detuning, -1j * detuning * hc)
        offset = _GAUSS_OFFSET * np.stack((-hi, hi))
        blocks = np.empty((2, 2, m, per, -(-k // span)), dtype=complex)
        for b, j in enumerate(range(0, k, span)):
            mids = t[i : i + per, None] + hi * (np.arange(j, min(j + span, k)) + 0.5)
            nodes = mids + offset
            values = [x.reshape(nodes.shape) for x in terms(nodes.reshape(-1))]
            for d in range(0, m, drives):
                u = _magnus_steps(values, weights[:, d : d + drives], coefficients)
                blocks[:, :, d : d + drives, :, b] = _ordered_product(u)
        product[..., i : i + per] = _ordered_product(blocks)
    return out


def _magnus_doubled(
    run: Callable[[np.ndarray, int, int, int], None],
    x: np.ndarray,
    t: np.ndarray,
    cfg: IntegratorConfig,
    norm: float = math.inf,
) -> np.ndarray:
    """The results at the samples ``t`` at the first k whose doubling changes them within tolerance.

    ``x`` has shape (..., n + 1) with x[..., 0] given, and ``run(x, k, i,
    j)`` fills x[..., i + 1 : j + 1] on from x[..., i] at k Magnus steps per
    interval.  k starts at the count ``cfg.max_step`` asks for and is
    doubled until the results at 2k change from those at k by at most
    abs_tol + rel_tol * max|x|, or n k eps max|x| if larger, the rounding a
    product of the finer grid's steps can reach; the finer are returned.

    Each round first runs only its first chunk, the first max(1,
    _MAGNUS_CHUNK // k) intervals.  The tolerance never falls as max|x|
    grows, also in floating point, so if the chunk already changes by more
    than the tolerance at ``norm`` (1 + 32 n k eps), a bound on every entry
    of the round, the round fails without running the rest; NaN fails, as
    in the full test.  Otherwise this round and the last are run to the
    end, and the full test decides.  A segment is one interval, so its
    first chunk is its whole round.  Past
    ``_MAGNUS_MAX_INTERVALS`` steps per interval StepSizeUnderflowError is
    raised.  The cap bounds k, not the steps of the whole grid, so only the
    drive limits a trajectory however many samples it has; ``_magnus_grid``
    chunks time and drives, so memory stays bounded.
    """
    n, eps = t.size - 1, np.finfo(float).eps

    def within(change, k, scale):
        return change <= max(cfg.abs_tol + cfg.rel_tol * scale, n * k * eps * scale)

    # Capped as a float first: below a subnormal max_step the count is inf.
    k = max(1, math.ceil(min(float(np.max(np.diff(t))) / cfg.max_step, 2.0 * _MAGNUS_MAX_INTERVALS)))
    coarse = None  # the last round: its results, the last sample run and its k
    while k <= _MAGNUS_MAX_INTERVALS:
        fine = x.copy()
        head = min(n, max(1, _MAGNUS_CHUNK // k))
        run(fine, k, 0, head)
        if coarse is not None:
            last, done, k_last = coarse
            change = np.max(np.abs(fine[..., : head + 1] - last[..., : head + 1]))
            if within(change, k, norm * (1.0 + 32.0 * n * k * eps)):
                if head < n:
                    if done < n:
                        run(last, k_last, done, n)
                    run(fine, k, head, n)
                    head = n
                    change = np.max(np.abs(fine - last))
                if within(change, k, np.max(np.abs(fine))):
                    return fine
        coarse = fine, head, k
        k *= 2
    raise StepSizeUnderflowError(
        f"Magnus step doubling passed {_MAGNUS_MAX_INTERVALS} steps per interval "
        f"on [{float(t[0])!r}, {float(t[-1])!r}]"
    )


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
    (4, m) array, in the rotating frame of ``_propagate``.  The segment is
    the one interval of ``_magnus_doubled``, its results the propagators
    after a zero start column, with no bound on their entries; the rounding
    floor binds below the cap only for rel_tol < 2.3e-10.  A detuning whose
    square overflows a step at the cap is rejected first (``_check_detuning``).
    """
    weights = np.asarray(weights, dtype=complex)
    t = np.array([t0, t1], dtype=float)
    _check_detuning(detuning, float(t[1] - t[0]))

    def run(x, k, i, j):
        x[..., 1] = _magnus_grid(terms, weights, detuning, t, k)[..., 0]

    return _magnus_doubled(run, np.zeros((4, weights.shape[1], 2), dtype=complex), t, cfg)[..., 1]


def _magnus_trajectory(
    coupling: Callable[[np.ndarray], np.ndarray],
    detuning: complex,
    t: np.ndarray,
    y0: tuple[complex, complex],
    cfg: IntegratorConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """The rotating-frame states at the samples ``t`` from ``y0``, on Magnus steps.

    ``coupling`` evaluates K(t) on an array of times.  Each sample
    interval's propagator of ``_magnus_grid`` is applied to the state in
    order, and ``_magnus_doubled`` doubles the steps until the sampled
    states change by at most their tolerance.  A round is continued from
    its last state, and ``_magnus_grid`` gives each interval's propagator
    bit for bit whatever grid it is part of, so a round run in pieces
    equals the round run whole.

    Without damping the exact propagators are unitary, and so are the Magnus
    steps, up to rounding, so no state's norm passes |y0| (1 + delta),
    delta = 32 n k eps: each interval's 2k matrix operations (k
    exponentials, k - 1 products, one state update) are allowed 16 eps of
    norm each, to first order; |y0| is the ladder's ``norm``.  With damping
    a step is no contraction (the commutator term makes the Hermitian part
    of its exponent indefinite), so a damped round has no such bound, and
    only NaN settles it on its first chunk.

    Before any step ``_check_resolved`` rejects an interval i where
    max(|K(t_i)|, |K(t_i+1)|) turns by pi or more per step at the cap, and
    ``_check_detuning`` a detuning whose square overflows a step there.
    """
    k_abs, h = np.abs(coupling(t)), np.diff(t)
    _check_resolved(np.maximum(k_abs[:-1], k_abs[1:]), h, "coupling |K|")
    _check_detuning(detuning, float(h.max()))
    weights = np.ones((1, 1), dtype=complex)

    def run(x, k, start, stop):
        """Fill the states x[:, start + 1 : stop + 1] on from x[:, start], k steps per interval."""
        u = _magnus_grid(lambda s: (coupling(s),), weights, detuning, t[start : stop + 1], k)[:, 0]
        g, e = x[:, start].tolist()
        # Python complex arithmetic is the fast form of this sequential
        # loop; the intervals go through it in chunks to bound its lists.
        for i in range(0, stop - start, _MAGNUS_CHUNK):
            gs, es = [], []
            for u00, u01, u10, u11 in zip(*u[:, i : i + _MAGNUS_CHUNK].tolist()):
                g, e = u00 * g + u01 * e, u10 * g + u11 * e
                gs.append(g)
                es.append(e)
            j = start + 1 + i
            x[0, j : j + len(gs)] = gs
            x[1, j : j + len(es)] = es

    x = np.empty((2, t.size), dtype=complex)
    x[:, 0] = y0
    norm = math.hypot(abs(y0[0]), abs(y0[1])) if detuning.imag == 0.0 else math.inf
    fine = _magnus_doubled(run, x, t, cfg, norm)
    return fine[0], fine[1]


def _array_coupling_fn(system: TwoLevelSystem, field: DrivingField) -> Callable[[np.ndarray], np.ndarray]:
    """K(t) = (mu E0(t)/2) exp(-i phi(t)) on an array of times, for the Magnus steps.

    K is assembled from the real cos phi and sin phi, with no complex
    exponential; a constant phase's cos phi0 and sin phi0 are taken once.
    """
    half_mu, phase = 0.5 * system.mu, field.phase
    constant = (np.cos(phase.phi0), np.sin(phase.phi0)) if phase.shape == "constant" else None

    def coupling(t: np.ndarray) -> np.ndarray:
        amplitude = half_mu * field.envelope.value(t)
        phi = None if constant else phase.value(t)
        cos, sin = constant or (np.cos(phi), np.sin(phi))
        return _complex(amplitude * cos, -(amplitude * sin))

    return coupling


def _drive(system: TwoLevelSystem, field: DrivingField, engine: str) -> tuple:
    """The array coupling and frame carrier of ``_propagate`` for the pulse ``field`` on carrier W.

    'rwa': K(t) on W.  'full': the real mu E(t) = mu E0(t) cos(W t + phi(t))
    on carrier 0, since the bare-frame equations with the real field are the
    rotating-frame ones at w = 0 in the frame rotating at w_g (Allen &
    Eberly, Optical Resonance and Two-Level Atoms, 1975, ch. 2); a common
    shift of both levels is then an exact global phase.
    """
    _check_engine(engine)
    if engine == "rwa":
        return _array_coupling_fn(system, field), field.carrier
    mu = system.mu
    return (lambda t: mu * instantaneous_field(field, t)), 0.0


def _check_resolved(rate, span, name: str = "carrier") -> None:
    """StepSizeUnderflowError unless the step cap resolves ``rate`` (a float or array) over ``span``.

    A Magnus step samples its drive at two Gauss nodes, which tell nothing
    once the step turns it by pi or more; at ``_MAGNUS_MAX_INTERVALS`` steps
    over an interval of length ``span`` that is rate span / cap >= pi, for
    the carrier W or for |K|.  NaN passes (and fails the step doubling).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        turns = np.ravel(rate * span / _MAGNUS_MAX_INTERVALS >= math.pi)
    if turns.any():
        i = int(np.argmax(turns))
        rate, span = (float(np.broadcast_to(x, turns.shape)[i]) for x in (rate, span))
        raise StepSizeUnderflowError(
            f"step-size underflow: the {name} {rate!r} turns by pi or more per Magnus step "
            f"at {_MAGNUS_MAX_INTERVALS} steps over an interval of {span!r}"
        )


def _check_detuning(detuning: complex, span: float) -> None:
    """StepSizeUnderflowError unless a Magnus step at the cap keeps the detuning's square finite.

    The detuning enters each step's exponent exactly, so it needs no
    resolving; but ``_expm2`` squares the exponent's traceless part d, with
    |d| about |dw~| h / 2, which overflows from |d| = sqrt(max float) on.
    At ``_MAGNUS_MAX_INTERVALS`` steps over an interval of length ``span``
    no step count is then left that does not.
    """
    d = math.hypot(detuning.real, detuning.imag) * span / (2.0 * _MAGNUS_MAX_INTERVALS)
    if d >= math.sqrt(np.finfo(float).max):
        raise StepSizeUnderflowError(
            f"step-size underflow: the detuning {detuning!r} overflows a Magnus step "
            f"at {_MAGNUS_MAX_INTERVALS} steps over an interval of {span!r}"
        )


def _check_engine(engine: str) -> None:
    """Raise ValidationError unless ``engine`` is 'rwa' or 'full'."""
    if engine not in ("rwa", "full"):
        raise ValidationError(f"engine must be 'rwa' or 'full', not {engine!r}")


def _propagate(system, coupling, carrier, initial, t_grid, integrate, frame="bare"):
    """Propagate ``initial`` over ``t_grid`` under K(t) on ``carrier`` with ``integrate``.

    The state is moved into the frame rotating at w_g and w_g + carrier,
    integrated there, and moved back unless ``frame`` is 'rotating'.  With
    the full complex detuning dw~ = dw - i gamma/2 the equations there, the
    only ones integrated, are

        da_g/dt = i conj(K) a_e,    da_e/dt = -i dw~ a_e + i K a_g.

    ``integrate(coupling, dw~, t, a0)`` returns (a_g, a_e) at the samples.
    The grid and the frame are checked before any integration.
    """
    t = check_monotone_grid(t_grid)
    if frame not in ("bare", "rotating"):
        raise ValidationError(f"frame must be 'bare' or 'rotating', not {frame!r}")
    w_g, w_e_frame = system.omega_g, system.omega_g + carrier
    a0 = (initial.c_g * cmath.exp(1j * w_g * t[0]), initial.c_e * cmath.exp(1j * w_e_frame * t[0]))
    a_g, a_e = integrate(coupling, _complex_detuning(system, carrier), t, a0)
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

    on fourth-order Magnus steps (see ``_magnus_trajectory``).
    """
    integrate = partial(_magnus_trajectory, cfg=cfg)
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
    case of one ``DrivingField``, on the same Magnus steps: K is evaluated
    at their nodes one time at a time.
    """

    def at_nodes(nodes: np.ndarray) -> np.ndarray:
        return np.fromiter(map(coupling, nodes.tolist()), complex, nodes.size)

    integrate = partial(_magnus_trajectory, cfg=cfg)
    return _propagate(system, at_nodes, carrier, initial, t_grid, integrate, frame)


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

    They are integrated in the frame rotating at w_g (see ``_drive``), on
    fourth-order Magnus steps (see ``_magnus_trajectory``).  A carrier the
    step cap cannot resolve over the longest sample interval is rejected
    before any step (``_check_resolved``).
    """

    def integrate(coupling, detuning, t, a0):
        _check_resolved(field.carrier, float(np.max(np.diff(t))))
        return _magnus_trajectory(coupling, detuning, t, a0, cfg)

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
    entirely independent of the Magnus steps so the two can audit each other.
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
    amp = max(float(np.max(np.abs(a.c_g - b.c_g))), float(np.max(np.abs(a.c_e - b.c_e))))
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
