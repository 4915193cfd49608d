"""Small numerical helpers: composite Simpson quadrature with cumulative output.

The quadrature works on the caller's (possibly nonuniform) monotone grid by
fitting a quadratic through consecutive point triples, which reduces to the
classic composite Simpson rule on uniform grids; a triple too fine or too
coarse for its quadratic in floats is a GridError.  It runs over blocks of
``_BLOCK`` samples, so its temporaries stay small, and each block's running
sum continues from the last value of the block before: the result is bit for
bit that of one whole-grid evaluation.  The closed-form layer walks every grid
through ``_simpson_blocks``.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError

#: Samples per block of the blocked closed-form loops; even, so every block
#: starts a Simpson triple.
_BLOCK = 2**14


def check_monotone_grid(t_grid: np.ndarray) -> np.ndarray:
    """``t_grid`` as a float array; GridError unless finite and strictly increasing."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size < 2:
        raise GridError("invalid grid: t_grid must be 1-D with at least 2 points")
    if not np.all(np.diff(t) > 0.0):
        raise GridError("invalid grid: t_grid is non-monotone; it must be strictly increasing")
    if not np.all(np.isfinite(t)):
        raise GridError("invalid grid: t_grid must be finite")
    return t


def _read_only(values, dtype=None) -> np.ndarray:
    """``values`` as an array through a read-only view; the caller's own array stays writeable."""
    view = np.asarray(values, dtype=dtype).view()
    view.flags.writeable = False
    return view


def _triple_integrals(t0, t1, t2, f0, f1, f2) -> tuple:
    """Integrals over [t0, t1] and [t1, t2] of the quadratic through the three points.

    The quadratic is p(u) = a u^2 + b u + f1 with u = t - t1.  GridError
    where a denominator h0 h1 (h0 + h1) of a and b is not a normal float:
    subnormal on a very fine grid, or inf on a very coarse one, it leaves
    them NaN or without their digits.
    """
    h0 = t1 - t0
    h1 = t2 - t1
    d0 = f0 - f1
    d2 = f2 - f1
    with np.errstate(over="ignore"):  # an inf is rejected below, not warned of
        denom = h0 * h1 * (h0 + h1)
    smallest, largest = float(np.min(denom)), float(np.max(denom))
    if not (np.finfo(float).tiny <= smallest and largest < np.inf):
        raise GridError(
            "invalid grid: the spacing must keep the Simpson denominator h0*h1*(h0 + h1)"
            f" a normal float; it reaches {largest if largest == np.inf else smallest!r}"
        )
    a = (d0 * h1 + d2 * h0) / denom
    b = (d2 * h0 * h0 - d0 * h1 * h1) / denom
    left = a * h0**3 / 3.0 - b * h0**2 / 2.0 + f1 * h0
    right = a * h1**3 / 3.0 + b * h1**2 / 2.0 + f1 * h1
    return left, right


def _simpson_blocks(n: int):
    """The Simpson blocks of an n-point grid, each with the slice of samples it owns.

    Each block starts at an even index and ends on the first sample of the
    next, so no triple crosses a block; the last block takes the rest,
    trailing odd interval included.  A grid of at most ``_BLOCK`` + 2 samples
    is one block, and so is one too short for a triple.  A block owns its
    samples but the one it shares with the next, so the owned slices
    partition the grid, each of ``_BLOCK`` samples but the last.
    """
    for start in range(0, max(n - 2, 1), _BLOCK):
        stop = start + _BLOCK if start + _BLOCK < n - 2 else n
        yield slice(start, stop + (stop < n)), slice(start, stop)


def _running_simpson(f: np.ndarray, t: np.ndarray, carry: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """Write to ``out``, and return, the cumulative Simpson integral of ``f`` over the block ``t``.

    Every even i < n - 2 starts a triple; for an odd interval count the final
    interval comes from the last triple.  ``carry`` is the running integral
    of the block before, whose last sample is this block's first: the sum
    starts from it, so consecutive blocks continue one sequential sum over
    the whole grid, bit for bit.  On the first block ``carry`` is None, the
    integral is 0 at the first sample and the sum starts at its first
    increment, which keeps the sign of a zero imaginary part.
    """
    n = t.size
    if n < 3:
        raise GridError("cumulative_simpson: need at least 3 grid points")
    left, right = _triple_integrals(*(x[j : n - 2 + j : 2] for x in (t, f) for j in range(3)))
    out[1 : n - 1 : 2] = left
    out[2:n:2] = right
    if (n - 1) % 2 == 1:
        # The trailing triple as numpy scalars, whose powers round apart
        # from the array kernel's.
        out[n - 1] = _triple_integrals(*t[n - 3 :], *f[n - 3 :])[1]
    out[0] = 0.0 if carry is None else carry[-1]
    running = out[1:] if carry is None else out
    np.cumsum(running, out=running)
    return out


def cumulative_simpson(f: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Cumulative integral of samples ``f`` over grid ``t`` with Simpson accuracy.

    For each consecutive triple of points a quadratic is fitted and integrated
    analytically over its two subintervals; a trailing odd interval reuses the
    quadratic of the last triple. Exact for polynomials up to degree 2 and
    O(h^4)-accurate for smooth integrands on uniform grids.  Works for real or
    complex ``f``; the result has the same length as ``t`` with result[0] = 0.
    """
    t = check_monotone_grid(t)
    f = np.asarray(f)
    if f.shape != t.shape:
        raise GridError("cumulative_simpson: f and t must have identical shapes")
    out = np.empty(t.size, dtype=np.result_type(f.dtype, np.float64))
    carry = None
    for s, _ in _simpson_blocks(t.size):
        carry = _running_simpson(f[s], t[s], carry, out[s])
    return out
