"""Small numerical helpers: composite Simpson quadrature with cumulative output.

The quadrature works on the caller's (possibly nonuniform) monotone grid by
fitting a quadratic through consecutive point triples, which reduces to the
classic composite Simpson rule on uniform grids; a triple too fine or too
coarse for its quadratic in floats is a GridError.  It runs over blocks of
``_BLOCK`` samples, so its temporaries stay small, and one cumulative sum
over the whole grid follows: the result is bit for bit that of one
whole-grid evaluation.
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


def _blocks(n: int):
    """Slices of the consecutive blocks of ``_BLOCK`` samples of an n-point grid."""
    for start in range(0, n, _BLOCK):
        yield slice(start, start + _BLOCK)


def _simpson_blocks(n: int):
    """Slices of the blocks of an n-point grid, for the Simpson increments.

    Each block starts at an even index and ends on the first sample of the
    next, so no triple crosses a block; the last block takes the rest,
    trailing odd interval included.  A grid of at most ``_BLOCK`` samples is
    one block, and so is one too short for a triple.
    """
    for start in range(0, max(n - 2, 1), _BLOCK):
        yield slice(start, start + _BLOCK + 1 if start + _BLOCK < n - 2 else n)


def _simpson_increments(f: np.ndarray, t: np.ndarray, out: np.ndarray) -> None:
    """Write to ``out`` the integral of the Simpson quadratic over each interval of ``t``.

    Every even i < n - 2 starts a triple; for an odd interval count the final
    interval comes from the last triple.
    """
    n = t.size
    if n < 3:
        raise GridError("cumulative_simpson: need at least 3 grid points")
    left, right = _triple_integrals(*(x[j : n - 2 + j : 2] for x in (t, f) for j in range(3)))
    out[0 : n - 2 : 2] = left
    out[1 : n - 1 : 2] = right
    if (n - 1) % 2 == 1:
        # The trailing triple as numpy scalars, whose powers round apart
        # from the array kernel's.
        out[n - 2] = _triple_integrals(*t[n - 3 :], *f[n - 3 :])[1]


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
    out = np.zeros(t.size, dtype=np.result_type(f.dtype, np.float64))
    for b in _simpson_blocks(t.size):
        _simpson_increments(f[b], t[b], out[b.start + 1 : b.stop])
    # One running sum over the whole grid, in place: adding a carry to each
    # block's own sum would round apart.
    np.cumsum(out[1:], out=out[1:])
    return out
