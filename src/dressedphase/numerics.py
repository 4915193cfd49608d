"""Small numerical helpers: composite Simpson quadrature with cumulative output.

The quadrature works on the caller's (possibly nonuniform) monotone grid by
fitting a quadratic through consecutive point triples, which reduces to the
classic composite Simpson rule on uniform grids.
"""

from __future__ import annotations

import numpy as np

from .errors import GridError


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
    n = t.size
    if n < 3:
        raise GridError("cumulative_simpson: need at least 3 grid points")

    out = np.zeros(n, dtype=np.result_type(f.dtype, np.float64))

    # Quadratic through (t[i], f[i]), (t[i+1], f[i+1]), (t[i+2], f[i+2]) as
    # p(u) = a u^2 + b u + c with u = t - t[i+1], for every even i < n - 2.
    # For an odd interval count the final interval is left to the trailing
    # block below.
    t0, t1, t2 = t[0 : n - 2 : 2], t[1 : n - 1 : 2], t[2:n:2]
    f0, f1, f2 = f[0 : n - 2 : 2], f[1 : n - 1 : 2], f[2:n:2]
    h0 = t1 - t0
    h1 = t2 - t1
    d0 = f0 - f1
    d2 = f2 - f1
    denom = h0 * h1 * (h0 + h1)
    a = (d0 * h1 + d2 * h0) / denom
    b = (d2 * h0 * h0 - d0 * h1 * h1) / denom
    c = f1
    left = a * h0**3 / 3.0 - b * h0**2 / 2.0 + c * h0
    right = a * h1**3 / 3.0 + b * h1**2 / 2.0 + c * h1

    increments = np.empty(n - 1, dtype=out.dtype)
    increments[0 : n - 2 : 2] = left
    increments[1 : n - 1 : 2] = right

    if (n - 1) % 2 == 1:
        # Trailing interval (t[n-2], t[n-1]) from the quadratic through the
        # last three points.
        h0l = t[n - 2] - t[n - 3]
        h1l = t[n - 1] - t[n - 2]
        d0l = f[n - 3] - f[n - 2]
        d2l = f[n - 1] - f[n - 2]
        den = h0l * h1l * (h0l + h1l)
        al = (d0l * h1l + d2l * h0l) / den
        bl = (d2l * h0l * h0l - d0l * h1l * h1l) / den
        cl = f[n - 2]
        increments[n - 2] = al * h1l**3 / 3.0 + bl * h1l**2 / 2.0 + cl * h1l

    np.cumsum(increments, out=out[1:])
    return out
