"""Hydrodynamic (polar) decomposition of 1-D wavefunctions and its residuals.

A wavefunction on a periodic grid is split as psi = R exp(i S) (hbar = 1);
the quantum Hamilton-Jacobi equation and the continuity equation are then
checked as finite-difference residuals on numerically propagated frames.
``_frame_analysis`` decomposes each frame once, in a window of three, and
forms both residuals, the public ones and the command-line run alike.  S is
unwrapped as ``np.unwrap`` does it, bit for bit, but with the ``mod`` taken
only at the steps that wrap (``_unwrap``).
Nodes are handled by masking points with R below a floor instead of
regularizing the diverging quantum potential; all derivative stencils are
second-order central differences, so residuals converge at second order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EdgeLeakageError,
    GridError,
    InsufficientFramesError,
    ValidationError,
)
from .numerics import _read_only

#: Default mask floor as a fraction of max R.
R_FLOOR_FRACTION = 1e-8

#: Edge-safety threshold: max edge |psi|^2 relative to the global max.
EDGE_FRACTION = 1e-10


@dataclass(frozen=True)
class GridWavefunction:
    """Complex wavefunction on a uniform periodic grid.

    ``n_points`` must be a power of two (>= 16) for the spectral kinetic step.
    """

    x_min: float
    dx: float
    values: np.ndarray
    mass: float = 1.0
    t: float = 0.0

    def __post_init__(self):
        values = _read_only(self.values, complex)
        object.__setattr__(self, "values", values)
        if values.ndim != 1:
            raise ValidationError("GridWavefunction: values must be 1-D")
        self.check_grid(values.size, self.dx, self.mass)
        if not np.all(np.isfinite(values.view(float))):
            raise ValidationError("GridWavefunction: values must be finite")

    @staticmethod
    def check_grid(n_points: int, dx: float, mass: float) -> None:
        """Raise ValidationError unless the grid suits the spectral kinetic step."""
        if n_points < 16 or n_points & (n_points - 1):
            raise ValidationError("GridWavefunction: n_points must be a power of two >= 16")
        if not dx > 0.0:
            raise ValidationError("GridWavefunction: dx must be > 0")
        if not mass > 0.0:
            raise ValidationError("GridWavefunction: mass must be > 0")

    @property
    def n_points(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n_points)

    def norm(self) -> float:
        """Total probability, sum |psi|^2 dx."""
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)


@dataclass(frozen=True)
class PotentialSpec:
    """Real potential on the grid: free, harmonic, or tabulated values."""

    shape: str
    mass: float = 1.0
    omega0: float = 0.0
    center: float = 0.0
    values: np.ndarray | None = None

    def __post_init__(self):
        if self.shape not in ("free", "harmonic", "tabulated"):
            raise ValidationError(f"PotentialSpec: unknown shape {self.shape!r}")
        if self.shape == "harmonic" and not (self.mass > 0.0 and self.omega0 > 0.0):
            raise ValidationError("PotentialSpec: harmonic needs mass > 0 and omega0 > 0")
        if self.shape == "tabulated":
            if self.values is None:
                raise ValidationError("PotentialSpec: tabulated needs values")
            vals = np.asarray(self.values, dtype=float)
            if not np.all(np.isfinite(vals)):
                raise ValidationError("PotentialSpec: tabulated values must be finite")
            object.__setattr__(self, "values", vals)

    @classmethod
    def free(cls) -> "PotentialSpec":
        return cls("free")

    @classmethod
    def harmonic(cls, mass: float, omega0: float, center: float = 0.0) -> "PotentialSpec":
        return cls("harmonic", mass=mass, omega0=omega0, center=center)

    @classmethod
    def tabulated(cls, values) -> "PotentialSpec":
        return cls("tabulated", values=values)

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        if self.shape == "free":
            return np.zeros_like(x)
        if self.shape == "harmonic":
            return 0.5 * self.mass * self.omega0**2 * (x - self.center) ** 2
        if self.values.size != x.size:
            raise ValidationError("PotentialSpec: tabulated length does not match grid")
        return self.values


@dataclass(frozen=True)
class PolarFields:
    """Amplitude R >= 0 and spatially unwrapped phase S of one frame.

    ``S`` is NaN outside the validity mask (R below the floor); each
    contiguous valid region is unwrapped left to right independently.
    """

    R: np.ndarray
    S: np.ndarray
    valid: np.ndarray
    dx: float
    x_min: float
    r_floor: float

    def __post_init__(self):
        for name in ("R", "S", "valid"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    def reconstruct(self) -> np.ndarray:
        """R exp(i S) on valid points (NaN elsewhere); inverse of the decomposition."""
        out = np.full(self.R.shape, np.nan, dtype=complex)
        v = self.valid
        out[v] = self.R[v] * np.exp(1j * self.S[v])
        return out


def _edge_safe(values: np.ndarray) -> bool:
    dens = np.abs(values) ** 2
    peak = float(np.max(dens))
    return max(float(dens[0]), float(dens[-1])) < EDGE_FRACTION * peak


def _check_half_step_phase(v: np.ndarray, dt: float, name: str) -> None:
    """Raise ValidationError unless the half-step phase 0.5*dt*max|V| is below 2**52 rad.

    From 2**52 rad on, the rounding of the phase alone moves it by >= 1 rad,
    so the split step would scramble the wavefunction.  ``name`` leads the
    message and names the input at fault.
    """
    phase = 0.5 * dt * float(np.max(np.abs(v)))
    if not phase < 2.0**52:
        raise ValidationError(
            f"{name} must keep the half-step phase 0.5*dt*max|V| below 2**52 rad"
            f" on the grid; it is {phase:g}"
        )


def split_step_count(t_final: float, dt: float) -> int:
    """Steps of ``dt`` in ``t_final``; GridError unless both are > 0 and dt divides t_final."""
    if not dt > 0.0:
        raise GridError("split_step_solve: dt must be > 0")
    if not t_final > 0.0:
        raise GridError("split_step_solve: t_final must be > 0")
    if not math.isfinite(t_final / dt):
        raise GridError("split_step_solve: dt must keep t_final/dt finite")
    n_steps = int(round(t_final / dt))
    if n_steps < 1 or abs(n_steps * dt - t_final) > 1e-9 * max(dt, abs(t_final)):
        raise GridError("split_step_solve: dt must divide t_final")
    return n_steps


def split_step_solve(
    psi0: GridWavefunction,
    potential: PotentialSpec,
    t_final: float,
    dt: float,
) -> list[GridWavefunction]:
    """Strang-split spectral propagation; returns frames at t0, t0+dt, ..., t0+t_final.

    Half potential step, full spectral kinetic step, half potential step; the
    scheme is exactly unitary up to roundoff.  Raises ``EdgeLeakageError``
    when probability reaches the grid edge (the grid is periodic, so leakage
    would wrap around), and ``ValidationError`` before any step when the
    potential's half-step phase cannot be resolved (``_check_half_step_phase``).
    """
    n_steps = split_step_count(t_final, dt)
    if not _edge_safe(psi0.values):
        raise EdgeLeakageError(
            "edge leakage: initial wavefunction is not negligible at the grid edge"
        )

    x = psi0.x
    v = potential.evaluate(x)
    _check_half_step_phase(v, dt, "split_step_solve: potential")
    k = 2.0 * math.pi * np.fft.fftfreq(psi0.n_points, d=psi0.dx)
    exp_v_half = np.exp(-0.5j * dt * v)
    exp_kin = np.exp(-0.5j * dt * k**2 / psi0.mass)

    frames = [psi0]
    psi = psi0.values
    for step in range(1, n_steps + 1):
        psi = exp_v_half * psi
        psi = np.fft.ifft(exp_kin * np.fft.fft(psi))
        psi = exp_v_half * psi
        if not _edge_safe(psi):
            raise EdgeLeakageError(f"edge leakage at step {step} (t = {psi0.t + step * dt})")
        frames.append(
            GridWavefunction(psi0.x_min, psi0.dx, psi, mass=psi0.mass, t=psi0.t + step * dt)
        )
    return frames


def polar_decompose(psi: GridWavefunction, r_floor: float | None = None) -> PolarFields:
    """Split psi into R = |psi| and spatially unwrapped phase S (hbar = 1).

    Points with R below ``r_floor`` (default 1e-8 of max R) are masked; S is
    unwrapped left to right within each contiguous valid region.
    """
    r = np.abs(psi.values)
    if r_floor is None:
        r_floor = R_FLOOR_FRACTION * float(np.max(r))
    if not r_floor > 0.0:
        raise ValidationError("polar_decompose: r_floor must be > 0")
    valid = r >= r_floor
    s = np.full(psi.n_points, np.nan)
    for start, stop in _valid_runs(valid):
        s[start:stop] = _unwrap(np.angle(psi.values[start:stop]))
    return PolarFields(R=r, S=s, valid=valid, dx=psi.dx, x_min=psi.x_min, r_floor=r_floor)


def _unwrap(s: np.ndarray) -> np.ndarray:
    """``np.unwrap(s)``, bit for bit, in place, with the ``mod`` taken only at steps of pi or more.

    np.unwrap's correction is +0.0 wherever |dS| < pi; the same ``cumsum`` of them follows.
    """
    ds = s[1:] - s[:-1]
    fix = np.zeros(ds.size)
    wraps = np.flatnonzero(np.abs(ds) >= np.pi)
    if wraps.size:
        dw = ds[wraps]
        dmod = np.mod(dw + np.pi, 2.0 * np.pi) - np.pi
        dmod[(dmod == -np.pi) & (dw > 0)] = np.pi
        fix[wraps] = dmod - dw
    s[1:] += np.cumsum(fix)
    return s


def _valid_runs(valid: np.ndarray):
    """(start, stop) index pairs of contiguous True runs."""
    padded = np.concatenate(([False], valid, [False]))
    edges = np.flatnonzero(padded[1:] != padded[:-1]).tolist()
    return list(zip(edges[::2], edges[1::2]))


def _central_difference(f: np.ndarray, dx: float) -> np.ndarray:
    """(f[i+1] - f[i-1]) / 2dx at interior points; NaN at both ends."""
    out = np.full(f.shape, np.nan)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    return out


def quantum_potential(fields: PolarFields, mass: float) -> np.ndarray:
    """U = -(1/2m) (d^2 R / dx^2) / R by second central differences.

    Defined on interior points whose full stencil is valid; NaN elsewhere.
    The divergence at nodes is genuine, which is why masked points are
    omitted rather than regularized.
    """
    valid = fields.valid
    if not valid.any():
        raise ValidationError("quantum_potential: validity mask is empty")
    r = fields.R
    d2 = np.full(r.shape, np.nan)
    d2[1:-1] = r[2:] - 2.0 * r[1:-1] + r[:-2]
    with np.errstate(invalid="ignore", divide="ignore"):
        u = -d2 / (2.0 * mass * fields.dx**2 * r)
    stencil = np.zeros(valid.shape, dtype=bool)
    stencil[1:-1] = valid[1:-1] & valid[:-2] & valid[2:]
    return np.where(stencil, u, np.nan)


def momentum_field(fields: PolarFields) -> np.ndarray:
    """Particle momentum p = dS/dx (hbar = 1) by central differences; v = p/m.

    NaN outside valid interiors.
    """
    if not fields.valid.any():
        raise ValidationError("momentum_field: validity mask is empty")
    return _momentum(fields, _central_difference(fields.S, fields.dx))


def _momentum(fields: PolarFields, grad: np.ndarray) -> np.ndarray:
    """``momentum_field`` from ``grad``, the central difference of the frame's S: NaN
    wherever a neighbour is masked (S is), so masking the centre completes the stencil."""
    return np.where(fields.valid, grad, np.nan)


@dataclass(frozen=True)
class ResidualSeries:
    """Residual fields (NaN-masked) and their L2 norms at the interior frames."""

    times: np.ndarray
    fields: np.ndarray
    l2: np.ndarray

    def __post_init__(self):
        for name in ("times", "fields", "l2"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))


def _frame_spacing(frames) -> float:
    if len(frames) < 3:
        raise InsufficientFramesError("insufficient frames: need at least 3")
    dts = np.diff([f.t for f in frames])
    dt = float(dts[0])
    if dt <= 0.0 or np.max(np.abs(dts - dt)) > 1e-9 * dt:
        raise GridError("frames must be uniformly spaced in time")
    return dt


def _residual_l2(res: np.ndarray, dx: float) -> float:
    """L2 norm sqrt(sum residual^2 dx) over the finite points of ``res``."""
    kept = res[np.isfinite(res)]
    return math.sqrt(float(np.sum(kept * kept) * dx))


def _frame_analysis(frames, mass: float, vx=None, r_floor: float | None = None, stride: int = 0, continuity=True):
    """Yield ``(polar, u, p, hj, cont)`` per frame, once its successor is decomposed.

    Only a window of three decompositions (and their R^2) stays alive.  ``hj``
    (given ``vx``, the potential on the grid) and ``cont`` (if ``continuity``)
    are the frame's residuals as (field, L2 norm), None at the end frames.
    ``u`` and ``p`` come at every ``stride``-th frame alone.
    """
    dt, last = _frame_spacing(frames), len(frames) - 1
    polars, rhos = [], []
    for j, frame in enumerate(frames):
        polar = polar_decompose(frame, r_floor)
        polars, rhos = [*polars[-2:], polar], [*rhos[-2:], polar.R**2 if continuity else None]
        if j >= 2:
            mid = polars[1]
            grad = _central_difference(mid.S, mid.dx)
            u = hj = cont = None
            if continuity:
                res = (rhos[2] - rhos[0]) / (2.0 * dt) + _central_difference(rhos[1] * grad / mass, mid.dx)
                cont = res, _residual_l2(res, mid.dx)
            if vx is not None:
                s_prev, _, s_next = _anchored_phase_triple(polars)
                u = quantum_potential(mid, mass)
                res = (s_next - s_prev) / (2.0 * dt) + grad**2 / (2.0 * mass) + vx + u
                hj = res, _residual_l2(res, mid.dx)
            if stride and (j - 1) % stride == 0:
                yield mid, u, _momentum(mid, grad), hj, cont
            else:
                yield mid, None, None, hj, cont
        if j in (0, last):
            if stride and j % stride == 0:
                yield polar, quantum_potential(polar, mass), momentum_field(polar), None, None
            else:
                yield polar, None, None, None, None


def _residual_series(frames, mass: float, r_floor: float | None, vx=None) -> ResidualSeries:
    """The Hamilton-Jacobi residual if ``vx`` is given, else the continuity one, NaN where not finite."""
    rows, l2 = [], []
    for *_, hj, cont in _frame_analysis(frames, mass, vx, r_floor, continuity=vx is None):
        res = cont if vx is None else hj
        if res is not None:
            rows.append(np.where(np.isfinite(res[0]), res[0], np.nan))
            l2.append(res[1])
    return ResidualSeries(np.array([f.t for f in frames[1:-1]]), np.array(rows), np.array(l2))


def _anchored_phase_triple(window):
    """S of the three frames of ``window`` with global 2*pi winding anchored at max-R of the middle one.

    The spatial unwrap fixes phase structure within a frame only up to a
    global multiple of 2*pi; anchoring at the max-R point keeps the frame-to-
    frame dynamical phase continuous so the centered time derivative of S is
    clean.  Requires the phase at the anchor to advance by less than pi per
    frame, which the frame spacing must provide.  The floor masks only
    points below the largest R, so R's first maximum is valid if any point is.
    """
    p_prev, p_mid, p_next = window
    anchor = int(np.argmax(p_mid.R))
    out = [p_prev.S, p_mid.S, p_next.S]
    for j, p in ((0, p_prev), (2, p_next)):
        if not (p.valid[anchor] and p_mid.valid[anchor]):
            continue
        k = round((p_mid.S[anchor] - p.S[anchor]) / (2.0 * math.pi))
        if k:
            out[j] = p.S + 2.0 * math.pi * k
    return out


def hj_residual(
    frames, potential: PotentialSpec, r_floor: float | None = None
) -> ResidualSeries:
    """Residual of the quantum Hamilton-Jacobi equation on solver frames.

    residual = dS/dt + (dS/dx)^2 / 2m + V + U, with centered differences in
    both t and x, evaluated at every interior frame on points whose stencils
    are valid; the summary is the L2 norm sqrt(sum residual^2 dx) per frame.
    ``r_floor`` is passed through to the polar decomposition: near the mask
    edge the quantum potential magnifies stencil error, so a caller checking
    tight tolerances can raise the floor.
    """
    mass = frames[0].mass
    vx = potential.evaluate(frames[0].x)
    return _residual_series(frames, mass, r_floor, vx)


def continuity_residual(frames, mass: float, r_floor: float | None = None) -> ResidualSeries:
    """Residual of the continuity equation d(R^2)/dt + d(R^2 dS/dx / m)/dx.

    Centered differences in t and x; the probability current needs the phase
    gradient, so points near the mask boundary drop out of the stencil.
    """
    return _residual_series(frames, mass, r_floor)
