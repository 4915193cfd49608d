"""Hydrodynamic (polar) decomposition of 1-D wavefunctions and its residuals.

A wavefunction on a periodic grid is split as psi = R exp(i S) (hbar = 1);
the quantum Hamilton-Jacobi equation and the continuity equation are then
checked as finite-difference residuals on numerically propagated frames.
Each residual decomposes every frame once; both are written once, per
frame, in ``_frame_residual``, which a caller that needs both (and the
polar fields) runs on its own window of decomposed frames, with one phase
gradient shared by the two.
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
    raw = np.angle(psi.values)
    for start, stop in _valid_runs(valid):
        s[start:stop] = np.unwrap(raw[start:stop])
    return PolarFields(R=r, S=s, valid=valid, dx=psi.dx, x_min=psi.x_min, r_floor=r_floor)


def _valid_runs(valid: np.ndarray):
    """(start, stop) index pairs of contiguous True runs."""
    idx = np.flatnonzero(np.diff(valid.astype(np.int8)))
    edges = np.concatenate([[0], idx + 1, [valid.size]])
    return [
        (int(a), int(b))
        for a, b in zip(edges[:-1], edges[1:])
        if valid[a]
    ]


def _central_difference(f: np.ndarray, dx: float) -> np.ndarray:
    """(f[i+1] - f[i-1]) / 2dx at interior points; NaN at both ends."""
    out = np.full(f.shape, np.nan)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx)
    return out


def _stencil_valid(valid: np.ndarray) -> np.ndarray:
    """Interior points whose whole three-point stencil is valid."""
    out = np.zeros(valid.shape, dtype=bool)
    out[1:-1] = valid[1:-1] & valid[:-2] & valid[2:]
    return out


def quantum_potential(fields: PolarFields, mass: float) -> np.ndarray:
    """U = -(1/2m) (d^2 R / dx^2) / R by second central differences.

    Defined on interior points whose full stencil is valid; NaN elsewhere.
    The divergence at nodes is genuine, which is why masked points are
    omitted rather than regularized.
    """
    if not fields.valid.any():
        raise ValidationError("quantum_potential: validity mask is empty")
    r = fields.R
    d2 = np.full(r.shape, np.nan)
    d2[1:-1] = r[2:] - 2.0 * r[1:-1] + r[:-2]
    with np.errstate(invalid="ignore", divide="ignore"):
        u = -d2 / (2.0 * mass * fields.dx**2 * r)
    return np.where(_stencil_valid(fields.valid), u, np.nan)


def momentum_field(fields: PolarFields) -> np.ndarray:
    """Particle momentum p = dS/dx (hbar = 1) by central differences; v = p/m.

    NaN outside valid interiors.
    """
    if not fields.valid.any():
        raise ValidationError("momentum_field: validity mask is empty")
    return _momentum(fields, _central_difference(fields.S, fields.dx))


def _momentum(fields: PolarFields, grad: np.ndarray) -> np.ndarray:
    """``momentum_field`` from ``grad``, the central difference of the frame's S."""
    return np.where(_stencil_valid(fields.valid), grad, np.nan)


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
    times = np.array([f.t for f in frames])
    dts = np.diff(times)
    dt = float(dts[0])
    if dt <= 0.0 or np.max(np.abs(dts - dt)) > 1e-9 * dt:
        raise GridError("frames must be uniformly spaced in time")
    return dt


def _frame_residual(window, dt: float, mass: float, vx=None, grad=None, u=None) -> np.ndarray:
    """Residual at the middle of ``window``, three consecutive decomposed frames ``dt`` apart.

    The quantum Hamilton-Jacobi residual when ``vx`` (the potential on the
    grid) is given, else the continuity residual.  Not finite where a
    stencil leaves the validity mask.  Both may share ``grad``, the central
    difference of the middle frame's S, which anchoring never shifts; the
    Hamilton-Jacobi residual may take ``u``, the middle frame's quantum
    potential.
    """
    p_prev, p, p_next = window
    if grad is None:
        grad = _central_difference(p.S, p.dx)
    if vx is None:
        drho_dt = (p_next.R**2 - p_prev.R**2) / (2.0 * dt)
        current = p.R**2 * grad / mass
        return drho_dt + _central_difference(current, p.dx)
    s_prev, _, s_next = _anchored_phase_triple(window)
    ds_dt = (s_next - s_prev) / (2.0 * dt)
    u = quantum_potential(p, mass) if u is None else u
    return ds_dt + grad**2 / (2.0 * mass) + vx + u


def _residual_l2(res: np.ndarray, dx: float) -> float:
    """L2 norm sqrt(sum residual^2 dx) over the finite points of ``res``."""
    kept = res[np.isfinite(res)]
    return math.sqrt(float(np.sum(kept * kept) * dx))


def _residual_series(frames, mass: float, r_floor: float | None, vx=None) -> ResidualSeries:
    """``_frame_residual`` at every interior frame, masked with NaN where not finite, and its L2 norm."""
    dt = _frame_spacing(frames)
    polars = [polar_decompose(f, r_floor) for f in frames]
    rows = []
    l2 = []
    for i in range(1, len(polars) - 1):
        res = _frame_residual(polars[i - 1 : i + 2], dt, mass, vx)
        rows.append(np.where(np.isfinite(res), res, np.nan))
        l2.append(_residual_l2(res, polars[i].dx))
    return ResidualSeries(np.array([f.t for f in frames[1:-1]]), np.array(rows), np.array(l2))


def _anchored_phase_triple(window):
    """S of the three frames of ``window`` with global 2*pi winding anchored at max-R of the middle one.

    The spatial unwrap fixes phase structure within a frame only up to a
    global multiple of 2*pi; anchoring at the max-R point keeps the frame-to-
    frame dynamical phase continuous so the centered time derivative of S is
    clean.  Requires the phase at the anchor to advance by less than pi per
    frame, which the frame spacing must provide.
    """
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
