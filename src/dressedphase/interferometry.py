"""Phase-locked pulse-pair interferometry on the two-level system.

Two replicas of one pulse share a single carrier; the second is delayed and
its constant phase offset by a relative phase delta.  The final excited
population versus delta is the fringe whose existence demonstrates that a
constant phase shift of the driving is physically observable.

The pair is propagated as one coherent drive, K(t) = K1(t) + K2(t) with
K_j(t) = (Omega_j(t)/2) exp(-i phi_j(t)), so overlapping or even fully merged
pulses (delay = 0) are handled exactly by linearity of the field.

A relative phase delta on pulse 2 is exactly the conjugation
D(delta) U2 D(delta)^dagger of the pulse's propagator, D = diag(1, e^{-i delta}),
with or without damping.  So a rotating-wave scan of separated pulses needs
two segment propagators, one per pulse, and no propagation per delta: the
phase enters the fringe only through D(delta).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import ValidationError
from .model import (
    DrivingField,
    TwoLevelSystem,
    scalar_envelope_fn,
    scalar_phase_fn,
)
from .propagator import (
    IntegratorConfig,
    TwoLevelState,
    _field_coupling_fn,
    _integrate_pair,
    _propagate_full,
    rwa_propagate_coupling,
)

_GROUND = TwoLevelState(1.0 + 0.0j, 0.0j)
_EXCITED = TwoLevelState(0.0j, 1.0 + 0.0j)


@dataclass(frozen=True)
class PulsePairConfig:
    """A base pulse plus a delayed, phase-offset replica.

    ``delay`` is the center-to-center separation; ``rel_phase`` is added to
    the second pulse's constant phase and is normalized into [0, 2*pi) so a
    configuration is identical under full turns.  ``delay = 0`` is the
    degenerate merged-pulse case; a delay smaller than the pulse duration
    only triggers a warning since the summed drive stays exact.
    """

    base: DrivingField
    delay: float
    rel_phase: float

    def __post_init__(self):
        self.check_delay(self.delay)
        if not math.isfinite(self.rel_phase):
            raise ValidationError("PulsePairConfig: rel_phase must be finite")
        object.__setattr__(self, "rel_phase", self.rel_phase % (2.0 * math.pi))
        env = self.base.envelope
        if self.delay > 0.0 and math.isfinite(env.support_halfwidth()):
            midpoint_amplitude = env.value(env.center + 0.5 * self.delay)
            if midpoint_amplitude > 1e-3 * env.peak:
                warnings.warn(
                    "PulsePairConfig: pulses overlap (envelope above 1e-3 peak at the "
                    "midpoint); the summed drive is still propagated exactly",
                    stacklevel=2,
                )

    @staticmethod
    def check_delay(delay: float) -> None:
        """Raise ValidationError unless ``delay`` is a usable center-to-center separation."""
        if not (math.isfinite(delay) and delay >= 0.0):
            raise ValidationError("PulsePairConfig: delay must be finite and >= 0")

    @property
    def second(self) -> DrivingField:
        """The delayed replica: envelope shifted, chirp shifted, constant offset."""
        env = replace(self.base.envelope, center=self.base.envelope.center + self.delay)
        return DrivingField(
            self.base.carrier,
            env,
            self.base.phase.shifted(self.delay, extra_phi0=self.rel_phase),
        )

    def pulse_area(self) -> float:
        """Diagnostic area of one pulse, integral of Omega dt (mu = 1 units)."""
        return self.base.envelope.area()

    def window(self) -> tuple[float, float]:
        """Time window covering both pulses with negligible tails outside."""
        half = self.base.envelope.support_halfwidth()
        if not math.isfinite(half):
            raise ValidationError("PulsePairConfig: constant envelopes have no pulse window")
        start = self.base.envelope.center - half
        return start, start + self.delay + 2.0 * half


@dataclass(frozen=True)
class FringeRecord:
    """Population-versus-relative-phase scan with its fringe metrics."""

    deltas: np.ndarray
    populations: np.ndarray
    visibility: float
    delta_star: float


def _pair_coupling(system: TwoLevelSystem, pair: PulsePairConfig):
    base, second = pair.base, pair.second
    env1, env2 = scalar_envelope_fn(base.envelope), scalar_envelope_fn(second.envelope)
    ph1, ph2 = scalar_phase_fn(base.phase), scalar_phase_fn(second.phase)
    half_mu = 0.5 * system.mu

    def coupling(t: float) -> complex:
        return half_mu * (
            env1(t) * cmath.exp(-1j * ph1(t)) + env2(t) * cmath.exp(-1j * ph2(t))
        )

    return coupling


def _warn_if_strong(pair: PulsePairConfig) -> None:
    """Warn the caller's caller when one pulse leaves the weak-field regime."""
    area = pair.pulse_area()
    # sin^2(area/2) = 0.1 marks where a resonant single pulse leaves the
    # weak-excitation regime; beyond that the fringe is no longer first order.
    if math.isfinite(area) and area > 2.0 * math.asin(math.sqrt(0.1)):
        warnings.warn(
            "pulse_pair_population: single-pulse excitation estimate exceeds 0.1; "
            "first-order fringe analysis is unreliable",
            stacklevel=3,
        )


def _step_capped(cfg: IntegratorConfig, pair: PulsePairConfig) -> IntegratorConfig:
    """``cfg`` with the step capped at half the envelope width, so no step jumps a pulse."""
    return replace(cfg, max_step=min(cfg.max_step, 0.5 * pair.base.envelope.width))


def pulse_pair_population(
    system: TwoLevelSystem,
    pair: PulsePairConfig,
    cfg: IntegratorConfig = IntegratorConfig(),
    engine: str = "rwa",
    samples: int = 2,
) -> float:
    """Final excited population after both pulses of the pair.

    Uses the rotating-wave engine by default (``engine='full'`` propagates the
    real summed field instead).  Warns when the single-pulse excitation
    estimate sin^2(area/2) leaves the weak-field regime (> 0.1).
    """
    _warn_if_strong(pair)
    start, end = pair.window()
    t_grid = np.linspace(start, end, max(2, samples))
    cfg_eff = _step_capped(cfg, pair)
    if engine == "rwa":
        coupling = _pair_coupling(system, pair)
        traj = rwa_propagate_coupling(
            system, coupling, pair.base.carrier, _GROUND, t_grid, cfg_eff
        )
        return float(traj.population_e[-1])
    if engine == "full":
        traj = _propagate_full(
            system, (pair.base, pair.second), _GROUND, t_grid, partial(_integrate_pair, cfg=cfg_eff)
        )
        return float(abs(traj.c_e[-1]) ** 2)
    raise ValidationError("pulse_pair_population: engine must be 'rwa' or 'full'")


def phase_scan(
    system: TwoLevelSystem,
    pair: PulsePairConfig,
    delta_grid,
    cfg: IntegratorConfig = IntegratorConfig(),
    engine: str = "rwa",
) -> FringeRecord:
    """Fringe record P_e(delta) over a grid of relative phases.

    With the rotating-wave engine and separated pulses (delay at least twice
    the envelope's support half-width, so each pulse is below ~1e-11 of its
    peak across the other's half of the window) the scan is composed: pulse 1
    is propagated once, pulse 2 once from each basis state, and every delta
    follows from the D(delta) conjugation (see ``_composed_populations``).
    Otherwise (overlapping or merged pulses, constant envelopes, or the
    full-field engine, whose real field has no such symmetry) each delta is
    an independent propagation of the summed drive.  ``delta_grid`` must be
    a non-empty 1-D array of finite values on either path.
    """
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValidationError("phase_scan: delta_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(deltas)):
        raise ValidationError("phase_scan: delta_grid must be finite")
    if engine == "rwa" and pair.delay >= 2.0 * pair.base.envelope.support_halfwidth():
        _warn_if_strong(pair)
        populations = _composed_populations(system, pair, deltas, _step_capped(cfg, pair))
    else:
        populations = np.empty_like(deltas)
        for i, delta in enumerate(deltas):
            populations[i] = pulse_pair_population(
                system, replace(pair, rel_phase=float(delta)), cfg, engine=engine
            )
    vis = _visibility_value(populations)
    delta_star = float(deltas[int(np.argmax(populations))])
    record = FringeRecord(
        deltas=deltas, populations=populations, visibility=vis, delta_star=delta_star
    )
    record.deltas.flags.writeable = False
    record.populations.flags.writeable = False
    return record


def _composed_populations(
    system: TwoLevelSystem, pair: PulsePairConfig, deltas: np.ndarray, cfg: IntegratorConfig
) -> np.ndarray:
    """P_e(delta) of a separated pair from two segment propagators.

    The window is split at the midpoint between the pulses, where each pulse
    is negligible.  Pulse 1 takes |g> to v over the first half; pulse 2 at
    relative phase 0 has the propagator U over the second.  At relative phase
    delta pulse 2's propagator is D U D^dagger with D = diag(1, e^{-i delta}),
    and D commutes with the diagonal bare/rotating frame change, so in the
    bare frame c_e(end) = e^{-i delta} (a + e^{i delta} b) with a = U_eg v_g
    and b = U_ee v_e.
    """
    start, end = pair.window()
    mid = pair.base.envelope.center + 0.5 * pair.delay
    carrier = pair.base.carrier

    def final(field: DrivingField, initial: TwoLevelState, t0: float, t1: float) -> TwoLevelState:
        coupling = _field_coupling_fn(system, field)
        return rwa_propagate_coupling(system, coupling, carrier, initial, np.array([t0, t1]), cfg)[-1]

    second = replace(pair, rel_phase=0.0).second
    v = final(pair.base, _GROUND, start, mid)
    u_eg = final(second, _GROUND, mid, end).c_e
    u_ee = final(second, _EXCITED, mid, end).c_e
    a = complex(u_eg * v.c_g)
    b = complex(u_ee * v.c_e)
    # |a + e^{i delta} b|^2 in real arithmetic: only the cos/sin kernels that
    # fit_fringe also uses, where numpy's complex exp and abs kernels added
    # about 0.1 MB to a fresh process's peak RSS.
    cos, sin = np.cos(deltas), np.sin(deltas)
    return (a.real + b.real * cos - b.imag * sin) ** 2 + (a.imag + b.real * sin + b.imag * cos) ** 2


def _visibility_value(populations: np.ndarray) -> float:
    hi = float(np.max(populations))
    lo = float(np.min(populations))
    if hi == 0.0 and lo == 0.0:
        return 0.0
    return (hi - lo) / (hi + lo)


def visibility(record: FringeRecord) -> float:
    """(max - min)/(max + min) of the recorded populations; 0 for an all-zero record."""
    if record.populations.size == 0:
        raise ValidationError("visibility: record is empty")
    return _visibility_value(record.populations)


def fit_fringe(record: FringeRecord) -> tuple[float, float, float, float]:
    """Least-squares fit P(delta) = A + B cos(delta + delta0).

    Returns (A, B >= 0, delta0, rms residual); used to locate the fringe
    extrema more precisely than the scan grid.
    """
    d = record.deltas
    design = np.column_stack([np.ones_like(d), np.cos(d), np.sin(d)])
    coef, *_ = np.linalg.lstsq(design, record.populations, rcond=None)
    a, c, s = coef
    b = math.hypot(c, s)
    delta0 = math.atan2(-s, c)
    residual = float(
        np.sqrt(np.mean((design @ coef - record.populations) ** 2))
    )
    return float(a), float(b), float(delta0), residual
