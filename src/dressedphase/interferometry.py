"""Phase-locked pulse-pair interferometry on the two-level system.

Two replicas of one pulse share a single carrier; the second is delayed and
its constant phase offset by a relative phase delta.  The final excited
population versus delta is the fringe whose existence demonstrates that a
constant phase shift of the driving is physically observable.

The pair is propagated as one coherent drive, the sum of the two pulses'
drives of ``propagator._drive`` on either engine, so overlapping or even
fully merged pulses (delay = 0) are handled exactly by linearity of the field.

A relative phase delta on pulse 2 is exactly the conjugation
D(delta) U2 D(delta)^dagger of the pulse's propagator, D = diag(1, e^{-i delta}),
with or without damping, and pulse 2 is pulse 1 delayed.  So a rotating-wave
scan of separated pulses needs one segment propagator, over pulse 1, and no
propagation per delta: the phase enters the fringe only through D(delta).
Otherwise pulse 2 at relative phase delta is cos d (pulse 2) - sin d (its
quadrature, phi0 lowered by pi/2) with d = delta - rel_phase, on the real
field and the rotating-wave coupling alike, so the drive of every delta is a
weighted sum of the ``_drive`` couplings of pulse 1, pulse 2 and the
quadrature, and one batched run covers every delta.  Both use the Magnus
segments of ``propagator``; ``pulse_pair_population`` is the scan at the
pair's own delta.  A scan of any engine warns once, at its caller.
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .model import DrivingField, TwoLevelSystem, _complex_detuning
from .numerics import _read_only
from .propagator import (
    IntegratorConfig,
    _check_engine,
    _check_resolved,
    _drive,
    _magnus_propagator,
)


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
        # A tiny negative phase rounds up to exactly 2*pi, which is 0.
        rel_phase = self.rel_phase % (2.0 * math.pi)
        object.__setattr__(self, "rel_phase", 0.0 if rel_phase == 2.0 * math.pi else rel_phase)
        env = self.base.envelope
        if self.delay > 0.0 and math.isfinite(env.support_halfwidth()):
            midpoint_amplitude = env.value(env.center + 0.5 * self.delay)
            if midpoint_amplitude > 1e-3 * env.peak:
                warnings.warn(
                    "PulsePairConfig: pulses overlap (envelope above 1e-3 peak at the "
                    "midpoint); the summed drive is still propagated exactly",
                    stacklevel=3,
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
        phase = self.base.phase.shifted(self.delay, extra_phi0=self.rel_phase)
        return DrivingField(self.base.carrier, env, phase)

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

    def __post_init__(self):
        for name in ("deltas", "populations"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))


def _warn_if_strong(pair: PulsePairConfig) -> None:
    """Warn the caller of ``phase_scan`` or ``pulse_pair_population`` when
    one pulse leaves the weak-field regime."""
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
) -> float:
    """Final excited population after both pulses of the pair.

    ``phase_scan`` at the pair's own relative phase, bit for bit, on the
    rotating-wave engine by default (``engine='full'``: the real summed
    field).  Warns when the single-pulse excitation estimate sin^2(area/2)
    leaves the weak-field regime (> 0.1).
    """
    _check_engine(engine)
    _warn_if_strong(pair)
    return float(_populations(system, pair, np.array([pair.rel_phase]), cfg, engine)[0])


def phase_scan(
    system: TwoLevelSystem,
    pair: PulsePairConfig,
    delta_grid,
    cfg: IntegratorConfig = IntegratorConfig(),
    engine: str = "rwa",
) -> FringeRecord:
    """Fringe record P_e(delta) over a grid of relative phases.

    Every scan runs fourth-order Magnus segments (see
    ``propagator._magnus_propagator``).  Separated pulses (delay at least
    twice the envelope's support half-width) on the rotating-wave engine are
    composed from one segment over pulse 1's support, and every delta
    follows from the D(delta) conjugation (see ``_composed_populations``).
    Overlapping or merged pulses, and every full-field pair, take one
    segment over the whole window for all deltas at once, on the drives of
    pulse 1, pulse 2 and its quadrature (see ``_summed_populations``).  The
    segments start from the step cap (``max_step``, at most half the
    envelope width) and double their interval count until the propagator
    changes by at most ``abs_tol + rel_tol * max|U|`` between counts, or by
    no more than the rounding of the product can reach.  A full-field scan
    whose carrier the step cap cannot resolve over the window raises
    StepSizeUnderflowError before any step.  Constant envelopes have no
    pulse window and are rejected.  An unknown engine is rejected before
    anything else; every engine warns at most once per scan.  ``delta_grid``
    must be a non-empty 1-D array of finite values on every path.
    """
    _check_engine(engine)
    deltas = np.asarray(delta_grid, dtype=float)
    if deltas.ndim != 1 or deltas.size == 0:
        raise ValidationError("phase_scan: delta_grid must be a non-empty 1-D array")
    if not np.all(np.isfinite(deltas)):
        raise ValidationError("phase_scan: delta_grid must be finite")
    _warn_if_strong(pair)
    populations = _populations(system, pair, deltas, cfg, engine)
    return FringeRecord(
        deltas=deltas,
        populations=populations,
        visibility=_visibility_value(populations),
        delta_star=float(deltas[int(np.argmax(populations))]),
    )


def _populations(system, pair, deltas, cfg, engine) -> np.ndarray:
    """P_e(delta) of the pair at every delta, on the path ``phase_scan`` describes."""
    capped = _step_capped(cfg, pair)
    if engine == "rwa" and pair.delay >= 2.0 * pair.base.envelope.support_halfwidth():
        return _composed_populations(system, pair, deltas, capped)
    return _summed_populations(system, pair, deltas, capped, engine)


def _composed_populations(
    system: TwoLevelSystem, pair: PulsePairConfig, deltas: np.ndarray, cfg: IntegratorConfig
) -> np.ndarray:
    """P_e(delta) of a separated pair from one segment propagator.

    The rotating-frame equations have a constant generator outside the
    coupling, so they are invariant under time shifts, and pulse 2 at
    relative phase 0 is pulse 1 delayed (envelope and chirp alike).  So one
    propagator U over pulse 1's support [c - h, c + h] serves both pulses;
    between the supports (and outside them the pulses are negligible) the
    evolution is diag(1, e^{-i dw~ s}).  From |g> pulse 1 and the gap lead to
    v = (U_gg, e^{-i dw~ (delay - 2h)} U_eg).  At relative phase delta pulse
    2's propagator is D U D^dagger with D = diag(1, e^{-i delta}), so
    c_e(end) = e^{-i delta} (a + e^{i delta} b) up to a phase of modulus 1,
    with a = U_eg v_g and b = U_ee v_e.
    """
    env = pair.base.envelope
    half = env.support_halfwidth()
    coupling, carrier = _drive(system, pair.base, "rwa")
    detuning = _complex_detuning(system, carrier)
    u = _magnus_propagator(
        lambda t: (coupling(t),), np.ones((1, 1)), detuning, env.center - half, env.center + half, cfg
    )
    u_gg, _, u_eg, u_ee = u[:, 0].tolist()
    a = u_eg * u_gg
    b = u_ee * cmath.exp(-1j * detuning * (pair.delay - 2.0 * half)) * u_eg
    # |a + e^{i delta} b|^2 in real arithmetic.
    cos, sin = np.cos(deltas), np.sin(deltas)
    return (a.real + b.real * cos - b.imag * sin) ** 2 + (a.imag + b.real * sin + b.imag * cos) ** 2


def _summed_populations(system, pair, deltas, cfg, engine) -> np.ndarray:
    """P_e(delta) of the summed drive of the pair, every delta in one Magnus run.

    With d = delta - rel_phase, pulse 2 at delta is cos d (pulse 2) - sin d
    (its quadrature, phi0 lowered by pi/2), on the real field E0 cos(Phi + d)
    and on the coupling K2 e^{-i d} alike; so the drive of each delta weights
    the ``_drive`` couplings of pulse 1, pulse 2 and the quadrature by
    (1, cos d, -sin d).  The window is one interval, so a full-field carrier
    must be resolved over all of it.
    """
    start, end = pair.window()
    second = pair.second
    quadrature = replace(second, phase=second.phase.shifted(0.0, extra_phi0=-0.5 * math.pi))
    (k1, frame), (k2, _), (q2, _) = (_drive(system, f, engine) for f in (pair.base, second, quadrature))
    if engine == "full":
        _check_resolved(pair.base.carrier, end - start)
    d = deltas - pair.rel_phase
    weights = np.stack((np.ones(deltas.size), np.cos(d), -np.sin(d)))
    detuning = _complex_detuning(system, frame)
    u_eg = _magnus_propagator(lambda t: (k1(t), k2(t), q2(t)), weights, detuning, start, end, cfg)[2]
    return u_eg.real**2 + u_eg.imag**2


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
    residual = float(np.sqrt(np.mean((design @ coef - record.populations) ** 2)))
    return float(a), float(b), float(delta0), residual
