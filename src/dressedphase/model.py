"""Physical system and driving field with closed-form time derivatives.

The two-level system is driven by a field E(t) = E0(t) cos(w t + phi(t)).
Envelope E0 and slow phase phi come from small registries of analytic shapes
so that every time derivative up to order 6 used by the dressed-state and
adiabaticity formulas is exact, never finite-differenced.  Natural units
hbar = 1 throughout: the Rabi frequency is Omega(t) = mu * E0(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import DerivativeOrderError, ValidationError

MAX_DERIVATIVE_ORDER = 6

ENVELOPE_SHAPES = ("constant", "gaussian", "sech", "flat_top_cos2")
PHASE_SHAPES = ("constant", "linear_chirp", "quadratic_chirp", "sinusoidal")


def _build_sech_terms(max_order: int):
    """Derivatives of sech(u) as {(a, b): coeff} maps for sech^a * tanh^b terms.

    Uses d(sech)/du = -sech*tanh and d(tanh)/du = sech^2, so the derivative
    algebra closes on monomials sech^a tanh^b.
    """
    terms = [{(1, 0): 1.0}]
    for _ in range(max_order):
        nxt: dict[tuple[int, int], float] = {}
        for (a, b), coeff in terms[-1].items():
            if a:
                key = (a, b + 1)
                nxt[key] = nxt.get(key, 0.0) - a * coeff
            if b:
                key = (a + 2, b - 1)
                nxt[key] = nxt.get(key, 0.0) + b * coeff
        terms.append(nxt)
    return terms


_SECH_TERMS = _build_sech_terms(MAX_DERIVATIVE_ORDER)


def _hermite_value(n: int, u: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial H_n(u) by recurrence."""
    h_prev = np.ones_like(u)
    if n == 0:
        return h_prev
    h = 2.0 * u
    for k in range(1, n):
        h, h_prev = 2.0 * u * h - 2.0 * k * h_prev, h
    return h


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _check_order(order: int) -> int:
    if not isinstance(order, (int, np.integer)) or order < 0:
        raise DerivativeOrderError("derivative order exceeded: order must be an integer >= 0")
    if order > MAX_DERIVATIVE_ORDER:
        raise DerivativeOrderError(
            f"derivative order exceeded: order {order} > registry limit {MAX_DERIVATIVE_ORDER}"
        )
    return int(order)


def _require_finite(value, names) -> None:
    """Raise ValidationError naming the first of ``names`` that is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(value, name)):
            raise ValidationError(f"{type(value).__name__}: {name} must be finite")


@dataclass(frozen=True)
class TwoLevelSystem:
    """Bare two-level system with dipole coupling and complex damping.

    Parameters
    ----------
    omega_g, omega_e : float
        Angular frequencies of the ground and excited level (rad/time),
        with omega_e > omega_g.
    mu : float
        Dipole coupling, energy per unit field in natural units (hbar = 1).
    gamma_re : float
        Decay rate gamma' >= 0 of the excited amplitude (1/time).
    gamma_im : float
        Phase-damping part gamma''; the complex damping is gamma' - i*gamma''.
    """

    omega_g: float
    omega_e: float
    mu: float = 1.0
    gamma_re: float = 0.0
    gamma_im: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("omega_g", "omega_e", "mu", "gamma_re", "gamma_im"))
        if not self.omega_e > self.omega_g:
            raise ValidationError("TwoLevelSystem: omega_e must exceed omega_g")
        if self.gamma_re < 0.0:
            raise ValidationError("TwoLevelSystem: gamma_re must be >= 0")
        if self.mu < 0.0:
            raise ValidationError("TwoLevelSystem: mu must be >= 0")

    @property
    def gamma(self) -> complex:
        """Complex damping gamma' - i*gamma''."""
        return complex(self.gamma_re, -self.gamma_im)


class _TimeFunction:
    """Scalar-or-array evaluation of a shape's ``_derivative_array``."""

    def value(self, t):
        return self.derivative(t, 0)

    def derivative(self, t, order: int):
        """Exact n-th time derivative at ``t`` (scalar or array)."""
        order = _check_order(order)
        u, scalar = _as_float_array(t)
        out = self._derivative_array(u, order)
        return float(out) if scalar else out


@dataclass(frozen=True)
class EnvelopeSpec(_TimeFunction):
    """Field envelope E0(t) with exact derivatives up to order 6.

    ``shape`` selects one of the registered analytic forms:

    * ``constant``: E0(t) = peak
    * ``gaussian``: E0(t) = peak * exp(-((t - center)/width)^2)
    * ``sech``:     E0(t) = peak * sech((t - center)/width)
    * ``flat_top_cos2``: cos^2 (raised-cosine) ramps of length ``width`` on
      both sides of a plateau of length ``plateau`` at ``peak``; C1-continuous
      at the joins and identically zero outside the support.
    """

    shape: str
    peak: float
    center: float = 0.0
    width: float = 1.0
    plateau: float = 0.0

    def __post_init__(self):
        if self.shape not in ENVELOPE_SHAPES:
            raise ValidationError(f"EnvelopeSpec: unknown shape {self.shape!r}")
        _require_finite(self, ("peak", "center", "width", "plateau"))
        if self.peak < 0.0:
            raise ValidationError("EnvelopeSpec: peak must be >= 0")
        if self.width <= 0.0:
            raise ValidationError("EnvelopeSpec: width must be > 0")
        if self.shape == "flat_top_cos2" and self.plateau < 0.0:
            raise ValidationError("EnvelopeSpec: plateau must be >= 0")

    @classmethod
    def constant(cls, peak: float) -> "EnvelopeSpec":
        return cls("constant", peak)

    @classmethod
    def gaussian(cls, peak: float, center: float, width: float) -> "EnvelopeSpec":
        return cls("gaussian", peak, center, width)

    @classmethod
    def sech(cls, peak: float, center: float, width: float) -> "EnvelopeSpec":
        return cls("sech", peak, center, width)

    @classmethod
    def flat_top_cos2(cls, peak: float, center: float, width: float, plateau: float) -> "EnvelopeSpec":
        return cls("flat_top_cos2", peak, center, width, plateau)

    def _derivative_array(self, t: np.ndarray, order: int) -> np.ndarray:
        if self.shape == "constant":
            if order == 0:
                return np.full_like(t, self.peak)
            return np.zeros_like(t)

        if self.shape == "gaussian":
            u = (t - self.center) / self.width
            value = self.peak * np.exp(-u * u)
            sign = -1.0 if order % 2 else 1.0
            return sign * _hermite_value(order, u) * value / self.width**order

        if self.shape == "sech":
            u = (t - self.center) / self.width
            with np.errstate(over="ignore"):  # 1/inf = 0 beyond |u| ~ 710
                s = 1.0 / np.cosh(u)
            th = np.tanh(u)
            acc = np.zeros_like(t)
            for (a, b), coeff in _SECH_TERMS[order].items():
                acc = acc + coeff * s**a * th**b
            return self.peak * acc / self.width**order

        # flat_top_cos2
        half = self.plateau / 2.0
        a0 = self.center - half - self.width  # ramp-up start
        a1 = self.center - half               # plateau start
        b1 = self.center + half               # plateau end
        b0 = b1 + self.width                  # ramp-down end
        k = math.pi / self.width
        up_arg = k * (t - a0)
        down_arg = k * (t - b1)
        if order == 0:
            up = 0.5 * self.peak * (1.0 - np.cos(up_arg))
            flat = np.full_like(t, self.peak)
            down = 0.5 * self.peak * (1.0 + np.cos(down_arg))
        else:
            shift = order * math.pi / 2.0
            coeff = 0.5 * self.peak * k**order
            up = -coeff * np.cos(up_arg + shift)
            flat = np.zeros_like(t)
            down = coeff * np.cos(down_arg + shift)
        return np.select(
            [t < a0, t < a1, t <= b1, t <= b0],
            [np.zeros_like(t), up, flat, down],
            default=0.0,
        )

    def area(self) -> float:
        """Integral of the envelope over all time (infinite for ``constant``)."""
        if self.shape == "constant":
            return math.inf
        if self.shape == "gaussian":
            return self.peak * self.width * math.sqrt(math.pi)
        if self.shape == "sech":
            return self.peak * self.width * math.pi
        return self.peak * (self.plateau + self.width)

    def support_halfwidth(self) -> float:
        """Half-width of the window outside which the envelope is negligible (< ~1e-11 peak)."""
        if self.shape == "constant":
            return math.inf
        if self.shape == "gaussian":
            return 5.5 * self.width
        if self.shape == "sech":
            return 26.0 * self.width
        return self.plateau / 2.0 + self.width


@dataclass(frozen=True)
class PhaseSpec(_TimeFunction):
    """Slow optical phase phi(t) with exact derivatives up to order 6.

    Shapes: ``constant`` (phi0), ``linear_chirp`` (phi0 + rate*(t - t_ref)),
    ``quadratic_chirp`` (adds curvature*(t - t_ref)^2) and ``sinusoidal``
    (phi0 + depth*sin(mod_freq*(t - t_ref))).
    """

    shape: str = "constant"
    phi0: float = 0.0
    rate: float = 0.0
    curvature: float = 0.0
    depth: float = 0.0
    mod_freq: float = 0.0
    t_ref: float = 0.0

    def __post_init__(self):
        if self.shape not in PHASE_SHAPES:
            raise ValidationError(f"PhaseSpec: unknown shape {self.shape!r}")
        _require_finite(self, ("phi0", "rate", "curvature", "depth", "mod_freq", "t_ref"))

    @classmethod
    def constant(cls, phi0: float = 0.0) -> "PhaseSpec":
        return cls("constant", phi0=phi0)

    @classmethod
    def linear_chirp(cls, rate: float, phi0: float = 0.0, t_ref: float = 0.0) -> "PhaseSpec":
        return cls("linear_chirp", phi0=phi0, rate=rate, t_ref=t_ref)

    @classmethod
    def quadratic_chirp(
        cls, rate: float, curvature: float, phi0: float = 0.0, t_ref: float = 0.0
    ) -> "PhaseSpec":
        return cls("quadratic_chirp", phi0=phi0, rate=rate, curvature=curvature, t_ref=t_ref)

    @classmethod
    def sinusoidal(
        cls, depth: float, mod_freq: float, phi0: float = 0.0, t_ref: float = 0.0
    ) -> "PhaseSpec":
        return cls("sinusoidal", phi0=phi0, depth=depth, mod_freq=mod_freq, t_ref=t_ref)

    def _derivative_array(self, t: np.ndarray, order: int) -> np.ndarray:
        dt = t - self.t_ref
        if self.shape == "constant":
            if order == 0:
                return np.full_like(t, self.phi0)
            return np.zeros_like(t)
        if self.shape == "linear_chirp":
            if order == 0:
                return self.phi0 + self.rate * dt
            if order == 1:
                return np.full_like(t, self.rate)
            return np.zeros_like(t)
        if self.shape == "quadratic_chirp":
            if order == 0:
                return self.phi0 + self.rate * dt + self.curvature * dt * dt
            if order == 1:
                return self.rate + 2.0 * self.curvature * dt
            if order == 2:
                return np.full_like(t, 2.0 * self.curvature)
            return np.zeros_like(t)
        # sinusoidal
        arg = self.mod_freq * dt + order * math.pi / 2.0
        out = self.depth * self.mod_freq**order * np.sin(arg)
        if order == 0:
            out = out + self.phi0
        return out

    def shifted(self, delay: float, extra_phi0: float = 0.0) -> "PhaseSpec":
        """Replica delayed by ``delay`` with ``extra_phi0`` added to the constant."""
        return PhaseSpec(
            self.shape,
            phi0=self.phi0 + extra_phi0,
            rate=self.rate,
            curvature=self.curvature,
            depth=self.depth,
            mod_freq=self.mod_freq,
            t_ref=self.t_ref + delay,
        )


@dataclass(frozen=True)
class DrivingField:
    """Carrier frequency plus envelope and slow-phase registries."""

    carrier: float
    envelope: EnvelopeSpec
    phase: PhaseSpec = dc_field(default_factory=PhaseSpec.constant)

    def __post_init__(self):
        _require_finite(self, ("carrier",))
        if self.carrier < 0.0:
            raise ValidationError("DrivingField: carrier must be >= 0")


@dataclass(frozen=True)
class InitialPhases:
    """Constant material phases carried by the state at t = 0."""

    phi_g: float = 0.0
    phi_e: float = 0.0

    def __post_init__(self):
        _require_finite(self, ("phi_g", "phi_e"))


def scalar_envelope_fn(env: EnvelopeSpec):
    """Fast scalar-argument evaluator for the envelope (used in ODE right-hand sides)."""
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


def scalar_phase_fn(ph: PhaseSpec):
    """Fast scalar-argument evaluator for the slow phase phi(t)."""
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


def rabi_frequency(system: TwoLevelSystem, field: DrivingField, t, order: int = 0):
    """n-th time derivative of the Rabi frequency Omega(t) = mu * E0(t)."""
    return system.mu * field.envelope.derivative(t, order)


def optical_phase(field: DrivingField, t, order: int = 0):
    """Full optical phase Phi(t) = carrier*t + phi(t), or its n-th derivative."""
    order = _check_order(order)
    if order == 0:
        u, scalar = _as_float_array(t)
        out = field.carrier * u + field.phase._derivative_array(u, 0)
        return float(out) if scalar else out
    out = field.phase.derivative(t, order)
    if order == 1:
        return out + field.carrier
    return out


def complex_detuning(system: TwoLevelSystem, field: DrivingField) -> complex:
    """Complex detuning (omega_e - omega_g - carrier) - i*gamma/2.

    With gamma = gamma' - i*gamma'' this equals
    (delta_omega - gamma''/2) - i*gamma'/2; it is constant per configuration.
    """
    return _complex_detuning(system, field.carrier)


def _complex_detuning(system: TwoLevelSystem, carrier: float) -> complex:
    """:func:`complex_detuning` for a bare carrier, shared by multi-pulse drives."""
    delta = system.omega_e - system.omega_g - carrier
    return complex(delta - 0.5 * system.gamma_im, -0.5 * system.gamma_re)


def instantaneous_field(field: DrivingField, t):
    """Real driving field E(t) = E0(t) * cos(Phi(t))."""
    u, scalar = _as_float_array(t)
    out = field.envelope._derivative_array(u, 0) * np.cos(optical_phase(field, u))
    return float(out) if scalar else out
