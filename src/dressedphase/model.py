"""Physical system and driving field with closed-form time derivatives.

The two-level system is driven by a field E(t) = E0(t) cos(w t + phi(t)).
Envelope E0 and slow phase phi come from small registries of analytic shapes
so that every time derivative up to order 6 used by the dressed-state and
adiabaticity formulas is exact, never finite-differenced.  Natural units
hbar = 1 throughout: the Rabi frequency is Omega(t) = mu * E0(t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import DerivativeOrderError, ValidationError

MAX_DERIVATIVE_ORDER = 6

# The dressed branches and the highest adiabatic order, defined here so that
# the command line's config schema does not load ``dressed`` to read them.
BRANCHES = ("ground", "excited")

MAX_ADIABATIC_ORDER = 4

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


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _check_order(order: int) -> int:
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)) or order < 0:
        raise DerivativeOrderError("derivative order exceeded: order must be an integer >= 0")
    if order > MAX_DERIVATIVE_ORDER:
        raise DerivativeOrderError(
            f"derivative order exceeded: order {order} > registry limit {MAX_DERIVATIVE_ORDER}"
        )
    return int(order)


def _require_finite(value, names, isfinite=math.isfinite) -> None:
    """Raise ValidationError naming the first of ``names`` that is NaN or infinite."""
    for name in names:
        if not isfinite(getattr(value, name)):
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
    """Scalar-or-array evaluation of one entry of a shape's ``_derivatives(t, n)``,
    which returns orders 0..n from one evaluation; entry k does not depend on n."""

    def value(self, t):
        return self.derivative(t, 0)

    def derivative(self, t, order: int):
        """Exact n-th time derivative at ``t`` (scalar or array)."""
        order = _check_order(order)
        u, scalar = _as_float_array(t)
        out = self._derivatives(u, order)[order]
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

    def _derivatives(self, t: np.ndarray, n: int) -> list:
        if self.shape == "constant":
            return [np.full_like(t, self.peak)] + [np.zeros_like(t) for _ in range(n)]

        if self.shape == "flat_top_cos2":
            half = self.plateau / 2.0
            a0 = self.center - half - self.width  # ramp-up start
            a1 = self.center - half               # plateau start
            b1 = self.center + half               # plateau end
            b0 = b1 + self.width                  # ramp-down end
            k = math.pi / self.width
            up_arg = k * (t - a0)
            down_arg = k * (t - b1)
            pieces = [t < a0, t < a1, t <= b1, t <= b0]
            zero = np.zeros_like(t)
            up = 0.5 * self.peak * (1.0 - np.cos(up_arg))
            down = 0.5 * self.peak * (1.0 + np.cos(down_arg))
            stack = [np.select(pieces, [zero, up, np.full_like(t, self.peak), down], default=0.0)]
            for order in range(1, n + 1):
                shift = order * math.pi / 2.0
                coeff = 0.5 * self.peak * k**order
                up = -coeff * np.cos(up_arg + shift)
                down = coeff * np.cos(down_arg + shift)
                stack.append(np.select(pieces, [zero, up, zero, down], default=0.0))
            return stack

        u = (t - self.center) / self.width
        if self.shape == "gaussian":
            with np.errstate(over="ignore"):  # exp(-inf) = 0 far out in the tails
                value = self.peak * np.exp(-u * u)
            stack = [value]
            if n:
                # H_k(u) by the physicists' Hermite recurrence from H_0 = 1.
                two_u = 2.0 * u
                hermite = [1.0, two_u]
                for k in range(1, n):
                    hermite.append(two_u * hermite[k] - 2.0 * k * hermite[k - 1])
                stack += [(-1.0 if k % 2 else 1.0) * hermite[k] * value for k in range(1, n + 1)]
        else:  # sech
            with np.errstate(over="ignore"):  # 1/inf = 0 beyond |u| ~ 710
                s = 1.0 / np.cosh(u)
            th = np.tanh(u)
            stack = [
                self.peak * sum(coeff * s**a * th**b for (a, b), coeff in terms.items())
                for terms in _SECH_TERMS[: n + 1]
            ]
        if not n:
            return stack
        # Order k scales as width**-k.  A power past the float range is inf
        # and divides the derivative to 0, its limit.
        with np.errstate(over="ignore"):
            powers = [np.float64(self.width) ** k for k in range(1, n + 1)]
        return stack[:1] + [d / p for d, p in zip(stack[1:], powers)]

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

    def _derivatives(self, t: np.ndarray, n: int) -> list:
        dt = t - self.t_ref
        if self.shape == "sinusoidal":
            stack = [
                self.depth * self.mod_freq**order * np.sin(self.mod_freq * dt + order * math.pi / 2.0)
                for order in range(n + 1)
            ]
            stack[0] = stack[0] + self.phi0
            return stack
        # The chirps are phi0 + rate dt + curvature dt dt cut to the shape's
        # degree (0 for constant); each order differentiates the coefficients.
        coeffs = (self.phi0, self.rate, self.curvature)[: PHASE_SHAPES.index(self.shape) + 1]
        stack = []
        for _ in range(n + 1):
            if len(coeffs) < 2:
                stack.append(np.full_like(t, coeffs[0] if coeffs else 0.0))
            elif len(coeffs) == 2:
                stack.append(coeffs[0] + coeffs[1] * dt)
            else:
                stack.append(coeffs[0] + coeffs[1] * dt + coeffs[2] * dt * dt)
            coeffs = [j * c for j, c in enumerate(coeffs)][1:]
        return stack

    def shifted(self, delay: float, extra_phi0: float = 0.0) -> "PhaseSpec":
        """Replica delayed by ``delay`` with ``extra_phi0`` added to the constant."""
        return replace(self, phi0=self.phi0 + extra_phi0, t_ref=self.t_ref + delay)


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


def rabi_frequency(system: TwoLevelSystem, field: DrivingField, t, order: int = 0):
    """n-th time derivative of the Rabi frequency Omega(t) = mu * E0(t)."""
    return system.mu * field.envelope.derivative(t, order)


def optical_phase(field: DrivingField, t, order: int = 0):
    """Full optical phase Phi(t) = carrier*t + phi(t), or its n-th derivative."""
    order = _check_order(order)
    if order == 0:
        u, scalar = _as_float_array(t)
        out = field.carrier * u + field.phase._derivatives(u, 0)[0]
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
    out = field.envelope._derivatives(u, 0)[0] * np.cos(optical_phase(field, u))
    return float(out) if scalar else out
