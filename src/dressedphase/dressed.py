"""Closed-form dressed-state structure of the driven, damped two-level system.

Evaluates the auxiliary complex frequencies (generalized Rabi frequency,
level shifts, effective excited-state frequency), the four cumulative material
phases for ground- and excited-state initial conditions, the assembled
bare-basis state, and the generalized adiabatic condition, order by order.

All dressed quantities are defined only where the pulse is on: operations
raise ``FieldBelowFloorError`` when the Rabi frequency drops below
``OMEGA_FLOOR_FRACTION`` times its peak, instead of returning garbage.

The grid-wide operations (``dressed_phases``, ``assemble_bare_state`` and
``adiabatic_report``) run over blocks of samples (``numerics._BLOCK``), so their
temporaries stay small; their results and errors are bit for bit those of
one whole-grid evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import (
    DegenerateRabiError,
    FieldBelowFloorError,
    GridError,
    ValidationError,
)
from .model import (
    DrivingField,
    InitialPhases,
    TwoLevelSystem,
    complex_detuning,
    rabi_frequency,
)
from .numerics import (
    _blocks,
    _read_only,
    _simpson_blocks,
    _simpson_increments,
    check_monotone_grid,
)
from .propagator import TwoLevelTrajectory

#: Rabi-frequency floor as a fraction of the peak Rabi frequency.
OMEGA_FLOOR_FRACTION = 1e-9

#: |generalized Rabi| below which the 1/gen_rabi derivative correction is degenerate.
DEGENERATE_RABI_FLOOR = 1e-12

BRANCHES = ("ground", "excited")

MAX_ADIABATIC_ORDER = 4


@dataclass(frozen=True)
class EffectiveFrequencies:
    """Auxiliary complex frequencies at one instant.

    ``omega_E_eff`` is ``None`` when the field is below the floor there (its
    log-derivative term is undefined); use
    :func:`effective_excited_frequency` to get an error instead.
    """

    gen_rabi: complex
    lambda_plus: complex
    lambda_minus: complex
    lambda_tilde_plus: complex
    lambda_tilde_minus: complex
    omega_G: complex
    omega_E: complex
    omega_E_eff: Optional[complex]


@dataclass(frozen=True)
class DressedPhaseSet:
    """The four complex material phases at one instant.

    Imaginary parts encode amplitude decay or growth accumulated through the
    complex effective frequencies.
    """

    phi_G_r: complex
    phi_G_v: complex
    phi_E_r: complex
    phi_E_v: complex


class DressedPhaseSeries:
    """Sequence of :class:`DressedPhaseSet` over a time grid, stored as arrays."""

    def __init__(self, times, phi_G_r, phi_G_v, phi_E_r, phi_E_v, branch: str):
        self.times = _read_only(times, float)
        self.phi_G_r = _read_only(phi_G_r, complex)
        self.phi_G_v = _read_only(phi_G_v, complex)
        self.phi_E_r = _read_only(phi_E_r, complex)
        self.phi_E_v = _read_only(phi_E_v, complex)
        self.branch = branch

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, i: int) -> DressedPhaseSet:
        return DressedPhaseSet(
            complex(self.phi_G_r[i]),
            complex(self.phi_G_v[i]),
            complex(self.phi_E_r[i]),
            complex(self.phi_E_v[i]),
        )

    def __iter__(self) -> Iterator[DressedPhaseSet]:
        for i in range(len(self)):
            yield self[i]


@dataclass(frozen=True)
class OrderEntry:
    """Per-k ratio maxima for a single derivative order n."""

    ratios: dict
    margin: float


@dataclass(frozen=True)
class AdiabaticityReport:
    """Grid maxima of the generalized adiabatic ratios for n = 0..n_max."""

    orders: dict
    margin: float

    def ratio(self, n: int, k: int) -> float:
        return self.orders[n].ratios[k]


def _check_branch(branch: str) -> str:
    if branch not in BRANCHES:
        raise ValidationError(f"branch must be one of {BRANCHES}, got {branch!r}")
    return branch


def omega_floor(system: TwoLevelSystem, field: DrivingField) -> float:
    """Floor below which dressed quantities are undefined: 1e-9 of the peak Rabi frequency."""
    return OMEGA_FLOOR_FRACTION * system.mu * field.envelope.peak


def _on_support(system: TwoLevelSystem, field: DrivingField, omega) -> bool:
    """True when every Rabi frequency in ``omega`` is above the floor; NaN fails."""
    low = np.min(omega)
    return bool(low > 0.0 and low >= omega_floor(system, field))


def _require_on_support(system: TwoLevelSystem, field: DrivingField, t, where: str):
    """Rabi frequency at ``t``, raising FieldBelowFloorError unless it is on support."""
    omega = rabi_frequency(system, field, t, 0)
    if not _on_support(system, field, omega):
        raise FieldBelowFloorError(
            f"field below floor in {where}: min Rabi frequency {float(np.min(omega)):g}"
            f" < floor {omega_floor(system, field):g}"
        )
    return omega


def _as_times(t) -> np.ndarray:
    """``t`` as a float array; a scalar becomes a one-point grid."""
    return np.atleast_1d(np.asarray(t, dtype=float))


def _continued_rabi(dw: complex, omega: np.ndarray) -> np.ndarray:
    """sqrt(dw~^2 + Omega^2), pointwise on the weak-field branch.

    Each point takes the root +-w nearer to dw~ (w principal), as
    Re(w conj(dw~)) < 0 is exactly |w + dw~| < |w - dw~|, and +w on a tie:
    above the exceptional point Omega = |Im dw~| of a resonant, damped drive,
    and to rounding there when the real part of dw~ is a few ulps.
    """
    # Past |dw~| ~ 1.3e154 dw~^2 overflows and the root is not finite; the
    # callers that need it finite check, so numpy need not warn.
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.sqrt((dw * dw + omega**2).astype(complex, copy=False))
        # Multiplying by the sign, rather than choosing -w or w, turns a -0
        # imaginary part into +0.
        return np.where(w.real * dw.real + w.imag * dw.imag < 0.0, -1.0, 1.0) * w


def generalized_rabi(system: TwoLevelSystem, field: DrivingField, t):
    """Instantaneous off-resonance (generalized) Rabi frequency, on the weak-field branch.

    Evaluates sqrt(dw~^2 + Omega(t)^2); the detuning entering the radicand is
    the constant complex detuning, so its time derivative contributes nothing.
    Each point takes the root nearer to dw~ (the one -> dw~ as Omega -> 0), so
    a scalar ``t`` gives the array's value.  Above the exceptional point of a
    resonant, damped drive (Omega > |Im dw~|) the roots are equally near, to
    rounding if dw~ has a real part of a few ulps; the principal root is taken.
    """
    omega = rabi_frequency(system, field, _as_times(t), 0)
    w = _continued_rabi(complex_detuning(system, field), omega)
    return complex(w[0]) if np.ndim(t) == 0 else w


class _Frequencies(NamedTuple):
    omega: np.ndarray
    d_omega: np.ndarray
    gen_rabi: np.ndarray
    lambda_minus: np.ndarray
    omega_G: np.ndarray
    omega_E: np.ndarray
    omega_E_eff: np.ndarray


def _frequencies(system: TwoLevelSystem, field: DrivingField, t, omega, where=None) -> _Frequencies:
    """Omega, dOmega/dt and the auxiliary complex frequencies as arrays over ``t``.

    ``omega`` is the Rabi frequency at ``t``.
    omega_E_eff = omega_E - dphi/dt - gamma''/2 - i(gamma'/2 - Omega^-1 dOmega/dt).
    With ``where`` set the generalized Rabi frequency must be finite (dw~^2
    overflows from |dw~| ~ 1.3e154) on all of ``t``; omega_E_eff is not
    finite where Omega vanishes.
    """
    d_omega = rabi_frequency(system, field, t, 1)
    dw = complex_detuning(system, field)
    gr = _continued_rabi(dw, omega)
    if where is not None and not np.all(np.isfinite(gr)):
        raise ValidationError(f"{where}: the generalized Rabi frequency is not finite (|dw~| = {abs(dw):g})")
    lam_m = 0.5 * (dw - gr)
    omega_E = system.omega_e - lam_m
    with np.errstate(divide="ignore", invalid="ignore"):
        omega_E_eff = (
            omega_E
            - field.phase.derivative(t, 1)
            - 0.5 * system.gamma_im
            - 1j * (0.5 * system.gamma_re - d_omega / omega)
        )
    return _Frequencies(
        omega, d_omega, gr, lam_m, system.omega_g + lam_m, omega_E, omega_E_eff
    )


def _lambda_tilde_correction(f: _Frequencies) -> np.ndarray:
    """-(i/2) * d/dt ln(gen_rabi) = -(i/2) Omega dOmega / gen_rabi^2."""
    numer = f.omega * f.d_omega
    gr = f.gen_rabi
    degenerate = np.abs(gr) < DEGENERATE_RABI_FLOOR
    if np.any(degenerate & (numer != 0.0)):
        raise DegenerateRabiError(
            f"degenerate generalized Rabi frequency in level_shifts: |gen_rabi| < {DEGENERATE_RABI_FLOOR}"
        )
    out = np.zeros(gr.shape, dtype=complex)
    ok = ~degenerate
    out[ok] = -0.5j * numer[ok] / (gr[ok] * gr[ok])
    return out


def level_shifts(system: TwoLevelSystem, field: DrivingField, t: float) -> EffectiveFrequencies:
    """All auxiliary complex frequencies at time ``t``.

    Level shifts use the plain half-splitting lambda_minus = (dw~ - gen_rabi)/2:
    omega_G = omega_g + lambda_minus and omega_E = omega_e - lambda_minus.
    The derivative-corrected lambda~'_pm = lambda_pm - (i/2) d/dt ln(gen_rabi)
    are reported alongside; the oracle comparison selects the plain shifts for
    the state assembly (see the module tests).
    """
    if np.ndim(t) != 0:
        raise ValidationError("level_shifts: t must be a scalar time")
    u = _as_times(t)
    f = _frequencies(system, field, u, rabi_frequency(system, field, u, 0))
    lam_p = complex(0.5 * (complex_detuning(system, field) + f.gen_rabi[0]))
    lam_m = complex(f.lambda_minus[0])
    corr = complex(_lambda_tilde_correction(f)[0])
    return EffectiveFrequencies(
        gen_rabi=complex(f.gen_rabi[0]),
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        lambda_tilde_plus=lam_p + corr,
        lambda_tilde_minus=lam_m + corr,
        omega_G=complex(f.omega_G[0]),
        omega_E=complex(f.omega_E[0]),
        omega_E_eff=complex(f.omega_E_eff[0]) if _on_support(system, field, f.omega) else None,
    )


def effective_excited_frequency(system: TwoLevelSystem, field: DrivingField, t):
    """Effective complex frequency of the real excited-state component.

    omega_E_eff = omega_E - dphi/dt - gamma''/2 - i(gamma'/2 - Omega^-1 dOmega/dt);
    requires the field to be above the floor because of the log-derivative term.
    """
    where = "effective_excited_frequency"
    u = _as_times(t)
    omega = _require_on_support(system, field, u, where)
    out = _frequencies(system, field, u, omega, where).omega_E_eff
    return complex(out[0]) if np.ndim(t) == 0 else out


def dressed_amplitudes(system: TwoLevelSystem, field: DrivingField, t, branch: str = "ground"):
    """Instantaneous-diagonalization mixing amplitudes (real, virtual components).

    Complex half-angle with tan(theta~) = Omega/dw~: the ground branch is
    (cos(theta~/2), sin(theta~/2)), the excited branch (cos(theta~/2),
    -sin(theta~/2)); squared magnitudes sum to 1 for gamma = 0.
    """
    _check_branch(branch)
    omega = _require_on_support(system, field, _as_times(t), "dressed_amplitudes")
    dw = complex_detuning(system, field)
    real_amp, virt_amp = _mixing_amplitudes(dw, omega, _continued_rabi(dw, omega), branch)
    if np.ndim(t) == 0:
        return complex(real_amp[0]), complex(virt_amp[0])
    return real_amp, virt_amp


def _mixing_amplitudes(dw: complex, omega: np.ndarray, gen_rabi: np.ndarray, branch: str):
    """(real, virtual) amplitudes of ``branch`` from Omega and the generalized Rabi frequency.

    On the weak-field branch |cos(theta~/2)| >= sqrt(0.5), so the mixing
    angle is undefined only where the generalized Rabi frequency is exactly
    0: at the exceptional point Omega = |Im dw~| of a resonant, damped drive.
    """
    if not np.all(gen_rabi):
        raise DegenerateRabiError(
            "degenerate generalized Rabi frequency: 0 at the exceptional point Omega = |Im dw~|"
        )
    cos_theta = dw / gen_rabi
    sin_theta = omega / gen_rabi
    cos_half = np.sqrt(0.5 * (1.0 + cos_theta))
    sin_half = sin_theta / (2.0 * cos_half)
    if branch == "ground":
        return cos_half, sin_half
    return cos_half, -sin_half


def dressed_phases(
    system: TwoLevelSystem,
    field: DrivingField,
    phases: InitialPhases,
    branch: str,
    t_grid,
) -> DressedPhaseSeries:
    """Four cumulative material phases on the grid, by composite Simpson quadrature.

    Ground-branch initial conditions put phi_g in every component (phi_e never
    appears); symmetrically for the excited branch.  The additive optical-phase
    constants use the instantaneous phi(t), so the virtual components differ
    from their real partners by exactly +/- the full optical phase
    Phi(t) = carrier*t + phi(t).
    """
    _check_branch(branch)
    t, _, _, integrals = _phase_integrals(system, field, t_grid, ("G", "E"))
    out = [np.empty(t.size, dtype=complex) for _ in range(4)]
    for b in _blocks(t.size):
        out[0][b], out[1][b] = _phase_pair(field, phases, branch, "G", t[b], integrals["G"][b])
        out[2][b], out[3][b] = _phase_pair(field, phases, branch, "E", t[b], integrals["E"][b])
    return DressedPhaseSeries(t, *out, branch)


def _phase_integrals(system, field, t_grid, levels):
    """Grid, Omega, generalized Rabi frequency and the phase integral of each of ``levels``.

    Level "G" integrates omega_G and level "E" omega_E_eff, cumulatively from
    t = 0.  One loop over the Simpson blocks evaluates the frequencies and
    the increments; one running sum over the whole grid follows.
    """
    t = check_monotone_grid(t_grid)
    if t[0] != 0.0:
        raise GridError("dressed_phases: grid must start at t = 0")
    omega = _require_on_support(system, field, t, "dressed_phases")
    gen_rabi = np.empty(t.size, dtype=complex)
    integrals = {level: np.zeros(t.size, dtype=complex) for level in levels}
    for b in _simpson_blocks(t.size):
        f = _frequencies(system, field, t[b], omega[b], "dressed_phases")
        gen_rabi[b] = f.gen_rabi
        for level, out in integrals.items():
            rate = f.omega_G if level == "G" else f.omega_E_eff
            _simpson_increments(rate, t[b], out[b.start + 1 : b.stop])
    for out in integrals.values():
        # In place, and over the whole grid: a running sum carried from
        # block to block would round apart.
        np.cumsum(out[1:], out=out[1:])
    return t, omega, gen_rabi, integrals


def _phase_pair(field, phases, branch, level, t, integral):
    """Real and virtual phase of ``level`` ("G" or "E") in ``branch`` on the samples ``t``.

    ``integral`` is the level's cumulative frequency integral there.
    """
    phi_t = field.phase.value(t)
    wt = field.carrier * t
    if branch == "ground":
        base = phases.phi_g
        if level == "G":
            return base + integral, base + phi_t + integral + wt
        return base + phi_t + integral, base + integral - wt
    # The time-dependent part of phi enters through the accumulated chirp
    # (phi(t) - phi(0)) so that each component keeps the same physical rate
    # as in the ground branch while the t = 0 constants stay phi_e,
    # phi_e - phi(0) as the two-column structure demands.  For a constant
    # phi this reduces to the plain bookkeeping.
    base = phases.phi_e
    acc = phi_t - field.phase.value(0.0)
    if level == "E":
        return base + acc + integral, base - phi_t + acc + integral - wt
    return base - phi_t + acc + integral, base + acc + integral + wt


def assemble_bare_state(
    system: TwoLevelSystem,
    field: DrivingField,
    phases: InitialPhases,
    branch: str,
    t_grid,
) -> TwoLevelTrajectory:
    """Bare-basis trajectory assembled from the dressed components of one branch.

    Ground branch: c_g from the real component, c_e from the virtual one;
    excited branch the other way around.  Directly comparable to a propagated
    oracle trajectory on the same grid; the ground branch is the one whose
    amplitudes are oracle-accurate to the adiabatic margin.  In the excited
    branch the real parts (phases) track the oracle, while the imaginary part
    of the effective excited frequency carries the field log-derivative
    exactly as printed, which encodes the field-proportional growth of
    nonadiabatically populated components rather than the followed state's
    norm.  The phases and the amplitudes share one Omega and one generalized
    Rabi frequency.
    """
    _check_branch(branch)
    level = "G" if branch == "ground" else "E"
    t, omega, gen_rabi, integrals = _phase_integrals(system, field, t_grid, (level,))
    dw = complex_detuning(system, field)
    c_g = np.empty(t.size, dtype=complex)
    c_e = np.empty(t.size, dtype=complex)
    c_real, c_virt = (c_g, c_e) if branch == "ground" else (c_e, c_g)
    for b in _blocks(t.size):
        real_amp, virt_amp = _mixing_amplitudes(dw, omega[b], gen_rabi[b], branch)
        phi_real, phi_virt = _phase_pair(field, phases, branch, level, t[b], integrals[level][b])
        np.multiply(real_amp, np.exp(-1j * phi_real), out=c_real[b])
        np.multiply(virt_amp, np.exp(-1j * phi_virt), out=c_virt[b])
    return TwoLevelTrajectory(t, c_g, c_e, frame="bare")


def _log_derivative_orders(system, field, t, omega, n_max: int):
    """Derivatives of L = Omega^-1 dOmega/dt up to order n_max, exactly.

    ``omega`` is the Rabi frequency at ``t``.  Uses the Leibniz recursion on
    dOmega = L * Omega, which needs envelope derivatives up to order n_max + 1.
    """
    derivs = [omega] + [system.mu * d for d in field.envelope._derivatives(t, n_max + 1)[1:]]
    ls = [derivs[1] / omega]
    for n in range(1, n_max + 1):
        acc = derivs[n + 1].copy()
        for j in range(n):
            acc -= math.comb(n, j) * ls[j] * derivs[n - j]
        ls.append(acc / omega)
    return ls


def adiabatic_report(
    system: TwoLevelSystem,
    field: DrivingField,
    t_grid,
    n_max: int,
) -> AdiabaticityReport:
    """Generalized adiabatic ratios, maximized over the grid, for n = 0..n_max.

    ratio(n, k, t) = |d^n/dt^n (dphi/dt - i Omega^-1 dOmega/dt)|
                     / (|dw~|^(n+1-k) |Omega(t)|^k),   k = 0..n+1.

    A vanishing denominator (exactly zero complex detuning with k < n+1) is
    reported as an infinite ratio rather than raised.
    """
    integer = isinstance(n_max, (int, np.integer)) and not isinstance(n_max, bool)
    if not (integer and 0 <= n_max <= MAX_ADIABATIC_ORDER):
        raise ValidationError(
            f"adiabatic_report: n_max must be an integer in [0, {MAX_ADIABATIC_ORDER}]"
            " (derivative registry limit)"
        )
    t = check_monotone_grid(t_grid)
    omega = _require_on_support(system, field, t, "adiabatic_report")
    abs_dw = abs(complex_detuning(system, field))
    with np.errstate(over="ignore"):
        scales = [np.float64(abs_dw) ** power for power in range(n_max + 2)]

    # Per block, the maximum over the block of each ratio(n, k), in (n, k)
    # order; np.max over the blocks is exact and keeps NaN.
    block_maxima = []
    for b in _blocks(t.size):
        log_derivs = _log_derivative_orders(system, field, t[b], omega[b], n_max)
        phase_derivs = field.phase._derivatives(t[b], n_max + 1)
        row = []
        for n in range(n_max + 1):
            numer = np.abs(phase_derivs[n + 1] - 1j * log_derivs[n])
            for k in range(n + 2):
                scale = scales[n + 1 - k]
                if abs_dw == 0.0 and k < n + 1:
                    # Exactly zero complex detuning: the bound's right side
                    # vanishes, so any nonzero numerator violates it
                    # infinitely; an identically zero numerator satisfies it
                    # trivially.
                    row.append(0.0 if np.max(numer) == 0.0 else math.inf)
                elif math.isfinite(scale):
                    # Where |Omega|^k, or its product with the scale, passes
                    # float64's range the ratio is 0.0, its limit.
                    with np.errstate(over="ignore"):
                        row.append(np.max(numer / (scale * omega[b] ** k)))
                else:
                    # Where |dw~|^power passes float64's range the ratio is
                    # 0.0, its limit.
                    row.append(0.0)
        block_maxima.append(row)
    maxima = iter(np.max(block_maxima, axis=0).tolist())

    orders = {}
    overall = 0.0
    for n in range(n_max + 1):
        ratios = {k: next(maxima) for k in range(n + 2)}
        margin = max(ratios.values())
        orders[n] = OrderEntry(ratios=ratios, margin=margin)
        overall = max(overall, margin)
    return AdiabaticityReport(orders=orders, margin=overall)


def usual_adiabatic_value(system: TwoLevelSystem, field: DrivingField, t):
    """|dw~^-1 E0^-1 dE0/dt|: the n = 0, k = 0 ratio for a constant-phase field."""
    omega = _require_on_support(system, field, t, "usual_adiabatic_value")
    abs_dw = abs(complex_detuning(system, field))
    value = np.abs(np.asarray(rabi_frequency(system, field, t, 1)) / omega)
    if abs_dw == 0.0:
        out = np.where(value == 0.0, 0.0, math.inf)
    else:
        out = value / abs_dw
    return float(out) if np.ndim(t) == 0 else out


def born_fock_value(system: TwoLevelSystem, field: DrivingField, t):
    """|d(Omega^-1)/dt| = |Omega^-2 dOmega/dt|: the Born-Fock reduction."""
    omega = _require_on_support(system, field, t, "born_fock_value")
    out = np.abs(np.asarray(rabi_frequency(system, field, t, 1))) / np.asarray(omega) ** 2
    return float(out) if np.ndim(t) == 0 else out
