"""Closed-form dressed-state structure of the driven, damped two-level system.

Evaluates the auxiliary complex frequencies (generalized Rabi frequency,
level shifts, effective excited-state frequency), the four cumulative material
phases for ground- and excited-state initial conditions, the assembled
bare-basis state, and the generalized adiabatic condition, order by order.

All dressed quantities are defined only where the pulse is on: operations
raise ``FieldBelowFloorError`` when the Rabi frequency drops below
``OMEGA_FLOOR_FRACTION`` times its peak, instead of returning garbage.

The grid-wide operations (``dressed_phases``, ``assemble_bare_state`` and
``adiabatic_report``) walk the blocks of ``numerics._simpson_blocks``, so
their temporaries stay small; their results and errors are bit for bit those
of one whole-grid evaluation.  The phases and the assembled state take one
pass over the blocks: each block's phase integral continues the block
before's through ``numerics._running_simpson``, so no whole-grid integral is
kept.  Every operation that forms the generalized Rabi frequency raises
``ValidationError`` where it is not finite.
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
    BRANCHES,
    MAX_ADIABATIC_ORDER,
    DrivingField,
    InitialPhases,
    TwoLevelSystem,
    complex_detuning,
    rabi_frequency,
)
from .numerics import _read_only, _running_simpson, _simpson_blocks, check_monotone_grid
from .propagator import TwoLevelTrajectory

#: Rabi-frequency floor as a fraction of the peak Rabi frequency.
OMEGA_FLOOR_FRACTION = 1e-9

#: |generalized Rabi| below which the 1/gen_rabi derivative correction is degenerate.
DEGENERATE_RABI_FLOOR = 1e-12


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
    _require_finite_rabi(system, field, omega, "generalized_rabi")
    w = _continued_rabi(complex_detuning(system, field), omega)
    return complex(w[0]) if np.ndim(t) == 0 else w


class _Frequencies(NamedTuple):
    omega: np.ndarray
    gen_rabi: np.ndarray
    lambda_minus: np.ndarray
    omega_G: np.ndarray
    omega_E: np.ndarray


def _frequencies(system: TwoLevelSystem, field: DrivingField, omega) -> _Frequencies:
    """Omega and the auxiliary complex frequencies, as arrays over the times of ``omega``.

    ``omega`` is the Rabi frequency there.
    """
    dw = complex_detuning(system, field)
    gr = _continued_rabi(dw, omega)
    lam_m = 0.5 * (dw - gr)
    return _Frequencies(omega, gr, lam_m, system.omega_g + lam_m, system.omega_e - lam_m)


def _require_finite_rabi(system: TwoLevelSystem, field: DrivingField, omega, where: str) -> None:
    """ValidationError unless the generalized Rabi frequency is finite at every Omega in ``omega``.

    dw~^2 overflows from |dw~| ~ 1.3e154, and Re(dw~^2) + Omega^2 grows with
    Omega, so the largest Omega decides.
    """
    dw = complex_detuning(system, field)
    largest = np.max(omega, keepdims=True)
    if not np.all(np.isfinite(_continued_rabi(dw, largest))):
        raise ValidationError(
            f"{where}: the generalized Rabi frequency is not finite"
            f" (|dw~| = {abs(dw):g}, max Omega = {float(largest[0]):g})"
        )


def _omega_E_eff(system: TwoLevelSystem, field: DrivingField, t, f: _Frequencies) -> np.ndarray:
    """omega_E_eff = omega_E - dphi/dt - gamma''/2 - i(gamma'/2 - Omega^-1 dOmega/dt) over ``t``.

    Not finite where Omega vanishes.
    """
    d_omega = rabi_frequency(system, field, t, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        return (
            f.omega_E
            - field.phase.derivative(t, 1)
            - 0.5 * system.gamma_im
            - 1j * (0.5 * system.gamma_re - d_omega / f.omega)
        )


def _lambda_tilde_correction(f: _Frequencies, d_omega) -> np.ndarray:
    """-(i/2) * d/dt ln(gen_rabi) = -(i/2) Omega dOmega / gen_rabi^2."""
    numer = f.omega * d_omega
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
    omega = rabi_frequency(system, field, u, 0)
    _require_finite_rabi(system, field, omega, "level_shifts")
    f = _frequencies(system, field, omega)
    lam_p = complex(0.5 * (complex_detuning(system, field) + f.gen_rabi[0]))
    lam_m = complex(f.lambda_minus[0])
    corr = complex(_lambda_tilde_correction(f, rabi_frequency(system, field, u, 1))[0])
    eff = complex(_omega_E_eff(system, field, u, f)[0]) if _on_support(system, field, f.omega) else None
    return EffectiveFrequencies(
        gen_rabi=complex(f.gen_rabi[0]),
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        lambda_tilde_plus=lam_p + corr,
        lambda_tilde_minus=lam_m + corr,
        omega_G=complex(f.omega_G[0]),
        omega_E=complex(f.omega_E[0]),
        omega_E_eff=eff,
    )


def effective_excited_frequency(system: TwoLevelSystem, field: DrivingField, t):
    """Effective complex frequency of the real excited-state component.

    omega_E_eff = omega_E - dphi/dt - gamma''/2 - i(gamma'/2 - Omega^-1 dOmega/dt);
    requires the field to be above the floor because of the log-derivative term.
    """
    where = "effective_excited_frequency"
    u = _as_times(t)
    omega = _require_on_support(system, field, u, where)
    _require_finite_rabi(system, field, omega, where)
    out = _omega_E_eff(system, field, u, _frequencies(system, field, omega))
    return complex(out[0]) if np.ndim(t) == 0 else out


def dressed_amplitudes(system: TwoLevelSystem, field: DrivingField, t, branch: str = "ground"):
    """Instantaneous-diagonalization mixing amplitudes (real, virtual components).

    Complex half-angle with tan(theta~) = Omega/dw~: the ground branch is
    (cos(theta~/2), sin(theta~/2)), the excited branch (cos(theta~/2),
    -sin(theta~/2)); squared magnitudes sum to 1 for gamma = 0.
    """
    _check_branch(branch)
    omega = _require_on_support(system, field, _as_times(t), "dressed_amplitudes")
    _require_finite_rabi(system, field, omega, "dressed_amplitudes")
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
    t, _, blocks = _phase_blocks(system, field, t_grid, ("G", "E"))
    out = [np.empty(t.size, dtype=complex) for _ in range(4)]
    for b, _, integrals in blocks:
        out[0][b], out[1][b] = _phase_pair(field, phases, branch, "G", t[b], integrals["G"])
        out[2][b], out[3][b] = _phase_pair(field, phases, branch, "E", t[b], integrals["E"])
    return DressedPhaseSeries(t, *out, branch)


def _phase_blocks(system, field, t_grid, levels):
    """The checked grid, Omega on it and an iterator over its blocks.

    Each block gives the slice of samples it owns, the generalized Rabi
    frequency there and the phase integral of each of ``levels``: level "G"
    integrates omega_G and level "E" omega_E_eff, cumulatively from t = 0,
    each block's continuing the block before's.  The generalized Rabi
    frequency is checked before any block runs.
    """
    t = check_monotone_grid(t_grid)
    if t[0] != 0.0:
        raise GridError("dressed_phases: grid must start at t = 0")
    omega = _require_on_support(system, field, t, "dressed_phases")
    _require_finite_rabi(system, field, omega, "dressed_phases")

    def blocks():
        integrals = dict.fromkeys(levels)
        for s, b in _simpson_blocks(t.size):
            f = _frequencies(system, field, omega[s])
            for level in levels:
                rate = f.omega_G if level == "G" else _omega_E_eff(system, field, t[s], f)
                integrals[level] = _running_simpson(rate, t[s], integrals[level], np.empty_like(rate))
            # The callers work on the owned samples only: temporaries one
            # sample past 2**14 are allocated differently, and page-fault
            # about 8 times as often.
            owned = slice(0, b.stop - b.start)
            yield b, f.gen_rabi[owned], {level: v[owned] for level, v in integrals.items()}

    return t, omega, blocks()


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
    t, omega, blocks = _phase_blocks(system, field, t_grid, (level,))
    dw = complex_detuning(system, field)
    c_g = np.empty(t.size, dtype=complex)
    c_e = np.empty(t.size, dtype=complex)
    c_real, c_virt = (c_g, c_e) if branch == "ground" else (c_e, c_g)
    for b, gen_rabi, integrals in blocks:
        amps = _mixing_amplitudes(dw, omega[b], gen_rabi, branch)
        phis = _phase_pair(field, phases, branch, level, t[b], integrals[level])
        for amp, phi, c in zip(amps, phis, (c_real, c_virt)):
            wave = -1j * phi
            np.exp(wave, out=wave)
            # Out of place: see propagator._series on numpy's in-place complex product.
            np.multiply(amp, wave, out=c[b])
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

    A vanishing denominator (exactly zero complex detuning with k < n+1, or
    |Omega|^k underflowing to 0) is reported as the ratio's limit rather
    than raised: inf, or 0.0 over a zero numerator.
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
    for _, b in _simpson_blocks(t.size):
        log_derivs = _log_derivative_orders(system, field, t[b], omega[b], n_max)
        phase_derivs = field.phase._derivatives(t[b], n_max + 1)
        with np.errstate(over="ignore"):
            powers = [omega[b] ** k for k in range(n_max + 2)]  # |Omega|^k, once per block
        lowest = [np.min(power) for power in powers]
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
                    # Where the denominator passes float64's range, or
                    # underflows to 0, the ratio is its limit: 0.0, or inf
                    # (0.0 over a zero numerator).
                    with np.errstate(over="ignore", divide="ignore"):
                        denom = scale * powers[k]
                        if scale * lowest[k] > 0.0:  # the block's smallest denominator
                            row.append(np.max(numer / denom))
                        else:
                            zeros = np.zeros(numer.shape)
                            row.append(np.max(np.divide(numer, denom, out=zeros, where=numer != 0.0)))
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
