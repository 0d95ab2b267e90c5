"""Standing-wave modes of a 1D transmission-line resonator.

Voltage mode shapes are sinusoids fixed by the boundary conditions; the
quantized voltage and current amplitudes follow from the per-length modal
capacitance and inductance of an idealized parallel-plate cross section.
All quantities here are SI (frequencies in rad/s).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .errors import ContractViolationError, ModelError, NumericError

# CODATA 2022 values in SI units, as scipy.constants (1.17) gives them
epsilon_0 = 8.8541878188e-12  # F/m
hbar = 1.0545718176461565e-34  # J s, h / (2 pi) with h exact
mu_0 = 1.25663706127e-06  # N/A^2


class BoundaryCondition(enum.Enum):
    OPEN_OPEN = "open-open"
    SHORT_SHORT = "short-short"
    OPEN_SHORT = "open-short"


class LongitudinalNorm(enum.Enum):
    """How the longitudinal normalization N_EL enters operator amplitudes.

    INTEGRAL uses the literal value of the mode-shape integral (l/2 for the
    sinusoids here).  FULL_LENGTH forces N_EL = N_HL = l so the voltage
    amplitude reduces to sqrt(hbar*omega / (2 C_r)) with C_r the total
    capacitance; the two differ by sqrt(2) for these modes.
    """

    INTEGRAL = "integral"
    FULL_LENGTH = "full-length"


def _cospi(x):
    """cos(pi*x), exact at quarter-turn multiples of x."""
    x = np.asarray(x, dtype=float)
    r = np.remainder(x, 2.0)
    out = np.cos(np.pi * r)
    out = np.where((r == 0.5) | (r == 1.5), 0.0, out)
    out = np.where(r == 0.0, 1.0, out)
    out = np.where(r == 1.0, -1.0, out)
    return out if out.ndim else float(out)


def _sinpi(x):
    """sin(pi*x), exact at quarter-turn multiples of x."""
    x = np.asarray(x, dtype=float)
    r = np.remainder(x, 2.0)
    out = np.sin(np.pi * r)
    out = np.where((r == 0.0) | (r == 1.0), 0.0, out)
    out = np.where(r == 0.5, 1.0, out)
    out = np.where(r == 1.5, -1.0, out)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class LineParams:
    """Per-unit-length line constants and geometry."""

    L_pul: float
    C_pul: float
    length: float
    bc: BoundaryCondition = BoundaryCondition.OPEN_OPEN

    def __post_init__(self):
        for name in ("L_pul", "C_pul", "length"):
            if not 0 < getattr(self, name) < np.inf:
                raise ContractViolationError(
                    f"{name} must be positive and finite, got {getattr(self, name)}")

    @property
    def v_p(self) -> float:
        """Phase velocity 1/sqrt(L C)."""
        return 1.0 / np.sqrt(self.L_pul * self.C_pul)


@dataclass(frozen=True)
class TEMCrossSection:
    """Idealized parallel-plate cross section: every transverse integral is
    closed-form, so C_k = eps0*N_ET and L_k = mu0*N_HT hold exactly."""

    w: float
    d: float
    eps_r: float
    n_et: float
    n_ht: float
    c_k: float
    l_k: float


def tem_cross_section(w: float, d: float, eps_r: float = 1.0) -> TEMCrossSection:
    for name, value in (("w", w), ("d", d), ("eps_r", eps_r)):
        if not 0 < value < np.inf:
            raise ContractViolationError(f"{name} must be positive and finite, got {value}")
    n_et = eps_r * w / d
    n_ht = d / w
    return TEMCrossSection(
        w=w, d=d, eps_r=eps_r,
        n_et=n_et, n_ht=n_ht,
        c_k=epsilon_0 * n_et, l_k=mu_0 * n_ht,
    )


@dataclass(frozen=True)
class ModeSet:
    """Standing-wave mode family with optional operator amplitudes.

    Mode index runs 0-based over the first ``n_modes`` standing waves; the
    physical mode number is index + 1.  ``n_v``/``n_i`` stay None until
    :func:`mode_operator_coeffs` fills them.
    """

    line: LineParams
    convention: LongitudinalNorm
    freqs: np.ndarray
    n_el: np.ndarray
    n_hl: np.ndarray
    n_v: np.ndarray = None
    n_i: np.ndarray = None

    @property
    def n_modes(self) -> int:
        return self.freqs.size

    def _phase(self, idx: int, z):
        # argument of the sinusoid in half-turn units: exact at node positions
        t = np.asarray(z, dtype=float) / self.line.length
        l = idx + 1
        if self.line.bc is BoundaryCondition.OPEN_SHORT:
            return (2 * l - 1) * t / 2.0
        return l * t

    def u(self, idx: int, z):
        """Voltage mode shape u_l(z), unit amplitude."""
        self._check_idx(idx)
        x = self._phase(idx, z)
        if self.line.bc is BoundaryCondition.SHORT_SHORT:
            return _sinpi(x)
        return _cospi(x)

    def v(self, idx: int, z):
        """Current mode shape v_l(z): the conjugate standing wave of u_l."""
        self._check_idx(idx)
        x = self._phase(idx, z)
        if self.line.bc is BoundaryCondition.SHORT_SHORT:
            return _cospi(x)
        return _sinpi(x)

    def _check_idx(self, idx: int):
        if not 0 <= idx < self.n_modes:
            raise IndexError(f"mode index {idx} outside [0, {self.n_modes})")


def compute_modes(line: LineParams, n_modes: int,
                  conv: LongitudinalNorm = LongitudinalNorm.INTEGRAL) -> ModeSet:
    """First ``n_modes`` standing waves of the line.

    OPEN_OPEN and SHORT_SHORT share the harmonic dispersion
    omega_l = l*pi*v_p/length; OPEN_SHORT uses the odd half-wave ladder
    (2l-1)*pi*v_p/(2*length).
    """
    if n_modes < 1:
        raise ContractViolationError(f"n_modes must be at least 1, got {n_modes}")
    l = np.arange(1, n_modes + 1, dtype=float)
    if line.bc is BoundaryCondition.OPEN_SHORT:
        freqs = (2 * l - 1) * np.pi * line.v_p / (2 * line.length)
    else:
        freqs = l * np.pi * line.v_p / line.length
    if conv is LongitudinalNorm.FULL_LENGTH:
        norm = np.full(n_modes, line.length)
    else:
        norm = np.full(n_modes, line.length / 2.0)
    return ModeSet(line=line, convention=conv, freqs=freqs, n_el=norm, n_hl=norm.copy())


def mode_operator_coeffs(modes: ModeSet, xsec: TEMCrossSection) -> ModeSet:
    """Fill in the zero-point voltage and current amplitudes.

    N_V,l = sqrt(hbar*omega_l / (2 C_k N_EL,l)) and the current analogue with
    L_k, N_HL.  Each satisfies C_k N_V^2 N_EL = L_k N_I^2 N_HL = hbar*omega/2.
    """
    if np.any(modes.n_el <= 0) or np.any(modes.n_hl <= 0):
        raise ModelError("degenerate mode: zero longitudinal normalization")
    n_v = np.sqrt(hbar * modes.freqs / (2.0 * xsec.c_k * modes.n_el))
    n_i = np.sqrt(hbar * modes.freqs / (2.0 * xsec.l_k * modes.n_hl))
    return replace(modes, n_v=n_v, n_i=n_i)


def matched_cross_section(line: LineParams, d: float = 5e-6) -> TEMCrossSection:
    """Parallel-plate section whose C_k and L_k reproduce the line constants.

    Fixing the gap ``d``, the plate width w = mu0*d/L_pul matches L_k and
    eps_r = (c/v_p)^2 then matches C_k, so the section and the line describe
    the same per-length electrodynamics.
    """
    w = mu_0 * d / line.L_pul
    eps_r = line.L_pul * line.C_pul / (mu_0 * epsilon_0)
    return tem_cross_section(w=w, d=d, eps_r=eps_r)


def _quadrature_grids(modes: ModeSet, xsec: TEMCrossSection, points_per_wavelength: int):
    # shortest wavelength present sets the longitudinal sampling
    lam_min = 2.0 * np.pi * modes.line.v_p / modes.freqs[-1]
    n_z = max(int(np.ceil(points_per_wavelength * modes.line.length / lam_min)), 16)
    z = np.linspace(0.0, modes.line.length, n_z + 1)
    x = np.linspace(0.0, xsec.d, 33)
    return z, x


def _energies_at(modes: ModeSet, xsec: TEMCrossSection, q, p, z, x):
    # field side: volume quadrature of eps|E|^2 and mu|H|^2 with separable
    # TEM profiles; the sqrt(2) puts a unit amplitude at energy hbar*omega/2
    u_t = 1.0 / xsec.d
    trans_e = xsec.w * np.trapezoid(xsec.eps_r * u_t**2 * np.ones_like(x), x)
    h_t = 1.0 / xsec.w
    trans_h = xsec.w * np.trapezoid(np.full_like(x, h_t**2), x)
    n_e = np.sqrt(hbar * modes.freqs / (2.0 * epsilon_0 * xsec.n_et * modes.n_el))
    n_h = np.sqrt(hbar * modes.freqs / (2.0 * mu_0 * xsec.n_ht * modes.n_hl))
    e_long = np.zeros_like(z, dtype=complex)
    h_long = np.zeros_like(z, dtype=complex)
    for idx in range(modes.n_modes):
        e_long += np.sqrt(2.0) * n_e[idx] * q[idx] * modes.u(idx, z)
        h_long += np.sqrt(2.0) * n_h[idx] * p[idx] * modes.v(idx, z)
    field = 0.5 * epsilon_0 * trans_e * np.trapezoid(np.abs(e_long) ** 2, z) \
        + 0.5 * mu_0 * trans_h * np.trapezoid(np.abs(h_long) ** 2, z)

    # line side: 1D quadrature of C_k|V|^2 + L_k|I|^2 with operator amplitudes
    v_tot = np.zeros_like(z, dtype=complex)
    i_tot = np.zeros_like(z, dtype=complex)
    for idx in range(modes.n_modes):
        v_tot += np.sqrt(2.0) * modes.n_v[idx] * q[idx] * modes.u(idx, z)
        i_tot += np.sqrt(2.0) * modes.n_i[idx] * p[idx] * modes.v(idx, z)
    line = 0.5 * xsec.c_k * np.trapezoid(np.abs(v_tot) ** 2, z) \
        + 0.5 * xsec.l_k * np.trapezoid(np.abs(i_tot) ** 2, z)
    return float(field), float(line)


def energy_correspondence(modes: ModeSet, xsec: TEMCrossSection, q, p,
                          points_per_wavelength: int = 64):
    """Total energy computed from the fields and from the line voltages.

    ``q``/``p`` are dimensionless per-mode amplitudes scaled so that
    |q|^2 = 1 carries hbar*omega/2 of electric energy (INTEGRAL convention).
    Returns ``(field_energy, line_energy)`` in joules; cross-mode terms in
    the quadratures vanish by orthogonality.
    """
    if modes.n_v is None:
        raise ContractViolationError("call mode_operator_coeffs before energy_correspondence")
    q = np.asarray(q, dtype=complex)
    p = np.asarray(p, dtype=complex)
    if q.shape != (modes.n_modes,) or p.shape != (modes.n_modes,):
        raise ContractViolationError("need one (q, p) amplitude pair per mode")
    if not (np.all(np.isfinite(q.view(float))) and np.all(np.isfinite(p.view(float)))):
        raise NumericError("amplitudes must be finite")
    z, x = _quadrature_grids(modes, xsec, points_per_wavelength)
    field, line = _energies_at(modes, xsec, q, p, z, x)
    z2, _ = _quadrature_grids(modes, xsec, 2 * points_per_wavelength)
    field2, line2 = _energies_at(modes, xsec, q, p, z2, x)
    scale = max(abs(field2), abs(line2))
    if scale > 0 and (abs(field - field2) > 1e-8 * scale or abs(line - line2) > 1e-8 * scale):
        raise NumericError("energy quadrature did not converge; refine points_per_wavelength")
    return field2, line2
