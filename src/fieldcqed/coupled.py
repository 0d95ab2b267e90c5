"""Transmon-resonator Hamiltonians in the truncated product basis.

The charge coupling factorises as g_{ij,l} = r_l <i|n|j>.  The per-mode rate
r_l comes from the circuit form (2e/hbar) beta N_V u(z0), or from spatially
integrating the mode field against a localized coupling current; both are
provided so their agreement can be checked numerically.

The builders are unit-agnostic: transmon levels and mode frequencies are
added into one matrix, so the caller must supply both in the same angular
frequency units.  The coupling rate itself is returned in rad/s because it
is built from SI constants and the SI voltage amplitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.constants import e as elementary_charge
from scipy.constants import epsilon_0, hbar

from .errors import CapacityError, ContractViolationError, NumericError
from .qops import Operator, StateVector, annihilation_op
from .transmon import TransmonSolution, charge_matrix_element
from .txline import LongitudinalNorm, ModeSet, TEMCrossSection

TWO_E_OVER_HBAR = 2.0 * elementary_charge / hbar

# largest product dimension _assemble builds densely; an Operator may be larger
MAX_DIM = 4096


@dataclass(frozen=True)
class CouplingSpec:
    """Voltage-divider and geometry factors entering the coupling rate.

    beta is the capacitive divider C_g/(C_g+C_B); include_beta=False drops it
    for geometries where the coupling capacitor is modeled explicitly.
    path_gain rescales the transverse integration path relative to the full
    gap (1 = the path spans the gap).
    """

    beta: float
    z0: float
    include_beta: bool = True
    path_gain: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ContractViolationError(f"beta must lie in (0, 1], got {self.beta}")
        if not 0.0 <= self.z0 < np.inf:
            raise ContractViolationError(f"z0 must be non-negative and finite, got {self.z0}")
        if not np.isfinite(self.path_gain):
            raise ContractViolationError(f"path_gain must be finite, got {self.path_gain}")

    @property
    def beta_eff(self) -> float:
        return self.beta if self.include_beta else 1.0


@dataclass(frozen=True)
class CoupledHamiltonian:
    matrix: Operator
    basis: tuple  # (M, fock_cutoffs)
    g_table: np.ndarray  # shape (M, M, n_modes), rad/s

    @property
    def dim(self) -> int:
        return self.matrix.dim

    def basis_state(self, j: int, ns) -> StateVector:
        m, cutoffs = self.basis
        ns = tuple(ns)
        if not 0 <= j < m:
            raise IndexError(f"transmon level {j} outside [0, {m})")
        if len(ns) != len(cutoffs) or any(not 0 <= n < c for n, c in zip(ns, cutoffs)):
            raise IndexError(f"Fock occupation {ns} incompatible with cutoffs {cutoffs}")
        index = j
        for n, c in zip(ns, cutoffs):
            index = index * c + n
        return StateVector.basis_state(self.dim, index)


def _check_position(modes: ModeSet, z0: float):
    if not 0.0 <= z0 <= modes.line.length:
        raise ContractViolationError(
            f"z0={z0} outside the line [0, {modes.line.length}]")


@np.errstate(over="ignore", invalid="ignore")
def _rates(cs: CouplingSpec, *factors) -> np.ndarray:
    """(2e/hbar) * beta_eff * factors, multiplied left to right; NumericError on overflow."""
    rates = TWO_E_OVER_HBAR * cs.beta_eff
    for f in factors:
        rates = rates * f
    if not np.all(np.isfinite(rates)):
        raise NumericError(f"coupling rate is not finite: mode rates {rates.tolist()}")
    return rates


def mode_rates(modes: ModeSet, cs: CouplingSpec) -> np.ndarray:
    """Per-mode circuit rate (2e/hbar) beta_eff N_V,l u_l(z0) path_gain in rad/s."""
    if modes.n_v is None:
        raise ContractViolationError("mode operator coefficients not filled; call mode_operator_coeffs")
    _check_position(modes, cs.z0)
    u0 = np.array([modes.u(l, cs.z0) for l in range(modes.n_modes)])
    return _rates(cs, modes.n_v, u0, cs.path_gain)


def coupling_table(ts: TransmonSolution, rates: np.ndarray, m: int) -> np.ndarray:
    """(m, m, n_modes) table g_{ij,l} = <i|n|j> * rates[l]; NumericError on overflow."""
    if m > ts.n_levels:
        raise ContractViolationError(f"transmon solution has only {ts.n_levels} levels")
    me = np.array([[charge_matrix_element(ts, i, j) for j in range(m)] for i in range(m)])
    with np.errstate(over="ignore", invalid="ignore"):
        table = me.reshape(m, m, 1) * rates
    if not np.all(np.isfinite(table)):
        raise NumericError(f"coupling table is not finite: mode rates {rates.tolist()}")
    return table


def coupling_strength(ts: TransmonSolution, modes: ModeSet, cs: CouplingSpec,
                      i: int, j: int, l: int) -> float:
    """Charge coupling rate g_{ij,l} in rad/s: one entry of the coupling table."""
    modes._check_idx(l)
    if not (0 <= i < ts.n_levels and 0 <= j < ts.n_levels):
        raise IndexError(f"level indices ({i}, {j}) outside [0, {ts.n_levels})")
    return float(coupling_table(ts, mode_rates(modes, cs), max(i, j) + 1)[i, j, l])


def _product_diagonal(head, cutoffs, weights) -> np.ndarray:
    """Diagonal of head (x) 1 + sum_l weights[l] n_l in the product basis.

    ``head`` holds the transmon diagonal and n_l is the photon number of
    mode l.  One broadcast sum over the (m, *cutoffs) grid, flattened with
    the transmon index varying slowest, as in ``np.kron``.
    """
    ndim = len(cutoffs) + 1
    diag = np.asarray(head, dtype=float).reshape((-1,) + (1,) * (ndim - 1))
    for l, (c, w) in enumerate(zip(cutoffs, weights)):
        shape = [1] * ndim
        shape[l + 1] = c
        diag = diag + w * np.arange(c, dtype=float).reshape(shape)
    return diag.ravel()


def _assemble(ts: TransmonSolution, modes: ModeSet, m: int, fock_cutoffs,
              g_table: np.ndarray) -> CoupledHamiltonian:
    if m < 2:
        raise ContractViolationError(f"need at least 2 transmon levels, got {m}")
    cutoffs = tuple(int(c) for c in fock_cutoffs)
    if len(cutoffs) != modes.n_modes:
        raise ContractViolationError("need one Fock cutoff per mode")
    if any(c < 2 for c in cutoffs):
        raise ContractViolationError("each Fock cutoff must be at least 2")
    dim = m * int(np.prod(cutoffs))
    if dim > MAX_DIM:
        raise CapacityError(f"product dimension {dim} exceeds MAX_DIM={MAX_DIM}")

    h = np.diag(_product_diagonal(ts.levels[:m], cutoffs, modes.freqs))
    # the coupling terms g_l (x) (a_l + a_l^dag) have a zero diagonal, so
    # only they need a Kronecker product; all of it is real
    for l, c in enumerate(cutoffs):
        a = annihilation_op(c)
        before = np.eye(int(np.prod(cutoffs[:l])))
        after = np.eye(int(np.prod(cutoffs[l + 1:])))
        h += np.kron(np.kron(np.kron(g_table[:, :, l], before), a + a.T), after)
    return CoupledHamiltonian(matrix=Operator(h), basis=(m, cutoffs), g_table=g_table)


def build_full_hamiltonian(ts: TransmonSolution, modes: ModeSet, cs: CouplingSpec,
                           m: int, fock_cutoffs) -> CoupledHamiltonian:
    """All charge matrix elements retained (no nearest-neighbor truncation)."""
    table = coupling_table(ts, mode_rates(modes, cs), m)
    return _assemble(ts, modes, m, fock_cutoffs, table)


def build_nn_hamiltonian(ts: TransmonSolution, modes: ModeSet, cs: CouplingSpec,
                         m: int, fock_cutoffs) -> CoupledHamiltonian:
    """Coupling restricted to |i - j| = 1 transmon transitions."""
    table = coupling_table(ts, mode_rates(modes, cs), m)
    levels = np.arange(m)
    table[np.abs(levels[:, None] - levels) != 1] = 0.0
    return _assemble(ts, modes, m, fock_cutoffs, table)


def total_excitation_op(coupled: CoupledHamiltonian) -> Operator:
    """Transmon level index plus photon numbers; conserved only without
    coupling (the a + a^dag form keeps counter-rotating terms)."""
    m, cutoffs = coupled.basis
    diag = _product_diagonal(np.arange(m), cutoffs, np.ones(len(cutoffs)))
    return Operator(np.diag(diag))


def _smeared_mode_value(modes: ModeSet, l: int, z0: float, sigma: float, n_points: int = 801) -> float:
    """Quadrature of u_l against a normalized Gaussian window at z0.

    The window is renormalized on its truncated support, so positions near
    the ends keep unit weight.  Bias relative to u_l(z0) is O(sigma^2).
    """
    half = 8.0 * sigma
    z = np.linspace(z0 - half, z0 + half, n_points)
    w = np.exp(-0.5 * ((z - z0) / sigma) ** 2)
    inside = (z >= 0.0) & (z <= modes.line.length)
    w = np.where(inside, w, 0.0)
    u = np.where(inside, modes.u(l, np.clip(z, 0.0, modes.line.length)), 0.0)
    return float(np.trapezoid(u * w, z) / np.trapezoid(w, z))


def field_mode_rates(modes: ModeSet, xsec: TEMCrossSection, cs: CouplingSpec,
                     sigma_frac: float = 1e-6) -> np.ndarray:
    """Per-mode coupling rate recovered from the field integral instead of N_V.

    The voltage amplitude is rebuilt from quadrature-evaluated mode-shape
    normalizations, the z-localization of the coupling current is a Gaussian
    of width sigma_frac * length, and the transverse voltage path is
    integrated through the uniform gap field.
    """
    _check_position(modes, cs.z0)
    if not 0.0 < sigma_frac < np.inf:
        raise ContractViolationError(f"sigma_frac must be positive and finite, got {sigma_frac}")
    length = modes.line.length
    x = np.linspace(0.0, xsec.d, 65)
    n_et_quad = xsec.w * np.trapezoid(np.full_like(x, xsec.eps_r / xsec.d**2), x)
    path = np.linspace(0.0, cs.path_gain * xsec.d, 65)
    path_int = np.trapezoid(np.full_like(path, 1.0 / xsec.d), path)
    # N_EL follows the mode set's convention; under INTEGRAL it is checked below
    n_e = np.sqrt(hbar * modes.freqs / (2.0 * epsilon_0 * n_et_quad * modes.n_el))
    z = np.linspace(0.0, length, 64 * modes.n_modes + 1)
    u_eff = np.empty(modes.n_modes)
    for l in range(modes.n_modes):
        n_el_quad = np.trapezoid(np.asarray(modes.u(l, z)) ** 2, z)
        if modes.convention is LongitudinalNorm.INTEGRAL and \
                abs(n_el_quad - modes.n_el[l]) > 1e-10 * modes.n_el[l]:
            raise NumericError("longitudinal quadrature disagrees with the stored normalization")
        u_eff[l] = _smeared_mode_value(modes, l, cs.z0, sigma_frac * length)
    return _rates(cs, n_e, u_eff, path_int)


def field_reduction_check(ts: TransmonSolution, modes: ModeSet, xsec: TEMCrossSection,
                          cs: CouplingSpec, m: int, fock_cutoffs):
    """Compare the field-integral coupling with the circuit rate.

    Returns (H_field, g_circuit, max_diff), max_diff = max|H_field - H_circuit|
    read exactly from the g-tables: the two share their diagonal, modes touch
    disjoint entries and each coupling entry is fl(g_ijl sqrt(n)).  Agreement
    to ~1e-9 relative shows the spatial integral collapses to the circuit rate.
    """
    g_circuit = coupling_table(ts, mode_rates(modes, cs), m)
    table = coupling_table(ts, field_mode_rates(modes, xsec, cs), m)
    fielded = _assemble(ts, modes, m, fock_cutoffs, table)
    max_diff = np.max([np.max(np.abs(table[:, :, l, None] * s - g_circuit[:, :, l, None] * s))
                       for l, s in enumerate(np.sqrt(np.arange(1.0, c)) for c in fielded.basis[1])])
    return fielded.matrix, g_circuit, float(max_diff)
