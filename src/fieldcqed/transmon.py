"""Transmon qubit in the truncated charge basis.

The Hamiltonian is 4 E_C (n - n_g)^2 - E_J cos(phi) restricted to charge
states N in [-n_cutoff, n_cutoff].  Energies are angular frequencies
(hbar = 1); with E_C, E_J given in 2*pi*GHz the levels come out in the
same units.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericError
from .qops import Operator, tridiagonal_levels, tridiagonal_spectrum


class TunnelingSign(enum.Enum):
    """Sign of the charge-basis off-diagonal +-E_J/2.

    The two choices are related by the gauge |N> -> (-1)^N |N>, so spectra
    are identical; matrix-element signs are not.  PLUS is the default.
    """

    PLUS = "plus"
    MINUS = "minus"


@dataclass(frozen=True)
class TransmonParams:
    EC: float
    EJ: float
    ng: float = 0.0
    n_cutoff: int = 20
    sign: TunnelingSign = TunnelingSign.PLUS

    def __post_init__(self):
        # Python floats, so every consumer (the leapfrog included) computes
        # in double whatever scalar type was given
        for name in ("EC", "EJ", "ng"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0 < self.EC < np.inf:
            raise ContractViolationError(f"EC must be positive and finite, got {self.EC}")
        if not 0 <= self.EJ < np.inf:
            raise ContractViolationError(f"EJ must be non-negative and finite, got {self.EJ}")
        if not np.isfinite(self.ng):
            raise ContractViolationError(f"ng must be finite, got {self.ng}")
        if self.n_cutoff < 1:
            raise ContractViolationError(f"n_cutoff must be at least 1, got {self.n_cutoff}")

    @property
    def dim(self) -> int:
        return 2 * self.n_cutoff + 1


@dataclass(frozen=True)
class TransmonSolution:
    """Sorted eigenfrequencies and real, phase-fixed charge-basis eigenvectors:
    in each eigenvector the lowest-index component within 1e-9 relative of
    the largest magnitude is real positive."""

    levels: np.ndarray
    eigvecs: np.ndarray
    params: TransmonParams

    @property
    def n_levels(self) -> int:
        return self.levels.size

    def transition(self, i: int, j: int) -> float:
        """Frequency of the i -> j transition, omega_j - omega_i."""
        return float(self.levels[j] - self.levels[i])


def charge_number_op(n_cutoff: int) -> Operator:
    """Charge operator diag(-n_cutoff, ..., +n_cutoff)."""
    return Operator(np.diag(np.arange(-n_cutoff, n_cutoff + 1, dtype=float)))


def sin_phi_op(n_cutoff: int, sign: TunnelingSign = TunnelingSign.PLUS) -> Operator:
    """sin(phi) in the charge basis.

    Chosen so that i[H, n] = -E_J sin(phi) holds as an exact matrix identity
    in the truncated basis (the charge velocity used by the semiclassical
    equations of motion).
    """
    s = 1.0 if sign is TunnelingSign.PLUS else -1.0
    S = np.eye(2 * n_cutoff + 1, k=1)  # sum_N |N><N+1|
    return Operator(s * (S - S.T) / 2j)


def _charge_bands(p: TransmonParams, ngs) -> tuple:
    """(diag, off): the charge Hamiltonian is tridiagonal, with 4 E_C (N - n_g)^2
    on the diagonal and +-E_J/2 on both first off-diagonals.  ``diag`` has
    one row per offset charge in ``ngs`` (a scalar gives a single row, 1-D);
    ``off`` does not depend on n_g."""
    n_vals = np.arange(-p.n_cutoff, p.n_cutoff + 1, dtype=float)
    off = p.EJ / 2.0 if p.sign is TunnelingSign.PLUS else -p.EJ / 2.0
    ngs = np.asarray(ngs, dtype=float)[..., None]
    return 4.0 * p.EC * (n_vals - ngs) ** 2, np.full(p.dim - 1, off)


def build_charge_hamiltonian(p: TransmonParams) -> Operator:
    """The charge Hamiltonian as a dense Operator (see ``_charge_bands``)."""
    diag, off = _charge_bands(p, p.ng)
    return Operator(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rotate each column so that its pivot is real positive.

    The pivot is the lowest-index component whose magnitude lies within
    1e-9 relative of the column's largest.  At n_g = 0 and 1/2 the largest
    magnitudes come in exact mirror pairs (N <-> -N, N <-> 1 - N), and a
    plain argmax would let rounding pick the pivot, and with it the sign.
    """
    mag = np.abs(vecs)
    k = np.argmax(mag >= (1.0 - 1e-9) * mag.max(axis=0), axis=0)
    pivot = vecs[k, np.arange(vecs.shape[1])]
    return vecs * (np.conj(pivot) / np.abs(pivot))


def level_sweep(p: TransmonParams, ngs) -> np.ndarray:
    """Sorted levels at every offset charge of the 1-D grid ``ngs`` (``p.ng``
    is ignored), one row per point: shape (len(ngs), dim).

    The same levels as ``solve`` at each point, bit for bit, without the
    eigenvectors: the whole grid is one ``qops.tridiagonal_levels`` call,
    which checks every eigenpair's residual as ``solve`` does.
    """
    return tridiagonal_levels(*_charge_bands(p, np.asarray(ngs, dtype=float)))


def solve(p: TransmonParams) -> TransmonSolution:
    """Levels and phase-fixed eigenvectors from the checked tridiagonal
    solver ``qops.tridiagonal_spectrum``, with every eigenpair's residual
    checked.  ``eigvecs`` is Fortran-ordered, as LAPACK returns it, so each
    eigenvector is a contiguous column."""
    spec = tridiagonal_spectrum(*_charge_bands(p, p.ng))
    return TransmonSolution(levels=spec.evals[0], eigvecs=_fix_phases(spec.vecs[0]), params=p)


def charge_matrix_element(s: TransmonSolution, i: int, j: int) -> float:
    """<i| n |j> under the fixed phase convention; symmetric in (i, j).

    Exactly 0.0 when n_g = 0, E_J > 0 and i + j is even (parity selection
    rule): the Hamiltonian then commutes with N -> -N, which takes n to -n.  In
    the even and odd combinations of |N> and |-N> the odd block is the even
    one without its first row and column; both are unreduced tridiagonal
    for E_J != 0, so their eigenvalues interlace strictly and level i has
    parity (-1)^i under either TunnelingSign.  The overlap computed
    otherwise would be eigenvector error, not an exact zero.
    """
    if not (0 <= i < s.n_levels and 0 <= j < s.n_levels):
        raise IndexError(f"level indices ({i}, {j}) outside [0, {s.n_levels})")
    if s.params.ng == 0.0 and s.params.EJ > 0 and (i + j) % 2 == 0:
        return 0.0
    n_diag = np.arange(-s.params.n_cutoff, s.params.n_cutoff + 1, dtype=float)
    vi = s.eigvecs[:, i]
    vj = s.eigvecs[:, j]
    mij = np.vdot(vi, n_diag * vj)
    mji = np.vdot(vj, n_diag * vi)
    val = (mij + mji) / 2.0
    if abs(val.imag) > 1e-10 * max(1.0, abs(val.real)):
        raise NumericError(f"charge matrix element has residual imaginary part {val.imag:.3e}")
    return float(val.real)


def charge_dispersion(p: TransmonParams, level: int = 0) -> float:
    """Peak-to-peak variation of omega_level as n_g sweeps [0, 1].

    Starts from a 21-point uniform grid and doubles the resolution (up to
    321 points) until the estimate moves by less than 1%.  The (2n-1)-point
    grid holds the n-point grid exactly, so each refinement solves only the
    new midpoints, in one ``level_sweep``.
    """
    if level < 0 or level >= p.dim:
        raise IndexError(f"level {level} outside [0, {p.dim})")
    vals = []

    def spread(ngs) -> float:
        vals.extend(level_sweep(p, ngs)[:, level])
        return float(max(vals) - min(vals))

    n_points = 21
    est = spread(np.linspace(0.0, 1.0, n_points))
    while n_points < 321:
        n_points = 2 * n_points - 1
        new = spread(np.linspace(0.0, 1.0, n_points)[1::2])
        done = abs(new - est) <= 0.01 * abs(new)
        est = new
        if done:
            break
    return est


def anharmonicity(s: TransmonSolution) -> float:
    """(omega_2 - omega_1) - (omega_1 - omega_0); negative in the transmon regime.

    Numerically exact degeneracies (within 1e-12 relative) count as a single
    level, so the E_J = 0 charge spectrum {0, 4EC, 4EC, 16EC, ...} yields 8EC
    rather than the multiplicity-weighted -4EC.
    """
    w = s.levels
    distinct = [float(w[0])]
    for x in w[1:]:
        if x - distinct[-1] > 1e-12 * max(abs(float(x)), 1.0):
            distinct.append(float(x))
        if len(distinct) == 3:
            break
    if len(distinct) < 3:
        raise ContractViolationError("anharmonicity needs at least 3 distinct levels")
    return (distinct[2] - distinct[1]) - (distinct[1] - distinct[0])
