"""Dense operator and state primitives, and the spectral core that every
eigendecomposition goes through: :func:`spectrum` for dense hermitian
operators and :func:`tridiagonal_spectrum` for the charge-basis transmon.

Internally hbar = 1: Hamiltonians are expressed in angular-frequency units
and time in the inverse units, so ``exp(-i H t)`` needs no extra constants.
Operators are stored as dense numpy: float64 when the matrix is real,
complex128 otherwise.  Products of spaces are built only by
``coupled._assemble``, which also holds the capacity limit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh, eigh_tridiagonal

from .errors import ContractViolationError, DimensionMismatchError, NumericError

_HERM_TOL = 1e-12
_NORM_TOL = 1e-12


def _is_hermitian(m: np.ndarray) -> bool:
    """max|m - m^H| <= 1e-12 * max(1, max|m|), the one hermiticity test.

    |m - m^H| is hypot(Re m - Re m^T, Im m + Im m^T), as ``np.abs`` computes
    it, formed from real temporaries only; the imaginary half is skipped
    when it is absent or exactly zero.
    """
    re = m.real
    d = re - re.T
    if np.iscomplexobj(m) and m.imag.any():
        scale = float(np.abs(m).max())
        np.hypot(d, m.imag + m.imag.T, out=d)
    else:
        scale = max(float(re.max()), -float(re.min()))
        np.abs(d, out=d)
    return float(d.max()) <= _HERM_TOL * max(1.0, scale)


@dataclass(frozen=True)
class Operator:
    """A dense hermitian matrix: a Hamiltonian or an observable.

    Parameters
    ----------
    mat:
        Square, finite, hermitian matrix, checked once here; :func:`spectrum`
        and the propagators built on it rely on the check.  Stored as
        float64 when its imaginary part is exactly zero (integer and real
        input included), else as complex128; the dtype is decided here once,
        so real operators stay real.  Treat ``mat`` as read-only: writing
        into it after construction voids the checked property.
    """

    mat: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.mat)
        if np.iscomplexobj(m) and not m.imag.any():
            m = np.ascontiguousarray(m.real)
        m = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise NumericError("matrix contains non-finite entries")
        if not _is_hermitian(m):
            raise ContractViolationError("operator matrix is not hermitian")
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]


@dataclass(frozen=True)
class StateVector:
    """Normalized state amplitudes.

    ``amps`` must have unit 2-norm within 1e-12; use :meth:`from_amplitudes`
    to normalize arbitrary data.
    """

    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=complex)
        if a.ndim != 1:
            raise DimensionMismatchError("state amplitudes must be one-dimensional")
        if not np.all(np.isfinite(a)):
            raise NumericError("state contains non-finite amplitudes")
        nrm = float(np.linalg.norm(a))
        if abs(nrm - 1.0) > _NORM_TOL:
            raise ContractViolationError(f"state norm {nrm} deviates from 1 by more than {_NORM_TOL}")
        object.__setattr__(self, "amps", a)

    @property
    def dim(self) -> int:
        return self.amps.size

    @classmethod
    def basis_state(cls, dim: int, index: int) -> "StateVector":
        if not 0 <= index < dim:
            raise IndexError(f"basis index {index} outside [0, {dim})")
        a = np.zeros(dim, dtype=complex)
        a[index] = 1.0
        return cls(a)

    @classmethod
    def from_amplitudes(cls, amps) -> "StateVector":
        a = np.asarray(amps, dtype=complex)
        nrm = np.linalg.norm(a)
        if nrm == 0.0:
            raise ContractViolationError("cannot normalize the zero vector")
        return cls(a / nrm)


def annihilation_op(n_max: int) -> np.ndarray:
    """Bosonic annihilation operator truncated to ``n_max`` Fock states, as
    a plain array: it is not hermitian, so it is not an :class:`Operator`.

    Entries a[n-1, n] = sqrt(n).  The truncated commutator [a, a^dag] is the
    identity except for -(n_max - 1) in the last diagonal slot.
    """
    if n_max < 1:
        raise DimensionMismatchError("n_max must be at least 1")
    return np.diag(np.sqrt(np.arange(1.0, n_max)), k=1)


def _matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x``.  A real ``a`` times a complex ``x`` runs as one real
    product on the interleaved real and imaginary parts of ``x`` instead of
    upcasting ``a`` to a complex copy."""
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return a @ x
    x = np.ascontiguousarray(x)
    return (a @ x.view(float).reshape(x.shape[0], -1)).view(complex).reshape(x.shape)


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of a hermitian operator; ``vecs`` is real when it is."""

    evals: np.ndarray
    vecs: np.ndarray

    def propagate(self, amps: np.ndarray, times) -> np.ndarray:
        """Columns ``exp(-i H t) amps`` for every t in ``times`` (dim x n_t)."""
        # V^H amps as conj(V^T conj(amps)), so no conjugate copy of V is made
        c0 = _matmul(self.vecs.T, np.conj(amps)).conj()
        phases = np.outer(-1j * self.evals, np.asarray(times, dtype=float))
        np.exp(phases, out=phases)
        phases *= c0[:, None]
        return _matmul(self.vecs, phases)


def spectrum(h: Operator) -> Spectrum:
    """Eigendecomposition of the hermitian operator ``h``.

    Every dense eigendecomposition in the package goes through here, and
    :meth:`Spectrum.propagate` is the one propagator: ``dynamics.evolve``
    and ``bath.decay_simulation`` use it (``transmon.solve`` takes
    :func:`tridiagonal_spectrum`).  ``h`` is hermitian by construction of
    :class:`Operator`.  A real operator
    (every charge, coupled and bath Hamiltonian this package builds) goes
    to the real-symmetric divide-and-conquer solver, several times faster
    than the complex one; complex operators keep the complex hermitian
    solver.  A LAPACK failure is raised as NumericError.
    """
    try:
        evals, vecs = eigh(h.mat, driver="evd" if np.isrealobj(h.mat) else None)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of dimension {h.dim} failed: {exc}") from exc
    return Spectrum(evals, vecs)


def tridiagonal_spectrum(diag: np.ndarray, off: np.ndarray) -> Spectrum:
    """Eigendecomposition of the real symmetric tridiagonal matrix with
    main diagonal ``diag`` and first off-diagonal ``off``.

    It runs LAPACK ``stevd``, the divide-and-conquer step that the dense
    ``evd`` solver of :func:`spectrum` runs after reducing a matrix to
    tridiagonal form; on a matrix that is tridiagonal already the reduction
    is the identity, so both return the same eigenpairs.  Non-finite bands
    and LAPACK failures are raised as NumericError.
    """
    d = np.asarray(diag, dtype=float)
    e = np.asarray(off, dtype=float)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise NumericError("tridiagonal matrix contains non-finite entries")
    try:
        evals, vecs = eigh_tridiagonal(d, e, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of dimension {d.size} failed: {exc}") from exc
    return Spectrum(evals, vecs)


def expectation_series(mat: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Re <s_t| mat |s_t> for every column s_t of the complex ``states``.

    One matrix product (a real one when ``mat`` is real) plus a column dot
    product on the real and imaginary parts, so no conjugate copy of
    ``states`` is made.  For a hermitian ``mat`` the dropped imaginary part
    is rounding.
    """
    y = _matmul(mat, states)
    s = np.ascontiguousarray(states)
    return np.einsum("it,it->t", s.view(float), y.view(float)).reshape(-1, 2).sum(axis=1)
