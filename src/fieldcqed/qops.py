"""Dense operator and state primitives, and the spectral core that every
eigendecomposition goes through: :func:`spectrum` for dense hermitian
operators, :func:`tridiagonal_spectrum` for the charge-basis transmon, and
:func:`rank_one_coupling_spectrum` (on :func:`secular_roots`) for a small
block coupled to a diagonal one through a rank-one term (the cavity-port
bath's Hamiltonian and quadrature form), which returns the eigenvalues and
the small block's rows only.  No other module calls an eigensolver, and
every one runs in the LAPACK that NumPy links.

:meth:`Spectrum.propagate` streams the propagated states in chunks of time
columns, each one padded product, so no caller holds every sample's state at
once, and every state has the same bits at any chunking.

Under 1 and 2 OpenBLAS (0.3.31) threads, products at most
``_ONE_THREAD_ROWS`` rows high run on one thread (:func:`_matmul`) and keep
their bits; taller real ones kept them in probes, complex ones from 129 rows
did not.  Eigenpairs lost them on random matrices at most dims from 146
(``syevd``) and from 98 (``heevd``), so only operators of at most 64 rows
are thread-count independent throughout.

Three loops run in the compiled kernel library (``_kernels.c``, loaded by
``_kernels``) when it builds and passes its self-test: the phases of each
propagation chunk (:func:`_phases`), the denominators of the secular
function (:func:`_denominators`) and the stack of tridiagonal eigensolves
with their residual check (:func:`_tridiagonal_reference`).  Each gives
the bits of its NumPy reference, so the results are the same either way;
the matrix products and sums stay in NumPy and BLAS.

Internally hbar = 1: Hamiltonians are expressed in angular-frequency units
and time in the inverse units, so ``exp(-i H t)`` needs no extra constants.
Operators are stored as dense numpy: float64 when the matrix is real,
complex128 otherwise.  Products of spaces are built only by
``coupled._assemble``, which also holds the capacity limit.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import eigh

from . import _kernels
from .errors import ContractViolationError, DimensionMismatchError, NumericError

_HERM_TOL = 1e-12
_NORM_TOL = 1e-12
_HERM_TILE = 128


def _is_hermitian(m: np.ndarray) -> bool:
    """max|m - m^H| <= 1e-12 * max(1, max|m|), the one hermiticity test.

    For a finite square ``m``.  The scale is taken over row blocks of
    ``_HERM_TILE`` rows, and each square tile on or above the diagonal is
    compared with the conjugate transpose of its mirror tile, so no
    temporary is larger than a row block; |m - m^H| is ``np.abs`` of the
    difference.
    """
    t = _HERM_TILE
    scale = worst = 0.0
    for i in range(0, m.shape[0], t):
        scale = max(scale, float(np.abs(m[i:i + t]).max()))
        for j in range(i, m.shape[0], t):
            d = m[i:i + t, j:j + t] - m[j:j + t, i:i + t].conj().T
            worst = max(worst, float(np.abs(d).max()))
    return worst <= _HERM_TOL * max(1.0, scale)


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


# products whose left factor has at most this many rows run on one BLAS thread
_ONE_THREAD_ROWS = 64


def _matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``a @ x``.  A real ``a`` times a complex ``x`` runs as one real
    product on the interleaved real and imaginary parts of ``x`` instead of
    upcasting ``a`` to a complex copy.

    At most ``_ONE_THREAD_ROWS`` rows of ``a`` run on one BLAS thread: two
    threads rounded the bath's 20 cavity rows over 400 or 2000 bins otherwise."""
    if a.shape[0] > _ONE_THREAD_ROWS:
        return _product(a, x)
    with _kernels.one_blas_thread():
        return _product(a, x)


def _product(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return a @ x
    x = np.ascontiguousarray(x)
    y = a @ x.view(float).reshape(x.shape[0], -1)
    return y.view(complex).reshape(a.shape[:1] + x.shape[1:])


# elements of one block (512 kB): a row block of the secular kernels, a
# block of the leapfrog and of the spacing in dynamics, and the phases of
# one chunk of Spectrum.propagate
_BLOCK = 1 << 16
# complex time columns of one product in Spectrum.propagate: padded to a
# multiple of _COL_GROUP and at least _MIN_COLS.  OpenBLAS (0.3.31, Haswell
# kernels) rounds every column of a product of such a width alike, whatever
# the width and the thread count; in a product whose width leaves a partial
# group, the last columns round otherwise, and differently under 1 and 2
# threads.
_COL_GROUP = 4
_MIN_COLS = 16


def _chunk_width(rows: int, n: int) -> int:
    """Time columns per chunk of a propagation from ``n`` eigenvalues onto
    ``rows`` rows: about ``_BLOCK`` phases, but no fewer columns than half
    the rows.  Each product packs its rows x n factor once: at dim 1024
    over 401 samples, chunks of 64 columns made evolve's products (its
    eigensolve aside) a third slower, and chunks of 256 about a tenth."""
    width = max(_BLOCK // max(n, 1), rows // 2)
    return max(_MIN_COLS, width // _COL_GROUP * _COL_GROUP)


@dataclass(frozen=True)
class Spectrum:
    """Eigenpairs of a hermitian operator; ``vecs`` is real when it is.

    ``vecs`` holds whole eigenvectors as columns, or, from
    :func:`rank_one_coupling_spectrum`, only some of their rows.  Then
    :meth:`propagate` maps amplitudes on those rows to amplitudes on those
    rows, which is exact for a state that starts on them.
    """

    evals: np.ndarray
    vecs: np.ndarray

    def propagate(self, amps: np.ndarray, times):
        """``exp(-i H t) amps`` for every t in ``times``, streamed in chunks.

        Yields ``(cols, states)`` for consecutive slices ``cols`` of
        ``times``: the first ``cols.stop - cols.start`` columns of ``states``
        are the states at ``times[cols]``, and the rest are padding, the
        state at t = 0.  Every chunk is one product, :func:`_chunk_width`
        columns wide or, the last one, padded to a multiple of
        ``_COL_GROUP`` columns and at least ``_MIN_COLS``.  So each state
        has the same bits at any chunking (and, at most 64 rows high, under
        any BLAS thread count: see the module notes), and a caller that
        reduces each chunk before taking the next never holds more than one
        chunk of states.

        The phases ``exp(-i E t)`` of a chunk come from the compiled
        :func:`_compiled_phases` when it is trusted, else from
        :func:`_phases`, bit for bit the same; ``evals`` are float64.
        """
        # V^H amps as conj(V^T conj(amps)), so no conjugate copy of V is made
        c0 = _matmul(self.vecs.T, np.conj(amps)).conj()
        times = np.asarray(times, dtype=float)
        step = _chunk_width(*self.vecs.shape)
        for lo in range(0, times.size, step):
            t = times[lo:lo + step]
            yield slice(lo, lo + t.size), self._chunk(c0, t)

    def _chunk(self, c0: np.ndarray, t: np.ndarray) -> np.ndarray:
        """``V diag(exp(-i E t)) c0`` on ``t`` padded with zeros to a
        multiple of ``_COL_GROUP`` columns and at least ``_MIN_COLS``; the
        phases are freed on return, before the next chunk allocates its own."""
        padded = np.zeros(max(_MIN_COLS, -(-t.size // _COL_GROUP) * _COL_GROUP))
        padded[:t.size] = t
        phases = (_compiled_phases() or _phases)(self.evals, padded)
        phases *= c0[:, None]
        return _matmul(self.vecs, phases)


def _phases(evals: np.ndarray, t: np.ndarray) -> np.ndarray:
    """``exp(-i E t)`` with the eigenvalues ``evals`` along the rows and the
    times ``t`` along the columns: the reference of the compiled
    :func:`_compiled_phases`."""
    phases = np.outer(-1j * evals, t)
    return np.exp(phases, out=phases)


def _denominators(q: np.ndarray, qo: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """``1 / ((q[j] - qo[r]) - eta[r])`` with r along the rows and j along
    the columns: the reference of the compiled :func:`_compiled_denominators`."""
    inv = q - qo[:, None]
    inv -= eta[:, None]
    return np.reciprocal(inv, out=inv)


def _same_bytes(kernel, reference, cases) -> bool:
    """Whether ``kernel`` gives the dtype, shape and bytes of ``reference``
    on each argument tuple of ``cases``; floating-point warnings are silenced."""
    with np.errstate(all="ignore"):
        results = [(kernel(*args), reference(*args)) for args in cases]
    return all((got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
               for got, want in results)


@functools.cache
def _compiled_phases():
    """:func:`_phases` run by ``fieldcqed_phases`` of the kernel library
    (float64 arguments, ``evals`` and ``t`` contiguous), or None when the
    library cannot be built or loaded or the kernel differs from
    :func:`_phases` in any bit of its self-test: eigenvalues negative, zero
    of both signs, subnormal and up to 1e10, times 0 (the padding) to 1e9,
    so that |E t| reaches past glibc's large-argument reduction at 1.05e8.
    Built and checked once per process, on first use."""
    kernel = _kernels.function("fieldcqed_phases", [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p])
    if kernel is None:
        return None

    def phases(evals, t):
        out = np.empty((evals.size, t.size), dtype=complex)
        kernel(_kernels.pointer(evals), evals.size, _kernels.pointer(t), t.size, out.ctypes.data)
        return out

    evals = np.concatenate([[-7.7e9, -3.5, -0.0, 0.0, 5e-324, -1e-310, 2.2250738585072014e-308],
                            np.sqrt(np.arange(1.0, 10.0)) * 1.37e3 - 2.1e3, [1.3e8, 1e10]])
    times = np.concatenate([[0.0, 0.0, 5e-324, 1e-3], np.linspace(0.1, 40.0, 13), [1.7e5, 1e9]])
    cases = [(evals, times), (evals[:0], times), (evals, times[:0])]
    return phases if _same_bytes(phases, _phases, cases) else None


@functools.cache
def _compiled_denominators():
    """:func:`_denominators` run by ``fieldcqed_denominators`` of the kernel
    library (contiguous float64 arguments), or None when the library cannot
    be built or loaded or the kernel differs from :func:`_denominators` in
    any bit of its self-test: rounded differences of both signs, zero
    denominators (+inf and -inf), an overflowing difference and NaN.  Built
    and checked once per process, on first use."""
    kernel = _kernels.function("fieldcqed_denominators", [
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long,
        ctypes.c_void_p])
    if kernel is None:
        return None

    def denominators(q, qo, eta):
        if qo.shape != eta.shape:
            raise DimensionMismatchError("the origin poles and the offsets differ in length")
        out = np.empty((eta.size, q.size))
        kernel(_kernels.pointer(q), q.size, _kernels.pointer(qo), _kernels.pointer(eta), eta.size,
               out.ctypes.data)
        return out

    q = np.concatenate([[-1.7e308, -0.0], np.sqrt(np.arange(1.0, 30.0)) * 3.7 - 9.0, [1.7e308]])
    qo = np.concatenate([q[[1, 5, 9, 17, 31]], [0.0, np.nan]])
    eta = np.array([0.0, -0.0, 1e-3 / 3, -2.5e-17, 0.37, 0.0, 1.0])
    cases = [(q, qo, eta), (q[:0], qo, eta), (q, qo[:0], eta[:0])]
    return denominators if _same_bytes(denominators, _denominators, cases) else None


def spectrum(h: Operator) -> Spectrum:
    """Eigendecomposition of the hermitian operator ``h``.

    Every dense eigendecomposition in the package goes through here, and
    :meth:`Spectrum.propagate` is the one propagator: ``dynamics.evolve``
    uses it on this spectrum, ``bath.decay_simulation`` on the cavity rows
    from :func:`rank_one_coupling_spectrum` (the transmon's ``solve`` and
    ``level_sweep`` take :func:`tridiagonal_spectrum`).  ``h`` is hermitian
    by construction of :class:`Operator`.  NumPy's ``eigh`` runs LAPACK's
    divide-and-conquer solver, ``syevd`` for a real operator (every charge,
    coupled and bath Hamiltonian this package builds) and ``heevd`` for a
    complex one.  ``vecs`` is made Fortran-ordered, as LAPACK returns it:
    the products of :meth:`Spectrum.propagate` round by the layout of their
    factors.  A LAPACK failure is raised as NumericError.
    """
    try:
        evals, vecs = eigh(h.mat)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition of dimension {h.dim} failed: {exc}") from exc
    return Spectrum(evals, np.asfortranarray(vecs))


_EPS = np.finfo(float).eps
_MAX_SECULAR_ITERATIONS = 64


def _row_blocks(n_rows: int, n_cols: int):
    step = max(1, _BLOCK // max(n_cols, 1))
    return (slice(i, min(i + step, n_rows)) for i in range(0, n_rows, step))


def _secular_terms(q, w, g0, g1, origin, eta, left):
    """f, its rounding scale, and the derivatives of its two pole halves at
    the points ``q[origin] + eta``; the left half holds the poles up to
    index ``left`` (ascending along the rows).  Evaluated in row blocks,
    so no n x m array is built; the sums over each half are matrix-vector
    products, with a per-row mask only on the columns where the rows of a
    block disagree about which half a pole belongs to."""
    out = np.empty((4, eta.size))
    for rows in _row_blocks(eta.size, q.size):
        lft = left[rows]
        cut, end = lft[0] + 1, lft[-1] + 1
        on_left = np.arange(cut, end) <= lft[:, None]
        inv = (_compiled_denominators() or _denominators)(q, q[origin[rows]], eta[rows])

        def halves(x):  # sums of w*x over the left and the right half
            mixed = x[:, cut:end] * w[cut:end]
            return (x[:, :cut] @ w[:cut] + np.where(on_left, mixed, 0.0).sum(axis=1),
                    x[:, end:] @ w[end:] + np.where(on_left, 0.0, mixed).sum(axis=1))

        psi, phi = halves(inv)
        inv *= inv
        dpsi, dphi = halves(inv)
        slope_part = g1 * (q[origin[rows]] + eta[rows])
        out[:, rows] = (g0 + slope_part + psi + phi, abs(g0) + np.abs(slope_part) + phi - psi,
                        dpsi, dphi)
    return out


class SecularRoots(NamedTuple):
    """Roots ``poles[origin] + eta`` of a secular function, the slope f'
    at each, and the largest number of evaluations any root took."""

    origin: np.ndarray
    eta: np.ndarray
    slope: np.ndarray
    iterations: int


def secular_roots(poles: np.ndarray, weights: np.ndarray, g0: float = 0.0,
                  g1: float = 0.0) -> SecularRoots:
    """Every root of the secular function
    ``f(mu) = g0 + g1*mu + sum_j w_j / (q_j - mu)``.

    ``poles`` q_j ascend strictly, ``weights`` w_j are positive and
    ``g1 >= 0``, so f increases strictly between poles: each of the m - 1
    gaps holds one root, the interval below q_0 one when ``g1 > 0`` or
    ``g0 < 0`` and the interval above q_{m-1} one when ``g1 > 0`` or
    ``g0 > 0``.  Roots come back ascending as ``poles[origin] + eta``:
    ``origin`` is the nearer pole, so every difference ``q_j - root`` is
    formed as ``(q_j - q_origin) - eta`` to full relative accuracy (Bunch,
    Nielsen & Sorensen 1978; Li 1994).  ``slope`` is f' at each root, the
    squared norm of the eigenvector the root belongs to.

    All roots iterate together, vectorised (:func:`_secular_step`): the
    first evaluation, at the middle of each gap, picks the origin and
    halves the bracket; every later step solves a rational model fitted
    to f and f' and falls back to bisection when the step leaves the
    bracket.  A root stops once |f| is at rounding level or its bracket
    has closed, and drops out of the later evaluations.  There must be at
    least one pole.

    Each evaluation forms the reciprocal differences ``1 / ((q_j - q_origin)
    - eta)`` of a row block in the compiled :func:`_compiled_denominators`
    when it is trusted, else in :func:`_denominators`, bit for bit the same;
    ``poles`` are copied once to a contiguous array when they are strided.
    The sums over them stay matrix-vector products in BLAS.
    """
    q = np.ascontiguousarray(poles, dtype=float)
    w = np.asarray(weights, dtype=float)
    m = q.size
    has_left, has_right = g1 > 0 or g0 < 0, g1 > 0 or g0 > 0
    left = np.arange(-1 if has_left else 0, m if has_right else m - 1)
    n = left.size
    origin = np.clip(left, 0, max(m - 1, 0))
    gap = np.diff(q)
    lo, hi, slope = np.zeros(n), np.zeros(n), np.zeros(n)
    inner = (left >= 0) & (left < m - 1)
    hi[inner] = gap[left[inner]]
    # outer roots: lumping all weight into the end pole bounds the distance
    # to it; twice that bound is a bracket that strictly holds the root
    if has_left:
        lo[0] = -2.0 * _outer_bound(g0 + g1 * q[0], g1, w.sum())
    if has_right:
        hi[-1] = 2.0 * _outer_bound(-(g0 + g1 * q[-1]), g1, w.sum())
    eta = 0.5 * (lo + hi)
    iterations = 0
    todo = np.arange(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while todo.size:
            if iterations == _MAX_SECULAR_ITERATIONS:
                raise NumericError(f"secular iteration did not converge in {iterations} steps")
            iterations += 1
            o, e, lft = origin[todo], eta[todo], left[todo]
            f, scale, dpsi, dphi = _secular_terms(q, w, g0, g1, o, e, lft)
            if not np.all(np.isfinite(f)):
                raise NumericError("secular function is not finite at an iterate")
            slope[todo] = g1 + dpsi + dphi
            above = f > 0
            hi[todo[above]], lo[todo[~above]] = e[above], e[~above]
            if iterations == 1:
                # an inner root below the midpoint lies nearer the right pole
                flip = todo[inner[todo] & ~above]
                origin[flip] += 1
                for arr in (eta, lo, hi):
                    arr[flip] -= gap[left[flip]]
                o, e = origin[todo], eta[todo]
            closed = hi[todo] - lo[todo] <= 4.0 * _EPS * np.maximum(-lo[todo], hi[todo])
            keep = (np.abs(f) > 16.0 * _EPS * scale) & ~closed
            todo, o, e, lft = todo[keep], o[keep], e[keep], lft[keep]
            if todo.size:
                eta[todo] = _secular_step(o, e, lft, f[keep], dpsi[keep], dphi[keep], g1,
                                          lo[todo], hi[todo])
    return SecularRoots(origin, eta, slope, iterations)


def _outer_bound(a, g1, total):
    """Positive root of ``g1 x^2 - a x - total = 0`` (``x = total/(-a)`` when
    g1 = 0), in the form that does not cancel."""
    root = np.sqrt(a * a + 4.0 * g1 * total)
    return (a + root) / (2.0 * g1) if a > 0 else 2.0 * total / (root - a)


def _secular_step(origin, eta, left, f, dpsi, dphi, g1, lo, hi):
    """Next iterate: the root, inside (lo, hi), of ``c + g*x - s/x`` fitted
    to f and f' at ``eta``.  The term ``-s/x`` stands for the half of the
    poles on the origin's side (one pole at the origin), and ``c + g*x``
    is the tangent of the rest, the far half and the linear term; both
    are exact where they dominate, so the step converges quadratically
    whether the root hugs the origin or sits where g1 rules.  A step that
    leaves the bracket is replaced by bisection."""
    near_left = origin == left
    d_near = np.where(near_left, dpsi, dphi)
    g = g1 + np.where(near_left, dphi, dpsi)
    s = d_near * eta * eta
    c = f - g * eta + s / eta
    # g x^2 + c x - s = 0, through the root pair that does not cancel
    half = -0.5 * (c + np.copysign(np.sqrt(c * c + 4.0 * g * s), c))
    first, second = -s / half, half / g
    inside = lambda x: (x > lo) & (x < hi)  # noqa: E731
    return np.where(inside(first), first,
                    np.where(inside(second), second, 0.5 * (lo + hi)))


def _deflate_clusters(values, coupling, vecs, tol):
    """Within every run of ascending ``values`` spaced by at most ``tol``,
    rotate ``coupling`` (in place, with the matching columns of ``vecs``
    when given) so that only the first member of the run keeps any: the
    others become uncoupled eigenvectors, at an error of at most tol."""
    starts = np.flatnonzero(np.diff(values, prepend=-np.inf) > tol)
    stops = np.append(starts[1:], values.size)
    runs = stops - starts > 1
    for start, stop in zip(starts[runs], stops[runs]):
        v = coupling[start:stop].copy()
        nrm = np.linalg.norm(v)
        if nrm == 0:
            continue
        v[0] += np.copysign(nrm, v[0])  # Householder vector taking the run onto its first member
        if vecs is not None:
            vecs[:, start:stop] -= np.outer(vecs[:, start:stop] @ v, 2.0 * v / (v @ v))
        coupling[start:stop] = 0.0
        coupling[start] = -np.copysign(nrm, v[0])


def rank_one_coupling_spectrum(c: Operator, z: np.ndarray, d: np.ndarray, b: np.ndarray,
                               sigma: float = 0.0) -> tuple:
    """Eigenvalues of ``H = [[C, z b^T], [b z^T, diag(d) + sigma b b^T]]``
    and the rows of its eigenvectors on the first block only.

    ``C`` is a small real :class:`Operator` (dimension K); the second block
    is diagonal plus a rank-one term along the same ``b`` that carries the
    coupling, so the coupling has rank one.  Eliminating ``C`` through its
    own eigenpairs (``C = Q diag(c) Q^T``, the one dense solve, of dimension
    K; ``zh = Q^T z``) leaves the secular equation ``F_b(mu) + 1/tau(mu) = 0``
    with ``F_b = sum_p b_p^2/(d_p - mu)`` and
    ``tau = sigma - sum_i zh_i^2/(c_i - mu)``.  In partial fractions
    ``1/tau = g0 + g1*mu + sum_j w_j/(r_j - mu)``: its poles r_j are the
    zeros of tau, the roots of a secular equation over the c_i (K of them
    when sigma != 0, K - 1 when sigma = 0), and ``g1 = 1/|zh|^2`` when
    sigma = 0, else 0.  Both equations go through :func:`secular_roots`.

    In the basis of the pole directions (the eigenvectors
    ``u_j = sqrt(w_j) (C - r_j)^-1 z`` of C deflated along z, and the bins)
    H is an arrowhead or a diagonal-plus-rank-one matrix, so the first-block
    row of the eigenvector of a root mu is
    ``Q (sum_j sqrt(w_j) u_j/(r_j - mu) - g1 zh) / sqrt(f'(mu))``: it needs
    the differences to the poles only, never ``mu - c_i``.  The work is
    O(m^2) for m = K + len(d), in row blocks; nothing of size m x m is built.

    Deflation, at 8 eps times the largest |c| or |d|: eigenvalues of ``C``
    or entries of ``d`` closer than that are rotated so that one vector of
    each run carries the coupling; an eigenvector of ``C`` whose coupling
    ``|zh_i| |b|`` is negligible is an eigenpair of ``H`` as it stands; a
    bin whose ``b_p`` is negligible is the eigenpair ``(d_p, e_p)`` with an
    empty first-block row; a negligible ``sigma |b|^2`` counts as zero; a
    bin that meets a zero of tau leaves one eigenvector at that point.
    ``z = 0`` is the decoupled problem.  Accuracy is that of a dense solve
    (eigenvalues to a few eps times the largest |eigenvalue|) while the
    zeros of tau stay within the scale of the spectrum; a sigma small
    against ``|zh|^2`` puts one far below it and costs the ratio.

    Returns ``(Spectrum(evals, rows), iterations)``: all K + len(d)
    eigenvalues ascending, ``rows`` of shape K x (K + len(d)) (real), and
    the largest number of secular iterations any root took.  The rows
    suffice for :meth:`Spectrum.propagate` of any state that starts in the
    first block.  Overflow in the coupling is a NumericError.
    """
    z, d, b = (np.asarray(x, dtype=float) for x in (z, d, b))
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.all(np.isfinite(z * z)) and np.isfinite(sigma * (b @ b))
    if not finite:
        raise NumericError("rank-one coupling overflows")
    cav = spectrum(c)
    c_vals, c_vecs = cav.evals, cav.vecs.copy()
    zh = c_vecs.T @ z
    by_d = np.argsort(d, kind="stable")
    d, b = d[by_d], b[by_d].copy()
    tol = 8.0 * _EPS * max(np.abs(c_vals).max(), np.abs(d).max(initial=0.0))
    _deflate_clusters(c_vals, zh, c_vecs, tol)
    _deflate_clusters(d, b, None, tol)
    b_norm = np.linalg.norm(b)
    sigma = float(sigma) if abs(sigma) * b_norm**2 > tol else 0.0
    on_c = np.abs(zh) * b_norm > tol
    on_p = np.abs(b) * (np.linalg.norm(zh[on_c]) + abs(sigma) * b_norm) > tol
    if not on_p.any() or not (on_c.any() or sigma):
        on_c[:], on_p[:] = False, False
    evals, rows, iterations = np.zeros(0), np.zeros((c.dim, 0)), 0
    if on_p.any():
        evals, rows, iterations = _coupled_roots(c_vals[on_c], zh[on_c], c_vecs[:, on_c],
                                                 d[on_p], b[on_p], sigma, tol)
    evals = np.concatenate([evals, c_vals[~on_c], d[~on_p]])
    rows = np.hstack([rows, c_vecs[:, ~on_c], np.zeros((c.dim, np.count_nonzero(~on_p)))])
    by_value = np.argsort(evals, kind="stable")
    return Spectrum(evals[by_value], rows[:, by_value]), iterations


def _coupled_roots(c, z, vecs, d, b, sigma, tol):
    """Eigenvalues, first-block rows and the largest iteration count of the
    coupled eigenpairs of ``rank_one_coupling_spectrum``."""
    z2 = z * z
    if c.size:
        tau = secular_roots(c, z2, g0=-sigma)  # the zeros r_j of tau
        r = c[tau.origin] + tau.eta
        w = 1.0 / tau.slope
        # columns sqrt(w_j) u_j = w_j zh/(c - r_j) in the eigenbasis of C
        g = w * z[:, None] / ((c[:, None] - c[tau.origin]) - tau.eta)
    else:
        tau = SecularRoots(np.zeros(0, dtype=int), np.zeros(0), np.zeros(0), 0)
        r, w, g = np.zeros(0), np.zeros(0), np.zeros((0, 0))
    if sigma:
        g0, g1 = 1.0 / sigma, 0.0
    else:
        s0 = z2.sum()
        g0, g1 = -(z2 @ c) / s0**2, 1.0 / s0
    # a bin within tol of a zero of tau: the two pole directions share one
    # eigenvector at that point and pass on one pole of their joint weight
    above = np.searchsorted(d, r).clip(0, d.size - 1)
    below = (above - 1).clip(0)
    port_at = np.where(np.abs(d[above] - r) < np.abs(d[below] - r), above, below)
    hit = np.flatnonzero(np.abs(d[port_at] - r) <= tol)
    hit = hit[np.unique(port_at[hit], return_index=True)[1]]
    keep_port = np.ones(d.size, dtype=bool)
    keep_port[port_at[hit]] = False
    bp = b[port_at[hit]]
    shared_rows = vecs @ (-bp / np.sqrt(w[hit] * (w[hit] + bp * bp)) * g[:, hit])
    w = w.copy()
    w[hit] += bp * bp
    poles = np.concatenate([d[keep_port], r])
    by_pole = np.argsort(poles, kind="stable")
    poles = poles[by_pole]
    weights = np.concatenate([b[keep_port] ** 2, w])[by_pole]
    at_tau = np.argsort(by_pole)[keep_port.sum():]  # position of r_j among the poles
    roots = secular_roots(poles, weights, g0, g1)
    # 1/(r_j - mu) for every root, formed from differences to the origin pole
    inv = 1.0 / ((poles[at_tau, None] - poles[roots.origin]) - roots.eta)
    cavity = g @ inv - (g1 * z)[:, None]
    return (np.concatenate([poles[roots.origin] + roots.eta, r[hit]]),
            np.hstack([vecs @ (cavity / np.sqrt(roots.slope)), shared_rows]),
            max(tau.iterations, roots.iterations))


def tridiagonal_spectrum(diag: np.ndarray, off: np.ndarray) -> Spectrum:
    """Checked eigendecompositions of a stack of real symmetric tridiagonal
    matrices: ``diag`` of shape (b, n) holds b main diagonals that share the
    first off-diagonal ``off`` (a 1-D ``diag`` is a stack of one).

    Each matrix is one call of LAPACK ``stevd``, the divide-and-conquer step
    that the dense solver of :func:`spectrum` runs after reducing a matrix
    to tridiagonal form; on a matrix that is tridiagonal already the
    reduction is the identity, so both return the same eigenpairs.  The
    ``evals`` have shape (b, n) and the ``vecs`` shape (b, n, n), and each
    ``vecs[k]`` is Fortran-ordered, as LAPACK returns it, so its columns are
    contiguous.

    Every eigenpair must satisfy ||H v - w v|| <= 1e-10 max(||H||, 1), with
    ||H|| the largest |w| of its matrix; H v is the tridiagonal product,
    O(n) per vector.  The stack runs in the compiled
    :func:`_compiled_tridiagonal` when it is trusted, else in
    :func:`_tridiagonal_reference`; both give the same bits.  The bands are
    checked finite once per call.  Non-finite bands, LAPACK failures and
    residuals past the bound are raised as NumericError on either path.
    """
    d, e = _bands(diag, off)
    vecs = np.empty(d.shape + d.shape[-1:]).transpose(0, 2, 1)
    return Spectrum(_tridiagonal(d, e, vecs), vecs)


def tridiagonal_levels(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The ``evals`` of :func:`tridiagonal_spectrum`, bit for bit, checked
    the same way, without keeping the eigenvectors: the compiled kernel
    reuses one n x n block, the reference one block of ``_STACK_ROWS``
    matrices."""
    d, e = _bands(diag, off)
    return _tridiagonal(d, e, None)


def _bands(diag, off) -> tuple:
    """``diag`` as a new (b, n) float64 array and ``off`` as a contiguous
    float64 array; NumericError unless both are finite."""
    d = np.array(diag, dtype=float, ndmin=2)
    d = d.reshape(-1, d.shape[-1])
    e = np.ascontiguousarray(off, dtype=float)
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise NumericError("tridiagonal matrix contains non-finite entries")
    if e.shape != (max(d.shape[1] - 1, 0),):
        raise DimensionMismatchError(f"{d.shape[1]} diagonal entries need {d.shape[1] - 1} "
                                     f"off-diagonal ones, got shape {e.shape}")
    return d, e


def _tridiagonal(d: np.ndarray, e: np.ndarray, vecs) -> np.ndarray:
    """The eigenvalues of the stack ``d`` over ``e``, in place of ``d``, and
    the eigenvectors into ``vecs`` when it is not None: on the compiled
    kernel when it is trusted, else on its reference, either way with the
    BLAS on one thread (see ``_kernels.one_blas_thread``).  Both paths make
    one small LAPACK call per matrix and give the same bits on any number
    of threads."""
    with _kernels.one_blas_thread():
        return (_compiled_tridiagonal() or _tridiagonal_reference)(d, e, vecs)


_STACK_ROWS = 16  # matrices per dense stack of _tridiagonal_reference


def _tridiagonal_reference(d: np.ndarray, e: np.ndarray, vecs) -> np.ndarray:
    """The reference of the compiled :func:`_compiled_tridiagonal`: dense
    ``eigh`` of ``_STACK_ROWS`` matrices at a time, built from the bands,
    then the residual check over that stack."""
    n = d.shape[1]
    on, up = np.arange(n), np.arange(n - 1)
    for lo in range(0, d.shape[0], _STACK_ROWS):
        rows = slice(lo, lo + _STACK_ROWS)
        h = np.zeros(d[rows].shape + (n,))
        h[:, on, on] = d[rows]
        h[:, up, up + 1] = h[:, up + 1, up] = e
        try:
            w, v = eigh(h)
        except np.linalg.LinAlgError as exc:
            raise NumericError(f"eigendecomposition of dimension {n} failed: {exc}") from exc
        hv = d[rows, :, None] * v
        hv[:, :-1] += e[:, None] * v[:, 1:]
        hv[:, 1:] += e[:, None] * v[:, :-1]
        hv -= v * w[:, None, :]
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the check below
            resid = np.linalg.norm(hv, axis=1)
        bound = 1e-10 * np.maximum(np.abs(w).max(axis=1, initial=0.0), 1.0)[:, None]
        if not np.all(resid <= bound):
            raise NumericError(f"eigenpair residual {resid.max():.3e} exceeds 1e-10 * ||H||")
        d[rows] = w
        if vecs is not None:
            vecs[rows] = v
    return d


def _tridiagonal_kernel(stevd: int):
    """:func:`_tridiagonal_reference` run by ``fieldcqed_tridiagonal`` of the
    kernel library on the LAPACK routine at the address ``stevd``, or None
    when the library cannot be built or loaded."""
    kernel = _kernels.function("fieldcqed_tridiagonal", [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_void_p, ctypes.c_long, ctypes.c_long,
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p], ctypes.c_long)
    if kernel is None:
        return None

    def tridiagonal(d, e, vecs):
        n = d.shape[1]
        block = np.empty((n, n)) if vecs is None else vecs  # one reused block, or one per row
        report = np.zeros(2)
        failed = kernel(stevd, _kernels.pointer(d, writeable=True), _kernels.pointer(e), n,
                        d.shape[0], block.ctypes.data, 0 if vecs is None else n * n,
                        report.ctypes.data)
        if failed == -2:
            raise MemoryError(f"no workspace for the tridiagonal solver of dimension {n}")
        if failed >= 0 and report[0]:
            raise NumericError(f"eigendecomposition of dimension {n} failed: "
                               f"stevd did not converge (info {report[0]:.0f})")
        if failed >= 0:
            raise NumericError(f"eigenpair residual {report[1]:.3e} exceeds 1e-10 * ||H||")
        return d

    return tridiagonal


@functools.cache
def _compiled_tridiagonal():
    """:func:`_tridiagonal_kernel` on NumPy's own LAPACK ``dstevd``, or None
    when NumPy exports no such routine, the library cannot be built or
    loaded, or the kernel differs from :func:`_tridiagonal_reference` in any
    bit of its self-test, with and without eigenvectors, or raises where the
    reference does not: matrices of order 1, random bands, and charge-basis
    bands of order 3 and 41 with E_J of 0 (diagonal, with degenerate pairs),
    1, -1 and 1e6; the order-41 ones go through the divide-and-conquer
    merges.  Built and checked once per process, on first use."""
    stevd = _kernels.lapack("dstevd")
    kernel = None if stevd is None else _tridiagonal_kernel(stevd)
    if kernel is None:
        return None
    rng = np.random.default_rng(5)
    charges, ngs = np.arange(-20.0, 21.0), np.array([[0.0], [0.37], [0.5]])
    cases = [(np.array([[0.3], [-2.0]]), np.zeros(0)),
             (rng.normal(size=(3, 9)), rng.normal(size=8)),
             (4.0 * (charges[19:22] - ngs) ** 2, np.full(2, 0.5)),
             (4.0 * (charges - ngs[::2]) ** 2, np.zeros(40)),
             (4.0 * (charges[None] - 0.37) ** 2, np.full(40, -0.5)),
             (4.0 * charges[None] ** 2, np.full(40, 5e5))]

    def same(d, e):
        spectra = []
        for solve in (kernel, _tridiagonal_reference):
            vecs = np.empty(d.shape + d.shape[-1:]).transpose(0, 2, 1)
            try:
                spectra.append((solve(d.copy(), e, vecs).tobytes(), vecs.tobytes(),
                                solve(d.copy(), e, None).tobytes()))
            except NumericError as err:
                spectra.append(str(err))
        return spectra[0] == spectra[1]

    return kernel if all(same(d, e) for d, e in cases) else None


def expectation(mat: np.ndarray):
    """The function that gives Re <s_t| mat |s_t> for every column s_t of a
    complex ``states`` array.

    One matrix product (a real one when ``mat`` is real) plus a column dot
    product on the real and imaginary parts, so no conjugate copy of
    ``states`` is made.  For a hermitian ``mat`` the dropped imaginary part
    is rounding.  A real ``mat`` with no nonzero off its diagonal scales the
    rows of ``states`` instead of the product: each entry of the product is
    then one rounded product plus exact zeros, so both give the same bits.
    Which of the two applies is decided here, once for every ``states``.
    """
    d = np.diagonal(mat)
    if not np.iscomplexobj(mat) and np.count_nonzero(mat) == np.count_nonzero(d):
        apply = functools.partial(np.multiply, d[:, None])
    else:
        apply = functools.partial(_matmul, mat)

    def series(states: np.ndarray) -> np.ndarray:
        y = apply(states)
        s = np.ascontiguousarray(states)
        return np.einsum("it,it->t", s.view(float), y.view(float)).reshape(-1, 2).sum(axis=1)

    return series
