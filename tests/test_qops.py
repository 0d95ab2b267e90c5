import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import eigh, expm

from fieldcqed import (
    MAX_DIM,
    ContractViolationError,
    DimensionMismatchError,
    NumericError,
    Operator,
    StateVector,
    annihilation_op,
)
from fieldcqed import qops
from fieldcqed.qops import Spectrum, _is_hermitian, expectation, spectrum
from fieldcqed.transmon import TransmonParams, level_sweep, sin_phi_op, solve


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((m + m.conj().T) / 2)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    return StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))


def first_state(spec, amps, t):
    """exp(-i H t) amps: the first column of the one chunk propagate yields."""
    (cols, states), = spec.propagate(amps, [t])
    assert cols == slice(0, 1)
    return states[:, 0]


class TestOperator:
    def test_ladder_entries(self):
        # the ladder is not hermitian, so it is a plain array, not an Operator
        a = annihilation_op(5)
        assert type(a) is np.ndarray
        for n in range(1, 5):
            assert a[n - 1, n] == np.sqrt(n)
        assert np.count_nonzero(a) == 4

    def test_truncated_commutator(self):
        n_max = 7
        a = annihilation_op(n_max)
        c = a @ a.T - a.T @ a
        expected = np.eye(n_max)
        expected[-1, -1] = -(n_max - 1)
        assert np.allclose(c, expected, atol=1e-12, rtol=0)

    def test_number_op_matches_ada(self):
        a = annihilation_op(8)
        assert np.allclose(a.T @ a, np.diag(np.arange(8.0)), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("mat", [
        [[0, 1], [0, 0]],
        [[1.0, 2.0], [2.5, 1.0]],
        [[0.0, 1j], [1j, 0.0]],
        [[1j, 0.0], [0.0, 1.0]],
    ], ids=["real-triangular", "real-asymmetric", "complex-symmetric", "complex-diagonal"])
    def test_nonhermitian_rejected(self, mat):
        with pytest.raises(ContractViolationError, match="not hermitian"):
            Operator(mat)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            Operator([[np.nan, 0], [0, 0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Operator(np.zeros((2, 3)))

class TestHermiticityCheck:
    """The one hermiticity test against the np.allclose form it replaced."""

    @staticmethod
    def old_test(m):
        scale = max(1.0, float(np.abs(m).max()))
        return np.allclose(m, m.conj().T, atol=1e-12 * scale, rtol=0.0)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("amplitude", [0.3, 1e3])
    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_threshold_matches_allclose(self, complex_entries, amplitude, unit):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(12, 12))
        if complex_entries:
            m = m + 1j * rng.normal(size=(12, 12))
        m = amplitude * (m + m.conj().T) / 2
        scale = max(1.0, float(np.abs(m).max()))
        for defect, accepted in ((0.5e-12, True), (2e-12, False)):
            bad = np.array(m, dtype=complex)
            bad[2, 7] += unit * defect * scale
            assert _is_hermitian(bad) is accepted
            assert self.old_test(bad) == accepted
            if accepted:
                Operator(bad)
            else:
                with pytest.raises(ContractViolationError):
                    Operator(bad)

    @staticmethod
    def defect_sites(n):
        """(row, col) sites in the first diagonal tile, in an off-diagonal
        tile (when there is one) and in the last, possibly partial, tile,
        each also mirrored below the diagonal."""
        t = qops._HERM_TILE
        last = t * ((n - 1) // t)
        sites = {(min(2, n - 1), min(7, n - 1)), (n - 1, max(last, n - 2))}
        if n > t:
            sites.add((5, min(t + 2, n - 1)))
        return sorted(sites | {(c, r) for r, c in sites})

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("unit", [1.0, 1j])
    def test_tiles_match_allclose(self, n, complex_entries, unit):
        rng = np.random.default_rng(n)
        m = rng.normal(size=(n, n))
        if complex_entries:
            m = m + 1j * rng.normal(size=(n, n))
        m = (m + m.conj().T) / 2
        if n > qops._HERM_TILE:  # the largest entry lies off the diagonal tiles
            m[1, n - 1] = m[n - 1, 1] = 1e3
        scale = max(1.0, float(np.abs(m).max()))
        assert _is_hermitian(m)
        for r, c in self.defect_sites(n):
            for defect, accepted in ((0.5e-12, True), (2e-12, False)):
                bad = m.astype(np.result_type(m, unit))
                bad[r, c] += unit * defect * scale
                assert _is_hermitian(bad) == self.old_test(bad), (r, c, defect)
                if r != c:
                    assert _is_hermitian(bad) is accepted, (r, c, defect)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ContractViolationError):
            StateVector(np.array([1.0, 1.0]))

    def test_from_amplitudes_normalizes(self):
        s = StateVector.from_amplitudes([3.0, 4.0])
        assert abs(np.linalg.norm(s.amps) - 1.0) < 1e-15
        assert abs(s.amps[0] - 0.6) < 1e-15

    def test_basis_state(self):
        s = StateVector.basis_state(4, 2)
        assert s.amps[2] == 1.0

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolationError):
            StateVector.from_amplitudes([0.0, 0.0])


class TestEvolveStep:
    """One time step exp(-i h dt) psi through spectrum(h).propagate."""

    @staticmethod
    def step(h, amps, dt):
        return first_state(spectrum(h), amps, dt)

    def test_matches_expm(self):
        # independent oracle: dense matrix exponential from scipy
        dim = 60
        h = random_hermitian(dim, 7)
        psi = random_state(dim, 8)
        dt = 0.37
        ref = expm(-1j * h.mat * dt) @ psi.amps
        out = self.step(h, psi.amps, dt)
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-9

    def test_norm_preserved(self):
        h = random_hermitian(40, 11)
        psi = random_state(40, 12)
        out = self.step(h, psi.amps, 5.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_two_half_steps(self):
        h = random_hermitian(20, 13)
        psi = random_state(20, 14)
        one = self.step(h, psi.amps, 0.8)
        two = self.step(h, self.step(h, psi.amps, 0.4), 0.4)
        assert np.linalg.norm(one - two) < 1e-9

    def test_nonhermitian_rejected(self):
        # spectrum takes an Operator, and no Operator is non-hermitian
        with pytest.raises(ContractViolationError):
            spectrum(Operator(annihilation_op(3)))

    def test_real_and_complex_paths_agree(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(40, 40))
        h = Operator((a + a.T) / 2)
        psi = random_state(40, 18)
        real = self.step(h, psi.amps, 2.3)
        # the same matrix through the complex hermitian solver
        complex_path = first_state(Spectrum(*eigh(h.mat.astype(complex))), psi.amps, 2.3)
        assert np.linalg.norm(real - complex_path) < 1e-12


class TestExpectation:
    """expectation against the direct <psi|op|psi>."""

    def test_hermitian_is_real(self):
        h = random_hermitian(30, 21)
        psi = random_state(30, 22)
        direct = np.vdot(psi.amps, h.mat @ psi.amps)
        assert abs(direct.imag) < 1e-12
        series = expectation(h.mat)(psi.amps[:, None])
        assert series.shape == (1,)
        assert series[0] == pytest.approx(direct.real, rel=1e-12)

    def test_number_in_basis_state(self):
        n = np.diag(np.arange(6.0))
        psi = StateVector.basis_state(6, 4)
        assert expectation(n)(psi.amps[:, None])[0] == pytest.approx(4.0, abs=1e-15)


def _product_series(mat, states):
    """expectation through the matrix product, for any ``mat``."""
    y = qops._matmul(mat, states)
    s = np.ascontiguousarray(states)
    return np.einsum("it,it->t", s.view(float), y.view(float)).reshape(-1, 2).sum(axis=1)


_entries = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))


@st.composite
def _diagonal_and_states(draw):
    dim = draw(st.integers(1, 12))
    diag = draw(arrays(float, dim, elements=_entries))
    n_t = draw(st.integers(1, 5))
    parts = [draw(arrays(float, (dim, n_t), elements=_entries)) for _ in range(2)]
    return diag, parts[0] + 1j * parts[1]


class TestDiagonalExpectation:
    """The elementwise path of expectation against the product."""

    @given(case=_diagonal_and_states())
    def test_matches_the_product_bit_for_bit(self, case):
        diag, states = case
        mat = np.diag(diag)
        got = expectation(mat)(states)
        want = _product_series(mat, states)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))

    @pytest.mark.parametrize("off_diagonal, products", [(0.0, 0), (0.25, 1)])
    def test_one_off_diagonal_nonzero_takes_the_product(self, monkeypatch, off_diagonal, products):
        mat = np.diag([-2.0, 0.0, 3.0])
        mat[0, 2] = off_diagonal
        states = random_state(3, 5).amps[:, None]
        want = _product_series(mat, states)
        product, calls = qops._matmul, []
        monkeypatch.setattr(qops, "_matmul", lambda a, x: calls.append(1) or product(a, x))
        assert np.array_equal(expectation(mat)(states), want)
        assert len(calls) == products


class TestStorageDtype:
    @pytest.mark.parametrize("mat", [
        [[1, 2], [2, 1]],
        np.array([[0.5, 1.0], [1.0, -2.0]], dtype=np.float32),
        np.diag([1.0, 2.0, 3.0]),
        np.array([[1.0, 2.0], [2.0, 0.0]], dtype=complex),
    ], ids=["int", "float32", "float64", "complex-zero-imag"])
    def test_real_input_stored_as_float64(self, mat):
        op = Operator(mat)
        assert op.mat.dtype == np.float64
        assert np.array_equal(op.mat, np.asarray(mat, dtype=complex).real)

    def test_complex_input_stays_complex(self):
        assert sin_phi_op(4).mat.dtype == np.complex128
        assert random_hermitian(9, 41).mat.dtype == np.complex128

def test_operator_accepts_dimension_beyond_max_dim():
    # MAX_DIM guards only the coupled builders' product basis
    # (test_coupled's test_capacity_guard)
    assert Operator(np.zeros((MAX_DIM + 1, MAX_DIM + 1))).dim == MAX_DIM + 1


def test_solver_failure_is_a_numeric_error(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(qops, "eigh", failing_eigh)
    with pytest.raises(NumericError, match="did not converge"):
        spectrum(Operator(np.diag([0.0, 1.0, 2.0])))


def test_tridiagonal_solver_failure_is_a_numeric_error(fake_stevd, monkeypatch):
    """LAPACK's report that stevd did not converge, on the compiled path,
    and eigh's LinAlgError, on the reference path, reach every caller as a
    NumericError."""
    def each_caller_fails(message):
        for call in (lambda: qops.tridiagonal_spectrum(np.arange(3.0), np.ones(2)),
                     lambda: qops.tridiagonal_spectrum(np.arange(6.0).reshape(2, 3), np.ones(2)),
                     lambda: qops.tridiagonal_levels(np.arange(6.0).reshape(2, 3), np.ones(2)),
                     lambda: solve(TransmonParams(1.0, 5.0)),
                     lambda: level_sweep(TransmonParams(1.0, 5.0), np.linspace(0.0, 1.0, 40))):
            with pytest.raises(NumericError, match=message):
                call()

    def failing_stevd(real, *args):
        real(*args)
        args[10][0] = 3  # info: LAPACK's report that stevd did not converge

    fake_stevd(failing_stevd)
    each_caller_fails(r"stevd did not converge \(info 3\)")

    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(qops, "_compiled_tridiagonal", lambda: None)
    monkeypatch.setattr(qops, "eigh", failing_eigh)
    each_caller_fails("did not converge")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_stacked_tridiagonal_rejects_nonfinite_bands(bad):
    d = np.zeros((3, 4))
    d[1, 2] = bad
    with pytest.raises(NumericError, match="non-finite"):
        qops.tridiagonal_spectrum(d, np.ones(3))
    with pytest.raises(NumericError, match="non-finite"):
        qops.tridiagonal_spectrum(np.zeros((3, 4)), np.array([1.0, bad, 1.0]))


def test_stacked_tridiagonal_matches_one_matrix_at_a_time(tridiagonal_paths):
    """Each row of a stack gives the eigenpairs of its matrix alone, bit
    for bit, with every eigenvector block Fortran-ordered as stevd returns
    it, on the compiled kernel and on its reference."""
    rng = np.random.default_rng(11)
    d, e = rng.normal(size=(5, 9)), rng.normal(size=8)
    for _ in tridiagonal_paths():
        stack = qops.tridiagonal_spectrum(d, e)
        assert stack.evals.shape == (5, 9) and stack.vecs.shape == (5, 9, 9)
        assert np.array_equal(qops.tridiagonal_levels(d, e), stack.evals)
        for k in range(5):
            one = qops.tridiagonal_spectrum(d[k], e)
            assert one.evals.shape == (1, 9) and one.vecs.shape == (1, 9, 9)
            w, v = scipy.linalg.eigh_tridiagonal(d[k], e)
            assert np.array_equal(stack.evals[k], w) and np.array_equal(one.evals[0], w)
            assert np.array_equal(stack.vecs[k], v) and np.array_equal(one.vecs[0], v)
            assert stack.vecs[k].flags.f_contiguous and one.vecs[0].flags.f_contiguous
        single = qops.tridiagonal_spectrum(np.array([[2.0], [-1.0]]), np.zeros(0))
        assert np.array_equal(single.evals, [[2.0], [-1.0]])
        assert np.array_equal(single.vecs, np.ones((2, 1, 1)))


def test_tridiagonal_bands_must_fit():
    with pytest.raises(DimensionMismatchError, match="need 3 off-diagonal"):
        qops.tridiagonal_spectrum(np.zeros((2, 4)), np.ones(4))


def test_tridiagonal_matches_dense_evd(tridiagonal_paths):
    """On a tridiagonal matrix the dense evd solver's reduction is the
    identity, so it and stevd return the same eigenpairs bit for bit."""
    rng = np.random.default_rng(7)
    d, e = rng.normal(size=30), rng.normal(size=29)
    dense = spectrum(Operator(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    assert dense.vecs.flags.f_contiguous
    for _ in tridiagonal_paths():
        tri = qops.tridiagonal_spectrum(d, e)
        assert np.array_equal(tri.evals[0], dense.evals)
        assert np.array_equal(tri.vecs[0], dense.vecs)


def test_dense_spectrum_matches_scipy_evd_bit_for_bit():
    """NumPy's eigh runs the same LAPACK syevd as SciPy's evd driver, and
    ``spectrum`` lays the eigenvectors out as SciPy returns them."""
    rng = np.random.default_rng(3)
    for dim in (1, 12, 20, 41, 130):
        m = rng.normal(size=(dim, dim))
        got = spectrum(Operator(m + m.T))
        w, v = eigh(m + m.T, driver="evd")
        assert got.evals.tobytes() == w.tobytes() and got.vecs.tobytes() == v.tobytes()
        assert got.vecs.flags.f_contiguous


def test_only_qops_binds_numpy_eigh():
    """Every eigendecomposition goes through qops.spectrum or
    qops.tridiagonal_spectrum: only qops binds NumPy's eigh and looks up a
    LAPACK routine."""
    import importlib
    import pkgutil

    import fieldcqed

    modules = {info.name: importlib.import_module(f"fieldcqed.{info.name}")
               for info in pkgutil.iter_modules(fieldcqed.__path__)}
    binders = [name for name, module in modules.items()
               if any(v is np.linalg.eigh for v in vars(module).values())]
    assert binders == ["qops"]
    assert not any(v is np.linalg.eigh for v in vars(fieldcqed).values())
    lookups = [name for name in modules if name != "_kernels"
               and "_kernels.lapack(" in Path(modules[name].__file__).read_text()]
    assert lookups == ["qops"]


EIGENSOLVER_NAMES = {"eig", "eigh", "eigvals", "eigvalsh", "eig_banded", "eigvals_banded",
                     "eigh_tridiagonal", "eigvalsh_tridiagonal"}


def _dotted(node):
    """``a.b.c`` for a Name or an Attribute chain, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return node.attr if base is None else f"{base}.{node.attr}"
    return None


def eigensolver_references(source: str) -> list:
    """Every name, attribute chain or import in ``source`` that reaches a
    NumPy/SciPy eigensolver or ``scipy.linalg.lapack``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [_dotted(node)] if isinstance(node, (ast.Name, ast.Attribute)) else []
        found += [n for n in names if n is not None and (
            EIGENSOLVER_NAMES & set(n.split(".")) or "scipy.linalg.lapack" in n)]
    return found


def test_only_qops_references_an_eigensolver():
    """The package source names an eigensolver (or LAPACK) in qops.py only,
    so every eigendecomposition goes through the qops kernels."""
    import fieldcqed

    sources = sorted(Path(fieldcqed.__file__).parent.glob("*.py"))
    offenders = {p.name: refs for p in sources
                 if p.name != "qops.py" and (refs := eigensolver_references(p.read_text()))}
    assert offenders == {}
    assert eigensolver_references((Path(fieldcqed.__file__).parent / "qops.py").read_text())


def test_eigensolver_scan_sees_each_spelling():
    for line in ("np.linalg.eigvalsh(q)", "from numpy.linalg import eig", "la.eigh(a)",
                 "import scipy.linalg.lapack", "from scipy.linalg import lapack",
                 "scipy.linalg.lapack.dsyev(a)"):
        assert eigensolver_references(line), line
    assert not eigensolver_references("evals, eigvecs = spec.evals, solve(p).eigvecs")


def dense_coupled(c, z, d, b, sigma):
    """The matrix [[C, z b^T], [b z^T, diag(d) + sigma b b^T]], solved densely."""
    k = c.shape[0]
    h = np.zeros((k + d.size, k + d.size))
    h[:k, :k] = c
    h[k:, k:] = np.diag(d) + sigma * np.outer(b, b)
    h[:k, k:] = np.outer(z, b)
    h[k:, :k] = h[:k, k:].T
    return spectrum(Operator(h))


def propagator_rows(evals, rows, t):
    return (rows * np.exp(-1j * evals * t)) @ rows.T


def assert_matches_dense(c, z, d, b, sigma):
    spec, iterations = qops.rank_one_coupling_spectrum(Operator(c), z, d, b, sigma)
    dense = dense_coupled(c, z, d, b, sigma)
    k = c.shape[0]
    assert spec.vecs.shape == (k, k + d.size)
    assert np.max(np.abs(spec.evals - dense.evals)) <= 1e-12 * np.abs(dense.evals).max()
    for t in (0.0, 1.0, 3.0):
        assert np.max(np.abs(propagator_rows(spec.evals, spec.vecs, t)
                             - propagator_rows(dense.evals, dense.vecs[:k], t))) < 1e-12
    return spec, iterations


def coupled_block(seed, k, n_bins):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(k, k))
    return (m + m.T) + 4.0 * np.eye(k), rng.normal(size=k), \
        np.sort(rng.uniform(0.0, 10.0, n_bins)), 0.3 * rng.normal(size=n_bins)


class TestSecularRoots:
    @pytest.mark.parametrize("rho", [0.05, 2.0, -0.5])
    def test_diagonal_plus_rank_one(self, rho):
        # f = 1/rho + sum w/(q - mu) is the secular function of diag(q) + rho v v^T
        rng = np.random.default_rng(3)
        q, v = np.sort(rng.uniform(-5.0, 5.0, 60)), rng.normal(size=60)
        roots = qops.secular_roots(q, v * v, g0=1.0 / rho)
        mu = q[roots.origin] + roots.eta
        exact = np.linalg.eigvalsh(np.diag(q) + rho * np.outer(v, v))
        assert np.max(np.abs(mu - exact)) < 1e-13 * np.abs(exact).max()
        delta = (q - q[roots.origin, None]) - roots.eta[:, None]
        assert np.allclose(roots.slope, (v * v / delta**2).sum(axis=1), rtol=1e-12)

    def test_arrowhead(self):
        # f = g0 + g1 mu + sum w/(q - mu) is the secular function of the
        # arrowhead with corner -g0/g1 and arrow sqrt(w/g1)
        rng = np.random.default_rng(4)
        q, w = np.sort(rng.uniform(0.0, 8.0, 40)), rng.uniform(0.01, 1.0, 40)
        g0, g1 = -3.0, 0.7
        roots = qops.secular_roots(q, w, g0, g1)
        arrow = np.diag(np.concatenate([[-g0 / g1], q]))
        arrow[0, 1:] = arrow[1:, 0] = np.sqrt(w / g1)
        exact = np.linalg.eigvalsh(arrow)
        assert np.max(np.abs(q[roots.origin] + roots.eta - exact)) < 1e-13 * np.abs(exact).max()

    def test_roots_hugging_their_poles(self):
        # weights far below the pole spacing leave each root within
        # rounding of a pole, which only the offset eta resolves
        # (to first order eta = w, since the other poles add only ~w to f)
        q = np.arange(1.0, 9.0)
        roots = qops.secular_roots(q, np.full(8, 1e-20), g0=1.0)
        assert np.array_equal(q[roots.origin], q)
        assert np.allclose(roots.eta, 1e-20, rtol=1e-14, atol=0.0)
        assert roots.iterations <= 8


class TestRankOneCouplingSpectrum:
    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_matches_dense(self, seed, sigma):
        assert_matches_dense(*coupled_block(seed, 6, 80), sigma)

    def test_zero_bin_coupling_is_dropped(self, monkeypatch):
        c, z, d, b = coupled_block(5, 4, 30)
        b[7] = 0.0
        poles = []
        solve = qops.secular_roots
        monkeypatch.setattr(qops, "secular_roots",
                            lambda q, *a, **k: poles.append(q.copy()) or solve(q, *a, **k))
        spec, _ = assert_matches_dense(c, z, d, b, 0.4)
        assert d[7] not in poles[-1]
        column = np.flatnonzero(spec.evals == d[7])
        assert column.size == 1 and not spec.vecs[:, column].any()

    def test_uncoupled_cavity_eigenvector_is_kept(self):
        c, z, d, b = coupled_block(6, 5, 30)
        c = np.diag([1.5, 2.5, 3.5, 4.5, 5.5])
        z[2] = 0.0
        spec, _ = assert_matches_dense(c, z, d, b, 0.0)
        column = np.flatnonzero(spec.evals == 3.5)
        assert column.size == 1
        assert np.array_equal(np.abs(spec.vecs[:, column[0]]), np.eye(5)[2])

    def test_degenerate_cavity_eigenvalues(self):
        c, z, d, b = coupled_block(7, 4, 30)
        c = np.diag([2.0, 2.0, 2.0, 6.0])
        assert_matches_dense(c, z, d, b, 0.0)
        assert_matches_dense(c, z, d, b, 0.5)

    @pytest.mark.parametrize("sigma", [0.0, 0.5])
    def test_bin_on_a_zero_of_tau(self, sigma):
        c, z, d, b = coupled_block(8, 4, 30)
        c = np.diag([1.0, 3.0, 5.0, 7.0])
        tau = qops.secular_roots(np.diag(c), z * z, g0=-sigma)
        d[11] = np.diag(c)[tau.origin[1]] + tau.eta[1]
        assert_matches_dense(c, z, np.sort(d), b, sigma)

    def test_overflowing_coupling_is_a_numeric_error(self):
        c, z, d, b = coupled_block(9, 3, 20)
        with np.errstate(all="raise"):
            with pytest.raises(NumericError, match="overflows"):
                qops.rank_one_coupling_spectrum(Operator(c), 1e200 * z, d, b)
            with pytest.raises(NumericError, match="overflows"):
                qops.rank_one_coupling_spectrum(Operator(c), z, d, b, 1e308 * 1e10)
