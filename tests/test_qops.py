import numpy as np
import pytest
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
from fieldcqed.qops import Spectrum, _is_hermitian, expectation_series, spectrum
from fieldcqed.transmon import TransmonParams, sin_phi_op, solve


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((m + m.conj().T) / 2)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    return StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))


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
        return spectrum(h).propagate(amps, [dt])[:, 0]

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
        complex_path = Spectrum(*eigh(h.mat.astype(complex))).propagate(psi.amps, [2.3])[:, 0]
        assert np.linalg.norm(real - complex_path) < 1e-12


class TestExpectation:
    """expectation_series against the direct <psi|op|psi>."""

    def test_hermitian_is_real(self):
        h = random_hermitian(30, 21)
        psi = random_state(30, 22)
        direct = np.vdot(psi.amps, h.mat @ psi.amps)
        assert abs(direct.imag) < 1e-12
        series = expectation_series(h.mat, psi.amps[:, None])
        assert series.shape == (1,)
        assert series[0] == pytest.approx(direct.real, rel=1e-12)

    def test_number_in_basis_state(self):
        n = np.diag(np.arange(6.0))
        psi = StateVector.basis_state(6, 4)
        assert expectation_series(n, psi.amps[:, None])[0] == pytest.approx(4.0, abs=1e-15)


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


def test_tridiagonal_solver_failure_is_a_numeric_error(monkeypatch):
    def failing_eigh_tridiagonal(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(qops, "eigh_tridiagonal", failing_eigh_tridiagonal)
    with pytest.raises(NumericError, match="did not converge"):
        qops.tridiagonal_spectrum(np.arange(3.0), np.ones(2))
    with pytest.raises(NumericError, match="did not converge"):
        solve(TransmonParams(1.0, 5.0))


def test_tridiagonal_matches_dense_evd():
    """On a tridiagonal matrix the dense evd solver's reduction is the
    identity, so it and stevd return the same eigenpairs bit for bit."""
    rng = np.random.default_rng(7)
    d, e = rng.normal(size=30), rng.normal(size=29)
    dense = spectrum(Operator(np.diag(d) + np.diag(e, 1) + np.diag(e, -1)))
    tri = qops.tridiagonal_spectrum(d, e)
    assert np.array_equal(tri.evals, dense.evals)
    assert np.array_equal(tri.vecs, dense.vecs)


def test_only_qops_binds_scipy_eigh():
    """Every eigendecomposition goes through qops.spectrum or
    qops.tridiagonal_spectrum."""
    import importlib
    import pkgutil

    import scipy.linalg

    import fieldcqed

    for solver in (scipy.linalg.eigh, scipy.linalg.eigh_tridiagonal):
        binders = [info.name for info in pkgutil.iter_modules(fieldcqed.__path__)
                   if any(v is solver
                          for v in vars(importlib.import_module(f"fieldcqed.{info.name}")).values())]
        assert binders == ["qops"], solver.__name__
        assert not any(v is solver for v in vars(fieldcqed).values())
