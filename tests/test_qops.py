import numpy as np
import pytest
from scipy.linalg import eigh, expm

from fieldcqed import (
    CapacityError,
    ContractViolationError,
    DimensionMismatchError,
    NumericError,
    Operator,
    StateVector,
    annihilation_op,
    commutator,
    evolve_step,
    expectation,
    identity_op,
    number_op,
    tensor_product,
)
from fieldcqed import qops
from fieldcqed.qops import MAX_DIM, Spectrum, _is_hermitian, spectrum
from fieldcqed.transmon import TransmonParams, sin_phi_op, solve


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((m + m.conj().T) / 2, hermitian=True)


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    return StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))


class TestOperator:
    def test_ladder_entries(self):
        a = annihilation_op(5)
        for n in range(1, 5):
            assert a.mat[n - 1, n] == np.sqrt(n)
        assert np.count_nonzero(a.mat) == 4

    def test_truncated_commutator(self):
        n_max = 7
        a = annihilation_op(n_max)
        c = commutator(a, a.dagger()).mat
        expected = np.eye(n_max)
        expected[-1, -1] = -(n_max - 1)
        assert np.allclose(c, expected, atol=1e-12, rtol=0)

    def test_number_op_matches_ada(self):
        a = annihilation_op(8)
        n = number_op(8)
        assert np.allclose(n.mat, (a.dagger() @ a).mat, atol=1e-12, rtol=0)
        assert np.array_equal(np.diag(n.mat).real, np.arange(8.0))

    def test_hermitian_flag_checked(self):
        with pytest.raises(ContractViolationError):
            Operator([[0, 1], [0, 0]], hermitian=True)

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            Operator([[np.nan, 0], [0, 0]])

    def test_nonsquare_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Operator(np.zeros((2, 3)))

    def test_arithmetic_tracks_hermiticity(self):
        h = random_hermitian(4, 1)
        assert (h + h).hermitian
        assert (2.0 * h).hermitian
        assert not (1j * h).hermitian
        assert (-h).hermitian

    def test_dagger(self):
        a = annihilation_op(4)
        assert np.allclose(a.dagger().mat, a.mat.conj().T)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            annihilation_op(3) + annihilation_op(4)


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
                Operator(bad, hermitian=True)
            else:
                with pytest.raises(ContractViolationError):
                    Operator(bad, hermitian=True)


class TestTensorProduct:
    def test_identity_factors(self):
        a = annihilation_op(3)
        t = tensor_product(identity_op(2), a)
        assert t.dim == 6
        assert np.allclose(t.mat[:3, :3], a.mat)
        assert np.allclose(t.mat[3:, 3:], a.mat)

    def test_capacity_guard(self):
        big = identity_op(70)
        with pytest.raises(CapacityError):
            tensor_product(big, big)

    def test_mixed_product_ordering(self):
        # (A x B)(C x D) = AC x BD
        rng = np.random.default_rng(3)
        a, b, c, d = (Operator(rng.normal(size=(3, 3))) for _ in range(4))
        lhs = (tensor_product(a, b) @ tensor_product(c, d)).mat
        rhs = tensor_product(a @ c, b @ d).mat
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ContractViolationError):
            StateVector(np.array([1.0, 1.0]))

    def test_from_amplitudes_normalizes(self):
        s = StateVector.from_amplitudes([3.0, 4.0])
        assert abs(s.norm() - 1.0) < 1e-15
        assert abs(s.amps[0] - 0.6) < 1e-15

    def test_basis_state(self):
        s = StateVector.basis_state(4, 2)
        assert s.amps[2] == 1.0
        assert s.labels[2] == (2,)

    def test_zero_vector_rejected(self):
        with pytest.raises(ContractViolationError):
            StateVector.from_amplitudes([0.0, 0.0])


class TestEvolveStep:
    def test_matches_expm(self):
        # independent oracle: dense matrix exponential from scipy
        dim = 60
        h = random_hermitian(dim, 7)
        psi = random_state(dim, 8)
        dt = 0.37
        ref = expm(-1j * h.mat * dt) @ psi.amps
        out = evolve_step(h, psi, dt).amps
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-9

    def test_norm_preserved(self):
        h = random_hermitian(40, 11)
        psi = random_state(40, 12)
        out = evolve_step(h, psi, 5.0)
        assert abs(out.norm() - 1.0) < 1e-12

    def test_two_half_steps(self):
        h = random_hermitian(20, 13)
        psi = random_state(20, 14)
        one = evolve_step(h, psi, 0.8).amps
        two = evolve_step(h, evolve_step(h, psi, 0.4), 0.4).amps
        assert np.linalg.norm(one - two) < 1e-9

    def test_nonhermitian_rejected(self):
        bad = Operator([[0.0, 1.0], [0.0, 0.0]])
        psi = StateVector.basis_state(2, 0)
        with pytest.raises(ContractViolationError):
            evolve_step(bad, psi, 0.1)

    def test_real_and_complex_paths_agree(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=(40, 40))
        h = Operator((a + a.T) / 2, hermitian=True)
        psi = random_state(40, 18)
        real = evolve_step(h, psi, 2.3).amps
        # the same matrix through the complex hermitian solver
        complex_path = Spectrum(*eigh(h.mat.astype(complex))).propagate(psi.amps, [2.3])[:, 0]
        complex_path /= np.linalg.norm(complex_path)
        assert np.linalg.norm(real - complex_path) < 1e-12

    def test_labels_survive(self):
        h = random_hermitian(3, 15)
        psi = StateVector.basis_state(3, 0, labels=[("g",), ("e",), ("f",)])
        out = evolve_step(h, psi, 0.2)
        assert out.labels == psi.labels


class TestExpectation:
    def test_hermitian_is_real(self):
        h = random_hermitian(30, 21)
        psi = random_state(30, 22)
        val = expectation(h, psi)
        assert abs(val.imag) < 1e-12

    def test_number_in_basis_state(self):
        n = number_op(6)
        psi = StateVector.basis_state(6, 4)
        assert expectation(n, psi) == pytest.approx(4.0, abs=1e-15)


class TestStorageDtype:
    @pytest.mark.parametrize("mat", [
        [[1, 2], [2, 1]],
        np.array([[0.5, 1.0], [1.0, -2.0]], dtype=np.float32),
        np.diag([1.0, 2.0, 3.0]),
        np.array([[1.0, 2.0], [2.0, 0.0]], dtype=complex),
    ], ids=["int", "float32", "float64", "complex-zero-imag"])
    def test_real_input_stored_as_float64(self, mat):
        op = Operator(mat, hermitian=True)
        assert op.mat.dtype == np.float64
        assert np.array_equal(op.mat, np.asarray(mat, dtype=complex).real)

    def test_complex_input_stays_complex(self):
        assert sin_phi_op(4).mat.dtype == np.complex128
        assert random_hermitian(9, 41).mat.dtype == np.complex128

    def test_arithmetic_keeps_real_operators_real(self):
        n = number_op(4)
        assert (2.5 * n).mat.dtype == np.float64 and (2.5 * n).hermitian
        assert (n - identity_op(4)).mat.dtype == np.float64
        assert tensor_product(n, annihilation_op(3)).mat.dtype == np.float64
        imag = 1j * n
        assert imag.mat.dtype == np.complex128 and not imag.hermitian


def test_operator_accepts_dimension_beyond_max_dim():
    # MAX_DIM guards only the products that multiply dimensions
    # (TestTensorProduct.test_capacity_guard, coupled's test_capacity_guard)
    assert Operator(np.zeros((MAX_DIM + 1, MAX_DIM + 1))).dim == MAX_DIM + 1


def test_solver_failure_is_a_numeric_error(monkeypatch):
    def failing_eigh(*args, **kwargs):
        raise np.linalg.LinAlgError("eigenvalues did not converge")
    monkeypatch.setattr(qops, "eigh", failing_eigh)
    with pytest.raises(NumericError, match="did not converge"):
        spectrum(number_op(3))


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
    dense = spectrum(Operator(np.diag(d) + np.diag(e, 1) + np.diag(e, -1), hermitian=True))
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
