import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.constants import epsilon_0, hbar

from fieldcqed import coupled
from fieldcqed.coupled import (
    TWO_E_OVER_HBAR,
    CoupledHamiltonian,
    CouplingSpec,
    _assemble,
    build_full_hamiltonian,
    build_nn_hamiltonian,
    coupling_strength,
    coupling_table,
    field_mode_rates,
    field_reduction_check,
    mode_rates,
    total_excitation_op,
)
from fieldcqed.errors import CapacityError, ContractViolationError, NumericError
from fieldcqed.transmon import TransmonParams, TunnelingSign, charge_matrix_element, solve
from fieldcqed.txline import (
    BoundaryCondition,
    LineParams,
    LongitudinalNorm,
    compute_modes,
    matched_cross_section,
    mode_operator_coeffs,
)

GHZ = 2 * np.pi * 1e9  # rad/s per GHz


def make_system(n_modes=1, f1_ghz=5.0, conv=LongitudinalNorm.FULL_LENGTH,
                ec_ghz=0.3, ej_ghz=15.0):
    """Transmon plus line with the fundamental at f1_ghz, all in rad/s."""
    ts = solve(TransmonParams(EC=ec_ghz * GHZ, EJ=ej_ghz * GHZ))
    v_p = 1.25e8
    length = v_p / (2.0 * f1_ghz * 1e9)
    line = LineParams(L_pul=4.0e-7, C_pul=1.6e-10, length=length)
    xsec = matched_cross_section(line)
    modes = mode_operator_coeffs(compute_modes(line, n_modes, conv), xsec)
    return ts, line, xsec, modes


def field_g(ts, modes, xsec, cs, i, j, l, sigma_frac=1e-6):
    """One entry g_{ij,l} of the field route's coupling table."""
    rates = field_mode_rates(modes, xsec, cs, sigma_frac=sigma_frac)
    return float(coupling_table(ts, rates, max(i, j) + 1)[i, j, l])


def _embed(factors):
    out = np.array([[1.0 + 0j]])
    for f in factors:
        out = np.kron(out, f)
    return out


def reference_hamiltonian(ts, modes, m, cutoffs, g_table):
    """Every term as a complex Kronecker chain, as the builder was first
    written: the reference for the broadcast diagonal."""
    eyes = [np.eye(c) for c in cutoffs]
    dim = m * int(np.prod(cutoffs))
    h = np.zeros((dim, dim), dtype=complex)
    h += _embed([np.diag(ts.levels[:m].astype(complex))] + eyes)
    for l, c in enumerate(cutoffs):
        n_l = np.diag(np.arange(c, dtype=float))
        h += modes.freqs[l] * _embed([np.eye(m)] + eyes[:l] + [n_l] + eyes[l + 1:])
    for l, c in enumerate(cutoffs):
        a = np.diag(np.sqrt(np.arange(1.0, c)), k=1)
        h += _embed([g_table[:, :, l]] + eyes[:l] + [a + a.T] + eyes[l + 1:])
    return h


def reference_excitation(m, cutoffs):
    eyes = [np.eye(c) for c in cutoffs]
    n = _embed([np.diag(np.arange(m, dtype=float))] + eyes)
    for l, c in enumerate(cutoffs):
        n_l = np.diag(np.arange(c, dtype=float))
        n += _embed([np.eye(m)] + eyes[:l] + [n_l] + eyes[l + 1:])
    return n


class TestCouplingStrength:
    def test_fundamental_charge_to_voltage_ratio(self):
        # 2e/hbar from CODATA values
        assert TWO_E_OVER_HBAR == pytest.approx(
            2 * 1.602176634e-19 / 1.054571817e-34, rel=1e-9)
        assert TWO_E_OVER_HBAR == pytest.approx(3.0385e15, rel=1e-4)

    def test_reference_rate_at_unit_matrix_element(self):
        ts, _, _, modes = make_system()
        cs = CouplingSpec(beta=1.0, z0=0.0)
        me = charge_matrix_element(ts, 0, 1)
        g = coupling_strength(ts, modes, cs, 0, 1, 0)
        # N_V at 5 GHz with C_r = 2 pF gives 2e N_V / hbar = 2.7654e9 rad/s
        assert g / me == pytest.approx(2.7654e9, rel=2e-4)

    def test_node_gives_exact_zero(self):
        ts, line, _, modes = make_system()
        cs = CouplingSpec(beta=1.0, z0=line.length / 2)
        assert coupling_strength(ts, modes, cs, 0, 1, 0) == 0.0

    def test_linear_in_beta(self):
        ts, _, _, modes = make_system()
        g1 = coupling_strength(ts, modes, CouplingSpec(1.0, 0.0), 0, 1, 0)
        g2 = coupling_strength(ts, modes, CouplingSpec(0.5, 0.0), 0, 1, 0)
        assert g2 == pytest.approx(g1 / 2, rel=1e-14)

    def test_include_beta_toggle(self):
        ts, _, _, modes = make_system()
        with_beta = coupling_strength(ts, modes, CouplingSpec(0.25, 0.0), 0, 1, 0)
        without = coupling_strength(
            ts, modes, CouplingSpec(0.25, 0.0, include_beta=False), 0, 1, 0)
        assert without == pytest.approx(4 * with_beta, rel=1e-14)

    def test_symmetric_in_levels(self):
        ts, _, _, modes = make_system()
        cs = CouplingSpec(beta=0.3, z0=0.0)
        assert coupling_strength(ts, modes, cs, 1, 2, 0) == coupling_strength(ts, modes, cs, 2, 1, 0)

    def test_position_validated(self):
        ts, line, _, modes = make_system()
        cs = CouplingSpec(beta=1.0, z0=2 * line.length)
        with pytest.raises(ContractViolationError):
            coupling_strength(ts, modes, cs, 0, 1, 0)

    def test_beta_range_validated(self):
        with pytest.raises(ContractViolationError):
            CouplingSpec(beta=0.0, z0=0.0)
        with pytest.raises(ContractViolationError):
            CouplingSpec(beta=1.5, z0=0.0)


class TestBuildHamiltonian:
    def test_uncoupled_spectrum_is_outer_sum(self):
        ts, line, _, modes = make_system(n_modes=2)
        cs = CouplingSpec(beta=1.0, z0=line.length / 2)  # node of mode 1
        # mode 2 has an antinode there, so force true decoupling via path_gain
        cs = CouplingSpec(beta=1.0, z0=line.length / 2, path_gain=0.0)
        built = build_full_hamiltonian(ts, modes, cs, m=3, fock_cutoffs=(3, 2))
        evals = np.linalg.eigvalsh(built.matrix.mat)
        expected = np.sort([
            ts.levels[j] + n1 * modes.freqs[0] + n2 * modes.freqs[1]
            for j in range(3) for n1 in range(3) for n2 in range(2)
        ])
        assert np.allclose(evals, expected, rtol=1e-12)

    def test_hermitian(self):
        ts, _, _, modes = make_system()
        built = build_full_hamiltonian(ts, modes, CouplingSpec(1.0, 0.0), 3, (6,))
        h = built.matrix.mat
        assert np.max(np.abs(h - h.conj().T)) < 1e-12 * np.max(np.abs(h))

    def test_dressed_state_splitting(self):
        # resonant two-level + one mode: single-excitation doublet split by 2g
        ts, _, _, _ = make_system()
        w01 = ts.transition(0, 1)
        v_p = 1.25e8
        length = np.pi * v_p / w01
        line = LineParams(4.0e-7, 1.6e-10, length)
        modes = mode_operator_coeffs(
            compute_modes(line, 1, LongitudinalNorm.FULL_LENGTH),
            matched_cross_section(line))
        g1 = coupling_strength(ts, modes, CouplingSpec(1.0, 0.0), 0, 1, 0)
        beta = 1e-3 * w01 / abs(g1)
        cs = CouplingSpec(beta=beta, z0=0.0)
        built = build_nn_hamiltonian(ts, modes, cs, 2, (6,))
        g = abs(built.g_table[0, 1, 0])
        assert g == pytest.approx(1e-3 * w01, rel=1e-12)
        evals = np.sort(np.linalg.eigvalsh(built.matrix.mat))
        split = evals[2] - evals[1]
        assert split == pytest.approx(2 * g, rel=1e-5)

    def test_nn_equals_full_for_two_levels(self):
        ts, _, _, modes = make_system()
        cs = CouplingSpec(beta=0.5, z0=0.0)
        full = build_full_hamiltonian(ts, modes, cs, 2, (4,))
        nn = build_nn_hamiltonian(ts, modes, cs, 2, (4,))
        scale = np.max(np.abs(full.matrix.mat))
        assert np.allclose(nn.matrix.mat, full.matrix.mat, atol=1e-12 * scale, rtol=0)

    def test_nn_keeps_only_neighbouring_levels(self):
        # off n_g = 0 the diagonal and |i - j| > 1 charge elements are nonzero
        ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=5.0 * GHZ, ng=0.23))
        _, line, _, modes = make_system(n_modes=2)
        cs = CouplingSpec(beta=0.5, z0=0.3 * line.length)
        full = build_full_hamiltonian(ts, modes, cs, 4, (3, 3))
        nn = build_nn_hamiltonian(ts, modes, cs, 4, (3, 3))
        neighbours = np.abs(np.subtract.outer(np.arange(4), np.arange(4))) == 1
        assert np.all(full.g_table[~neighbours] != 0.0)
        assert np.array_equal(nn.g_table, np.where(neighbours[:, :, None], full.g_table, 0.0))

    def test_nn_close_to_full_spectrum(self):
        ts, _, _, modes = make_system(ec_ghz=0.2, ej_ghz=10.0)
        cs = CouplingSpec(beta=1.0, z0=0.0)
        full = build_full_hamiltonian(ts, modes, cs, 4, (6,))
        nn = build_nn_hamiltonian(ts, modes, cs, 4, (6,))
        ef = np.sort(np.linalg.eigvalsh(full.matrix.mat))[:4]
        en = np.sort(np.linalg.eigvalsh(nn.matrix.mat))[:4]
        assert np.all(np.abs(ef - en) < 0.01 * np.abs(ef))

    def test_fock_convergence(self):
        ts, _, _, modes = make_system()
        cs = CouplingSpec(beta=0.1, z0=0.0)
        e6 = np.sort(np.linalg.eigvalsh(build_full_hamiltonian(ts, modes, cs, 3, (6,)).matrix.mat))[:4]
        e12 = np.sort(np.linalg.eigvalsh(build_full_hamiltonian(ts, modes, cs, 3, (12,)).matrix.mat))[:4]
        assert np.max(np.abs(e6 - e12) / np.abs(e12)) < 1e-8

    def test_excitation_commutator(self):
        ts, line, _, modes = make_system()
        coupled = build_full_hamiltonian(ts, modes, CouplingSpec(1.0, 0.0), 3, (4,))
        n_tot = total_excitation_op(coupled)
        comm = coupled.matrix.mat @ n_tot.mat - n_tot.mat @ coupled.matrix.mat
        assert np.max(np.abs(comm)) > 0
        uncoupled = build_full_hamiltonian(
            ts, modes, CouplingSpec(1.0, 0.0, path_gain=0.0), 3, (4,))
        comm0 = uncoupled.matrix.mat @ n_tot.mat - n_tot.mat @ uncoupled.matrix.mat
        assert np.max(np.abs(comm0)) == 0.0

    @pytest.mark.parametrize("m, cutoffs", [(4, (16, 16)), (3, (2, 2, 2))])
    def test_matches_kronecker_reference(self, m, cutoffs):
        ts, line, _, modes = make_system(n_modes=len(cutoffs))
        built = build_full_hamiltonian(ts, modes, CouplingSpec(0.7, 0.3 * line.length), m, cutoffs)
        assert np.array_equal(built.matrix.mat,
                              reference_hamiltonian(ts, modes, m, cutoffs, built.g_table))
        assert np.array_equal(total_excitation_op(built).mat, reference_excitation(m, cutoffs))

    def test_capacity_guard(self):
        ts, _, _, modes = make_system()
        with pytest.raises(CapacityError):
            build_full_hamiltonian(ts, modes, CouplingSpec(1.0, 0.0), 3, (2048,))

    def test_assembled_operators_are_real(self):
        ts, line, _, modes = make_system(n_modes=2)
        built = build_full_hamiltonian(ts, modes, CouplingSpec(0.7, 0.3 * line.length), 3, (3, 2))
        assert built.matrix.mat.dtype == np.float64
        assert total_excitation_op(built).mat.dtype == np.float64

    def test_basis_state_energies(self):
        ts, _, _, modes = make_system(n_modes=2)
        cs = CouplingSpec(beta=1.0, z0=0.0, path_gain=0.0)
        built = build_full_hamiltonian(ts, modes, cs, 3, (3, 2))
        for j, ns in [(0, (0, 0)), (2, (1, 1)), (1, (2, 0))]:
            psi = built.basis_state(j, ns)
            e = np.vdot(psi.amps, built.matrix.mat @ psi.amps).real
            expected = ts.levels[j] + ns[0] * modes.freqs[0] + ns[1] * modes.freqs[1]
            assert e == pytest.approx(expected, rel=1e-12)

    def test_g_table_symmetry(self):
        ts, _, _, modes = make_system()
        built = build_full_hamiltonian(ts, modes, CouplingSpec(1.0, 0.0), 4, (3,))
        assert np.array_equal(built.g_table, np.swapaxes(built.g_table, 0, 1))


class TestFieldReduction:
    def test_field_route_matches_circuit_route(self):
        for conv in LongitudinalNorm:
            ts, line, xsec, modes = make_system(n_modes=3, conv=conv)
            cs = CouplingSpec(beta=0.4, z0=0.3 * line.length)
            h_field, _, max_diff = field_reduction_check(ts, modes, xsec, cs, 3, (2, 2, 2))
            assert max_diff < 1e-9 * np.max(np.abs(h_field.mat))

    def test_builds_one_operator(self, monkeypatch):
        # the dense comparison also built the circuit Hamiltonian
        made = []
        real = coupled.Operator
        monkeypatch.setattr(coupled, "Operator", lambda mat: made.append(mat.shape) or real(mat))
        ts, line, xsec, modes = make_system(n_modes=2)
        _, g_circuit, _ = field_reduction_check(
            ts, modes, xsec, CouplingSpec(0.4, 0.3 * line.length), 3, (4, 3))
        assert made == [(36, 36)]
        assert g_circuit.shape == (3, 3, 2)

    def test_peak_memory_at_dim_1024(self):
        # one dim-1024 Hamiltonian and its coupling terms; the dense
        # comparison peaked at 32 MB
        ts, line, xsec, modes = make_system(n_modes=2)
        cs = CouplingSpec(beta=0.2, z0=0.3 * line.length)
        field_reduction_check(ts, modes, xsec, cs, 2, (2, 2))  # warm up outside the window
        tracemalloc.start()
        try:
            field_reduction_check(ts, modes, xsec, cs, 4, (16, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 28 * 1024 * 1024

    @pytest.mark.parametrize("sigma_frac", [0.0, np.inf, -1e-6, np.nan])
    def test_sigma_frac_must_be_positive_and_finite(self, sigma_frac):
        # 0 and inf used to return NaN without a word
        ts, line, xsec, modes = make_system()
        cs = CouplingSpec(beta=1.0, z0=0.3 * line.length)
        with pytest.raises(ContractViolationError, match="sigma_frac"):
            field_mode_rates(modes, xsec, cs, sigma_frac=sigma_frac)

    def test_node_vanishes_on_both_sides(self):
        ts, line, xsec, modes = make_system()
        cs = CouplingSpec(beta=1.0, z0=line.length / 2)
        assert coupling_strength(ts, modes, cs, 0, 1, 0) == 0.0
        scale = abs(coupling_strength(ts, modes, CouplingSpec(1.0, 0.0), 0, 1, 0))
        assert abs(field_g(ts, modes, xsec, cs, 0, 1, 0)) < 1e-12 * scale

    def test_path_gain_scales_both_routes(self):
        ts, line, xsec, modes = make_system()
        z0 = 0.2 * line.length
        g1c = coupling_strength(ts, modes, CouplingSpec(1.0, z0), 0, 1, 0)
        g2c = coupling_strength(ts, modes, CouplingSpec(1.0, z0, path_gain=2.0), 0, 1, 0)
        g1f = field_g(ts, modes, xsec, CouplingSpec(1.0, z0), 0, 1, 0)
        g2f = field_g(ts, modes, xsec, CouplingSpec(1.0, z0, path_gain=2.0), 0, 1, 0)
        assert g2c == pytest.approx(2 * g1c, rel=1e-12)
        assert g2f == pytest.approx(2 * g1f, rel=1e-12)

    def test_smearing_bias_is_second_order(self):
        # halving the localization width should quarter the deviation
        ts, line, xsec, modes = make_system(n_modes=3)
        cs = CouplingSpec(beta=1.0, z0=0.23 * line.length)
        exact = coupling_strength(ts, modes, cs, 0, 1, 2)
        errs = []
        for sigma_frac in (1e-3, 5e-4, 2.5e-4):
            approx = field_g(ts, modes, xsec, cs, 0, 1, 2, sigma_frac=sigma_frac)
            errs.append(abs(approx - exact))
        r1 = errs[0] / errs[1]
        r2 = errs[1] / errs[2]
        assert 3.2 < r1 < 4.8
        assert 3.2 < r2 < 4.8


def reference_reduction(ts, modes, xsec, cs, m, cutoffs):
    """The dense comparison field_reduction_check made before it read the
    g-tables: both Hamiltonians assembled and subtracted elementwise.
    Returns (H_field matrix, max_diff)."""
    h_field, h_circuit = (
        _assemble(ts, modes, m, cutoffs, coupling_table(ts, rates, m)).matrix.mat
        for rates in (field_mode_rates(modes, xsec, cs), mode_rates(modes, cs)))
    return h_field, float(np.max(np.abs(h_field - h_circuit)))


@given(m=st.integers(2, 4), cutoffs=st.lists(st.integers(2, 6), min_size=1, max_size=3),
       z_frac=st.floats(0.0, 1.0), beta=st.floats(1e-3, 1.0),
       path_gain=st.floats(-3.0, 3.0), include_beta=st.booleans(),
       conv=st.sampled_from(LongitudinalNorm))
def test_reduction_from_tables_is_the_dense_difference(m, cutoffs, z_frac, beta, path_gain,
                                                       include_beta, conv):
    """max_diff read from the g-tables is bit-equal to max|H_field - H_circuit|
    of the two assembled Hamiltonians, and H_field is the same matrix."""
    ts, line, xsec, modes = make_system(n_modes=len(cutoffs), conv=conv)
    cs = CouplingSpec(beta, z_frac * line.length, include_beta, path_gain)
    h_field, g_circuit, max_diff = field_reduction_check(ts, modes, xsec, cs, m, cutoffs)
    ref_field, ref_diff = reference_reduction(ts, modes, xsec, cs, m, cutoffs)
    assert np.array_equal(h_field.mat, ref_field)
    assert max_diff == ref_diff
    assert np.array_equal(g_circuit, build_full_hamiltonian(ts, modes, cs, m, cutoffs).g_table)


@given(ng=st.floats(0.0, 1.0), ratio=st.floats(1.0, 100.0), z_frac=st.floats(0.0, 1.0))
def test_coupled_spectrum_is_gauge_invariant(ng, ratio, z_frac):
    """PLUS and MINUS tunneling are related by |N> -> (-1)^N |N>, so the
    coupled spectrum and the coupling magnitudes agree; the signs of g follow
    the pivot phase convention and are not compared."""
    _, line, _, modes = make_system(n_modes=2)
    cs = CouplingSpec(beta=0.2, z0=z_frac * line.length)
    built = {}
    for sign in TunnelingSign:
        ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=ratio * 0.3 * GHZ, ng=ng, sign=sign))
        built[sign] = build_full_hamiltonian(ts, modes, cs, 4, (5, 5))
    plus, minus = built[TunnelingSign.PLUS], built[TunnelingSign.MINUS]
    e_plus = np.linalg.eigvalsh(plus.matrix.mat)
    e_minus = np.linalg.eigvalsh(minus.matrix.mat)
    assert np.max(np.abs(e_plus - e_minus)) <= 1e-12 * np.max(np.abs(e_plus))
    g_scale = np.max(np.abs(plus.g_table))
    assert np.max(np.abs(np.abs(plus.g_table) - np.abs(minus.g_table))) <= 1e-12 * g_scale


@given(gain=st.floats(1e-3, 3e3), ng=st.floats(0.0, 1.0), z_frac=st.floats(0.0, 1.0))
def test_coupling_sign_is_a_unitary_symmetry(gain, ng, z_frac):
    """Flipping the path gain flips every g, which a -> -a (the unitary
    (-1)^n on each mode) undoes, so the spectrum does not move."""
    _, line, _, modes = make_system(n_modes=2)
    ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ, ng=ng))
    built = [build_full_hamiltonian(ts, modes, CouplingSpec(0.2, z_frac * line.length,
                                                            path_gain=p), 4, (5, 5))
             for p in (gain, -gain)]
    assert np.array_equal(built[1].g_table, -built[0].g_table)
    e_pos, e_neg = (np.linalg.eigvalsh(b.matrix.mat) for b in built)
    assert np.max(np.abs(e_pos - e_neg)) <= 1e-12 * np.max(np.abs(e_pos))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


# z0/length where some low mode of some boundary condition has a voltage node
NODE_FRACTIONS = [0.0, 0.25, 0.5, 0.75, 1.0, 1.0 / 3.0, 1.0 / 6.0, 0.1, 0.3]


def reference_circuit_g(ts, modes, cs, i, j, l):
    """g_{ij,l} as the per-entry circuit route computed it, in one product."""
    u0 = modes.u(l, cs.z0)
    me = charge_matrix_element(ts, i, j)
    return float(TWO_E_OVER_HBAR * cs.beta_eff * modes.n_v[l] * u0 * cs.path_gain * me)


@given(bc=st.sampled_from(BoundaryCondition), conv=st.sampled_from(LongitudinalNorm),
       n_modes=st.integers(1, 4), m=st.integers(2, 5),
       z_frac=st.one_of(st.sampled_from(NODE_FRACTIONS), st.floats(0.0, 1.0)),
       beta=st.floats(1e-3, 1.0), include_beta=st.booleans(),
       path_gain=st.floats(-1e3, 1e3), ng=st.floats(0.0, 1.0))
def test_table_entries_are_the_single_rates(bc, conv, n_modes, m, z_frac, beta,
                                            include_beta, path_gain, ng):
    """Every entry of coupling_table(ts, mode_rates(...), m) is bit-equal to
    coupling_strength and to the per-entry product at the same (i, j, l),
    voltage nodes included."""
    ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ, ng=ng))
    line = LineParams(L_pul=4.0e-7, C_pul=1.6e-10, length=0.0125, bc=bc)
    modes = mode_operator_coeffs(compute_modes(line, n_modes, conv), matched_cross_section(line))
    cs = CouplingSpec(beta, z_frac * line.length, include_beta, path_gain)
    table = coupling_table(ts, mode_rates(modes, cs), m)
    assert table.shape == (m, m, n_modes)
    for i, j, l in np.ndindex(table.shape):
        assert bits(table[i, j, l]) == bits(coupling_strength(ts, modes, cs, i, j, l))
        assert bits(table[i, j, l]) == bits(reference_circuit_g(ts, modes, cs, i, j, l))


def reference_field_rate(modes, xsec, cs, l, sigma_frac=1e-6):
    """The field-integral rate of mode l as the per-entry route computed it
    for every (i, j, l), before its final factor <i|n|j>: the reference for
    field_mode_rates."""
    length = modes.line.length
    z = np.linspace(0.0, length, 64 * modes.n_modes + 1)
    n_el_quad = np.trapezoid(np.asarray(modes.u(l, z)) ** 2, z)
    if modes.convention is LongitudinalNorm.INTEGRAL and \
            abs(n_el_quad - modes.n_el[l]) > 1e-10 * modes.n_el[l]:
        raise NumericError("longitudinal quadrature disagrees with the stored normalization")
    x = np.linspace(0.0, xsec.d, 65)
    n_et_quad = xsec.w * np.trapezoid(np.full_like(x, xsec.eps_r / xsec.d**2), x)
    n_e = np.sqrt(hbar * modes.freqs[l] / (2.0 * epsilon_0 * n_et_quad * modes.n_el[l]))
    u_eff = coupled._smeared_mode_value(modes, l, cs.z0, sigma_frac * length)
    path = np.linspace(0.0, cs.path_gain * xsec.d, 65)
    path_int = np.trapezoid(np.full_like(path, 1.0 / xsec.d), path)
    return TWO_E_OVER_HBAR * cs.beta_eff * n_e * u_eff * path_int


@given(bc=st.sampled_from(BoundaryCondition), conv=st.sampled_from(LongitudinalNorm),
       n_modes=st.integers(1, 3), z_frac=st.one_of(st.sampled_from(NODE_FRACTIONS),
                                                   st.floats(0.0, 1.0)),
       include_beta=st.booleans(), path_gain=st.floats(-3.0, 3.0),
       sigma_frac=st.sampled_from([1e-6, 1e-4, 1e-2]))
def test_field_rates_match_the_per_entry_formula(bc, conv, n_modes, z_frac, include_beta,
                                                 path_gain, sigma_frac):
    """field_mode_rates is the per-entry field formula with <i|n|j> divided
    out, bit for bit, and its table entries are that formula's values."""
    ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ))
    line = LineParams(L_pul=4.0e-7, C_pul=1.6e-10, length=0.0125, bc=bc)
    xsec = matched_cross_section(line)
    modes = mode_operator_coeffs(compute_modes(line, n_modes, conv), xsec)
    cs = CouplingSpec(0.4, z_frac * line.length, include_beta, path_gain)
    rates = field_mode_rates(modes, xsec, cs, sigma_frac)
    table = coupling_table(ts, rates, 3)
    for l in range(n_modes):
        ref = reference_field_rate(modes, xsec, cs, l, sigma_frac)
        assert bits(rates[l]) == bits(ref)
        for i, j in np.ndindex(3, 3):
            assert bits(table[i, j, l]) == bits(float(ref * charge_matrix_element(ts, i, j)))


class TestRateFactorisation:
    @staticmethod
    def count_calls(monkeypatch, *names):
        calls = dict.fromkeys(names, 0)
        for name in names:
            real = getattr(coupled, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(coupled, name, counted)
        return calls

    def test_field_quadratures_run_once_per_mode(self, monkeypatch):
        # the per-entry route ran them for every transmon pair: 18 times here
        calls = self.count_calls(monkeypatch, "_smeared_mode_value", "charge_matrix_element")
        ts, line, xsec, modes = make_system(n_modes=3)
        cs = CouplingSpec(0.4, 0.3 * line.length)
        field_reduction_check(ts, modes, xsec, cs, 3, (2, 2, 2))
        assert calls["_smeared_mode_value"] == 3
        assert calls["charge_matrix_element"] <= 2 * 3 * 3

    @pytest.mark.parametrize("builder", [build_full_hamiltonian, build_nn_hamiltonian])
    def test_builders_read_one_element_per_pair(self, monkeypatch, builder):
        calls = self.count_calls(monkeypatch, "mode_rates", "charge_matrix_element")
        ts, line, _, modes = make_system(n_modes=2)
        builder(ts, modes, CouplingSpec(0.4, 0.3 * line.length), 4, (3, 3))
        assert calls["mode_rates"] == 1
        assert calls["charge_matrix_element"] <= 4 * 4

    @pytest.mark.parametrize("l", [-1, 1])
    def test_single_rate_checks_the_mode_index(self, l):
        ts, _, _, modes = make_system(n_modes=1)
        with pytest.raises(IndexError):
            coupling_strength(ts, modes, CouplingSpec(1.0, 0.0), 0, 1, l)

    def test_overflowing_rate_is_a_numeric_error(self):
        # path_gain 1e308 used to give -inf couplings with a RuntimeWarning
        ts, line, xsec, modes = make_system(n_modes=2)
        cs = CouplingSpec(0.2, 0.2 * line.length, path_gain=1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (lambda: mode_rates(modes, cs),
                         lambda: field_mode_rates(modes, xsec, cs),
                         lambda: coupling_strength(ts, modes, cs, 0, 1, 0),
                         lambda: build_full_hamiltonian(ts, modes, cs, 3, (2, 2))):
                with pytest.raises(NumericError, match="coupling rate is not finite"):
                    call()

    def test_overflowing_entry_is_a_numeric_error(self):
        # finite rate 1.7e308 times |<0|n|1>| 1.1: this used to return -inf
        # with only a RuntimeWarning
        ts = solve(TransmonParams(EC=0.3, EJ=15.0))
        line = LineParams(L_pul=4e-7, C_pul=1.6e-10, length=0.0125)
        modes = mode_operator_coeffs(compute_modes(line, 1), matched_cross_section(line))
        cs = CouplingSpec(1.0, 0.0, path_gain=4.3e298)
        assert np.isfinite(mode_rates(modes, cs)).all()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="coupling table is not finite"):
                coupling_strength(ts, modes, cs, 0, 1, 0)

    @pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (0, 41), (41, 1)])
    def test_single_rate_checks_the_level_indices(self, i, j):
        ts, _, _, modes = make_system(n_modes=1)
        with pytest.raises(IndexError):
            coupling_strength(ts, modes, CouplingSpec(1.0, 0.0), i, j, 0)


class TestTableAndAssemblyGuards:
    @pytest.mark.parametrize("route", ["full", "nn", "field"])
    def test_more_levels_than_the_solution_holds(self, route):
        # m 6 on a 5-level solution used to end in an IndexError from the
        # charge elements, before the assembler's own check could run
        ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ, n_cutoff=2))
        _, line, xsec, modes = make_system()
        cs = CouplingSpec(0.2, 0.3 * line.length)
        call = {"full": lambda: build_full_hamiltonian(ts, modes, cs, 6, (2,)),
                "nn": lambda: build_nn_hamiltonian(ts, modes, cs, 6, (2,)),
                "field": lambda: field_reduction_check(ts, modes, xsec, cs, 6, (2,))}[route]
        with pytest.raises(ContractViolationError, match="transmon solution has only 5 levels"):
            call()

    def test_overflowing_table_is_a_numeric_error(self):
        # a finite rate of 1.7e308 times a charge element above 1.06
        # overflows; this used to return inf entries with a RuntimeWarning
        ts, line, _, modes = make_system()
        assert abs(charge_matrix_element(ts, 0, 1)) > 1.06
        gain = 1.7e308 / mode_rates(modes, CouplingSpec(1.0, 0.0))[0]
        cs = CouplingSpec(1.0, 0.0, path_gain=gain)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(mode_rates(modes, cs)).all()
            with pytest.raises(NumericError, match="coupling table is not finite"):
                coupling_table(ts, np.array([1.7e308]), 2)
            with pytest.raises(NumericError, match="coupling table is not finite"):
                build_full_hamiltonian(ts, modes, cs, 3, (2,))

    @pytest.mark.parametrize("m, cutoffs, message", [
        (1, (2,), "need at least 2 transmon levels"),
        (3, (2, 2), "need one Fock cutoff per mode"),
        (3, (1,), "each Fock cutoff must be at least 2"),
    ])
    def test_assembler_rejects_a_bad_basis(self, m, cutoffs, message):
        ts, line, _, modes = make_system()
        with pytest.raises(ContractViolationError, match=message):
            build_full_hamiltonian(ts, modes, CouplingSpec(0.2, 0.3 * line.length), m, cutoffs)
