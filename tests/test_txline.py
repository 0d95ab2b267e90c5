import numpy as np
import pytest
from scipy.constants import epsilon_0, hbar, mu_0

from fieldcqed.errors import ContractViolationError
from fieldcqed.txline import (
    matched_cross_section,
    BoundaryCondition,
    LineParams,
    LongitudinalNorm,
    compute_modes,
    energy_correspondence,
    mode_operator_coeffs,
    tem_cross_section,
)

# quarter-wave coplanar-ish reference line: v_p = 1.25e8 m/s, f1 = 5 GHz
LINE = LineParams(L_pul=4.0e-7, C_pul=1.6e-10, length=0.0125)
XSEC_ARGS = dict(w=10e-6, d=5e-6, eps_r=1.0)


class TestDispersion:
    def test_phase_velocity(self):
        assert LINE.v_p == pytest.approx(1.25e8, rel=1e-12)

    def test_fundamental_at_5ghz(self):
        ms = compute_modes(LINE, 3)
        f1 = ms.freqs[0] / (2 * np.pi)
        assert f1 == pytest.approx(5.0e9, rel=1e-12)

    def test_harmonic_ladder(self):
        for bc in (BoundaryCondition.OPEN_OPEN, BoundaryCondition.SHORT_SHORT):
            line = LineParams(4.0e-7, 1.6e-10, 0.0125, bc=bc)
            ms = compute_modes(line, 6)
            ratios = ms.freqs / np.arange(1, 7)
            assert np.allclose(ratios, ratios[0], rtol=1e-12)

    def test_open_short_odd_ladder(self):
        line = LineParams(4.0e-7, 1.6e-10, 0.0125, bc=BoundaryCondition.OPEN_SHORT)
        ms = compute_modes(line, 4)
        ratios = ms.freqs / np.array([1, 3, 5, 7], dtype=float)
        assert np.allclose(ratios, ratios[0], rtol=1e-12)
        assert ms.freqs[0] == pytest.approx(np.pi * line.v_p / (2 * line.length), rel=1e-12)

    def test_ascending_positive(self):
        ms = compute_modes(LINE, 5)
        assert np.all(np.diff(ms.freqs) > 0) and ms.freqs[0] > 0


class TestModeShapes:
    def test_midline_node_is_exact_zero(self):
        ms = compute_modes(LINE, 2)
        assert ms.u(0, LINE.length / 2) == 0.0

    def test_open_ends_are_antinodes(self):
        ms = compute_modes(LINE, 3)
        for idx in range(3):
            assert abs(ms.u(idx, 0.0)) == 1.0
            assert abs(ms.u(idx, LINE.length)) == 1.0

    def test_short_short_nodes_at_ends(self):
        line = LineParams(4.0e-7, 1.6e-10, 0.0125, bc=BoundaryCondition.SHORT_SHORT)
        ms = compute_modes(line, 2)
        for idx in range(2):
            assert ms.u(idx, 0.0) == 0.0
            assert ms.u(idx, line.length) == 0.0

    def test_current_conjugate_to_voltage(self):
        # current antinode where the voltage has a node and vice versa
        ms = compute_modes(LINE, 1)
        assert ms.v(0, 0.0) == 0.0
        assert abs(ms.v(0, LINE.length / 2)) == 1.0

    def test_orthogonality_by_quadrature(self):
        for bc in BoundaryCondition:
            line = LineParams(4.0e-7, 1.6e-10, 0.0125, bc=bc)
            ms = compute_modes(line, 5)
            z = np.linspace(0, line.length, 64 * 5 + 1)
            gram = np.empty((5, 5))
            for a in range(5):
                for b in range(5):
                    gram[a, b] = np.trapezoid(ms.u(a, z) * ms.u(b, z), z)
            off = gram - np.diag(np.diag(gram))
            assert np.max(np.abs(off)) < 1e-12 * (line.length / 2)
            assert np.allclose(np.diag(gram), ms.n_el, rtol=1e-10)


class TestCrossSection:
    def test_parallel_plate_values(self):
        xs = tem_cross_section(**XSEC_ARGS)
        assert xs.c_k == pytest.approx(epsilon_0 * 2.0, rel=1e-15)
        assert xs.c_k == pytest.approx(1.7708e-11, rel=1e-4)
        assert xs.l_k == pytest.approx(mu_0 / 2.0, rel=1e-15)
        assert xs.l_k == pytest.approx(6.2832e-7, rel=1e-4)

    def test_tem_identity(self):
        for eps_r in (1.0, 4.0, 11.9):
            xs = tem_cross_section(10e-6, 5e-6, eps_r)
            assert xs.c_k * xs.l_k == pytest.approx(mu_0 * epsilon_0 * eps_r, rel=1e-14)

    def test_eps_r_halves_velocity(self):
        v1 = 1.0 / np.sqrt(np.prod([tem_cross_section(10e-6, 5e-6, 1.0).c_k,
                                    tem_cross_section(10e-6, 5e-6, 1.0).l_k]))
        v4 = 1.0 / np.sqrt(np.prod([tem_cross_section(10e-6, 5e-6, 4.0).c_k,
                                    tem_cross_section(10e-6, 5e-6, 4.0).l_k]))
        assert v1 / v4 == pytest.approx(2.0, rel=1e-14)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ContractViolationError):
            tem_cross_section(0.0, 5e-6, 1.0)


class TestOperatorCoeffs:
    def test_total_capacitance_reference_value(self):
        # C_r = C_pul * length = 2 pF; N_V = sqrt(hbar*omega/(2 C_r)) at 5 GHz
        c_r = LINE.C_pul * LINE.length
        assert c_r == pytest.approx(2.0e-12, rel=1e-12)
        ms = mode_operator_coeffs(
            compute_modes(LINE, 1, LongitudinalNorm.FULL_LENGTH),
            matched_cross_section(LINE),
        )
        expected = np.sqrt(hbar * 2 * np.pi * 5.0e9 / (2 * c_r))
        assert ms.n_v[0] == pytest.approx(expected, rel=1e-12)
        assert ms.n_v[0] == pytest.approx(9.1010e-7, rel=2e-4)

    def test_matched_section_reproduces_line_constants(self):
        xs = matched_cross_section(LINE)
        assert xs.c_k == pytest.approx(LINE.C_pul, rel=1e-14)
        assert xs.l_k == pytest.approx(LINE.L_pul, rel=1e-14)

    def test_convention_ratio_sqrt2(self):
        xs = tem_cross_section(**XSEC_ARGS)
        lit = mode_operator_coeffs(compute_modes(LINE, 3, LongitudinalNorm.INTEGRAL), xs)
        full = mode_operator_coeffs(compute_modes(LINE, 3, LongitudinalNorm.FULL_LENGTH), xs)
        assert np.allclose(lit.n_v / full.n_v, np.sqrt(2.0), rtol=1e-14)

    def test_voltage_current_duality(self):
        xs = tem_cross_section(**XSEC_ARGS)
        for conv in LongitudinalNorm:
            ms = mode_operator_coeffs(compute_modes(LINE, 4, conv), xs)
            lhs = xs.c_k * ms.n_v**2 * ms.n_el
            rhs = xs.l_k * ms.n_i**2 * ms.n_hl
            target = hbar * ms.freqs / 2.0
            assert np.allclose(lhs, target, rtol=1e-12)
            assert np.allclose(rhs, target, rtol=1e-12)

    def test_norm_integral_is_half_length(self):
        ms = compute_modes(LINE, 5, LongitudinalNorm.INTEGRAL)
        assert np.all(ms.n_el == LINE.length / 2.0)


class TestEnergyCorrespondence:
    def _modes(self, n=1, conv=LongitudinalNorm.INTEGRAL):
        xs = tem_cross_section(**XSEC_ARGS)
        return mode_operator_coeffs(compute_modes(LINE, n, conv), xs), xs

    def test_zero_amplitudes(self):
        ms, xs = self._modes()
        field, line = energy_correspondence(ms, xs, [0.0], [0.0])
        assert field == 0.0 and line == 0.0

    def test_single_mode_equality_and_value(self):
        ms, xs = self._modes()
        field, line = energy_correspondence(ms, xs, [1.0], [0.0])
        assert abs(field - line) < 1e-10 * line
        # unit amplitude carries half a photon of electric energy
        assert line == pytest.approx(hbar * ms.freqs[0] / 2.0, rel=1e-10)

    def test_quadratic_scaling(self):
        ms, xs = self._modes()
        _, e1 = energy_correspondence(ms, xs, [1.0], [0.0])
        _, e2 = energy_correspondence(ms, xs, [2.0], [0.0])
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)

    def test_random_five_mode_equality(self):
        rng = np.random.default_rng(42)
        ms, xs = self._modes(n=5)
        for _ in range(3):
            q = rng.normal(size=5) + 1j * rng.normal(size=5)
            p = rng.normal(size=5) + 1j * rng.normal(size=5)
            field, line = energy_correspondence(ms, xs, q, p)
            assert abs(field - line) < 1e-9 * max(field, line)
            analytic = float(np.sum(hbar * ms.freqs * (np.abs(q) ** 2 + np.abs(p) ** 2) / 2.0))
            assert line == pytest.approx(analytic, rel=1e-9)

    @pytest.mark.parametrize("bc", list(BoundaryCondition))
    def test_closed_form_energy_on_every_boundary(self, bc):
        # sum_l hbar omega_l (|q_l|^2 + |p_l|^2) / 2 from the fields and from
        # the line; p drives the current shape v_l of each boundary
        line = LineParams(L_pul=4.0e-7, C_pul=1.6e-10, length=0.0125, bc=bc)
        xs = tem_cross_section(**XSEC_ARGS)
        ms = mode_operator_coeffs(compute_modes(line, 3), xs)
        q = np.array([1.0, 0.5j, -0.25])
        p = np.array([0.3, -0.7, 0.2 + 0.4j])
        analytic = float(np.sum(hbar * ms.freqs * (np.abs(q) ** 2 + np.abs(p) ** 2) / 2.0))
        field, line_energy = energy_correspondence(ms, xs, q, p)
        assert field == pytest.approx(analytic, rel=1e-13)
        assert line_energy == pytest.approx(analytic, rel=1e-13)

    def test_conventions_agree_with_each_other(self):
        # FULL_LENGTH rescales both sides identically, so field == line holds
        ms, xs = self._modes(n=2, conv=LongitudinalNorm.FULL_LENGTH)
        field, line = energy_correspondence(ms, xs, [1.0, 0.5], [0.2, 0.1])
        assert abs(field - line) < 1e-10 * line

    def test_amplitude_shape_checked(self):
        ms, xs = self._modes(n=2)
        with pytest.raises(ContractViolationError):
            energy_correspondence(ms, xs, [1.0], [0.0, 0.0])
