import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh, eigh_tridiagonal

from fieldcqed import qops, transmon
from fieldcqed.errors import ContractViolationError, NumericError
from fieldcqed.transmon import (
    TransmonParams,
    TransmonSolution,
    TunnelingSign,
    anharmonicity,
    build_charge_hamiltonian,
    charge_dispersion,
    charge_matrix_element,
    charge_number_op,
    level_sweep,
    sin_phi_op,
    solve,
)


class TestHamiltonian:
    def test_diagonal_at_zero_ej(self):
        p = TransmonParams(EC=1.3, EJ=0.0, ng=0.0, n_cutoff=1)
        h = build_charge_hamiltonian(p).mat
        assert np.allclose(h, np.diag([4 * 1.3, 0.0, 4 * 1.3]), atol=0, rtol=0)

    def test_offdiagonal_sign(self):
        pp = TransmonParams(EC=1.0, EJ=2.0, n_cutoff=2, sign=TunnelingSign.PLUS)
        pm = TransmonParams(EC=1.0, EJ=2.0, n_cutoff=2, sign=TunnelingSign.MINUS)
        assert build_charge_hamiltonian(pp).mat[0, 1] == 1.0
        assert build_charge_hamiltonian(pm).mat[0, 1] == -1.0

    def test_spectra_gauge_equivalent(self):
        # |N> -> (-1)^N |N> maps one tunneling sign onto the other
        for ec, ej, ng in [(0.3, 15.0, 0.0), (1.0, 50.0, 0.37), (0.2, 0.5, 0.5)]:
            wp = solve(TransmonParams(ec, ej, ng, 20, TunnelingSign.PLUS)).levels
            wm = solve(TransmonParams(ec, ej, ng, 20, TunnelingSign.MINUS)).levels
            scale = np.abs(wp).max()
            assert np.allclose(wp, wm, atol=1e-12 * scale, rtol=0)

    def test_degeneracy_point_block_gap(self):
        # at n_g = 1/2 the |0>,|1> block is [[EC, EJ/2], [EJ/2, EC]]: gap EJ
        ec, ej = 1.0, 0.1
        p = TransmonParams(ec, ej, ng=0.5, n_cutoff=3)
        h = build_charge_hamiltonian(p).mat
        i0 = p.n_cutoff  # row of N=0
        block = h[i0 : i0 + 2, i0 : i0 + 2]
        ev = np.linalg.eigvalsh(block)
        assert ev[1] - ev[0] == pytest.approx(ej, abs=1e-14)

    def test_invalid_params(self):
        with pytest.raises(ContractViolationError):
            TransmonParams(EC=0.0, EJ=1.0)
        with pytest.raises(ContractViolationError):
            TransmonParams(EC=1.0, EJ=-1.0)
        with pytest.raises(ContractViolationError):
            TransmonParams(EC=1.0, EJ=1.0, n_cutoff=0)


class TestSolve:
    def test_zero_ej_levels(self):
        ec = 0.7
        s = solve(TransmonParams(EC=ec, EJ=0.0, n_cutoff=5))
        assert np.allclose(s.levels[:4], [0.0, 4 * ec, 4 * ec, 16 * ec], atol=1e-12)

    def test_asymptotic_qubit_frequency(self):
        # sqrt(8 EC EJ) - EC from the large-EJ/EC expansion, independent of
        # the diagonalization path
        ec, ej = 0.3, 15.0
        s = solve(TransmonParams(ec, ej, n_cutoff=40))
        w01 = s.transition(0, 1)
        approx = np.sqrt(8 * ec * ej) - ec
        assert abs(w01 - approx) / approx < 0.03

    def test_cutoff_convergence(self):
        a = solve(TransmonParams(1.0, 50.0, n_cutoff=20)).levels[:5]
        b = solve(TransmonParams(1.0, 50.0, n_cutoff=30)).levels[:5]
        denom = np.maximum(np.abs(b), 1.0)
        assert np.max(np.abs(a - b) / denom) < 1e-10

    def test_orthonormal_eigvecs(self):
        s = solve(TransmonParams(0.25, 12.0, ng=0.2))
        g = s.eigvecs.conj().T @ s.eigvecs
        assert np.max(np.abs(g - np.eye(s.n_levels))) < 1e-10

    def test_phase_fixing(self):
        s = solve(TransmonParams(0.25, 12.0, ng=0.13))
        for j in range(s.n_levels):
            v = s.eigvecs[:, j]
            k = np.argmax(np.abs(v))
            assert v[k].real > 0
            assert abs(v[k].imag) < 1e-14

    def test_eigvecs_are_real(self):
        s = solve(TransmonParams(0.25, 12.0, ng=0.13))
        assert s.eigvecs.dtype == np.float64

    def test_mirror_tie_takes_lowest_index_pivot(self):
        # at n_g = 0 the first excited state is odd: equal magnitudes at
        # N = -1 and N = +1, opposite signs; the pivot is N = -1
        p = TransmonParams(1.0, 5.0, ng=0.0, n_cutoff=20)
        v = solve(p).eigvecs[:, 1]
        minus_one, plus_one = v[p.n_cutoff - 1], v[p.n_cutoff + 1]
        assert minus_one > 0 and plus_one < 0
        assert abs(minus_one + plus_one) < 1e-12

    def test_phase_convention_independent_of_eigensolver(self):
        """zheevr, dsyevr, dsyevd and dstevd return each eigenvector with its
        own sign (or phase) and rounding; once phase-fixed they agree.
        Levels whose gap to a neighbour is below 1e-6 of the spectral scale
        have an ill-defined eigenvector and are left out."""
        compared = 0
        for ratio in (1.0, 3.0, 15.0, 50.0, 100.0):
            for ng in (0.0, 0.25, 0.5, 1.0):
                for sign in TunnelingSign:
                    h = build_charge_hamiltonian(TransmonParams(1.0, ratio, ng, sign=sign)).mat
                    runs = [eigh(h.astype(complex)), eigh(h, driver="evr"), eigh(h, driver="evd"),
                            eigh_tridiagonal(np.diag(h), np.diag(h, 1))]
                    w = runs[0][0]
                    fixed = [transmon._fix_phases(vecs) for _, vecs in runs]
                    for lvl in range(4):
                        gap = min(w[lvl + 1] - w[lvl], w[lvl] - w[lvl - 1] if lvl else np.inf)
                        if gap < 1e-6 * np.abs(w).max():
                            continue
                        compared += 1
                        for other in fixed[1:]:
                            assert np.max(np.abs(other[:, lvl] - fixed[0][:, lvl])) < 1e-9, \
                                (ratio, ng, sign, lvl)
        assert compared == 156

    @pytest.mark.parametrize("field, value", [
        ("ng", np.nan), ("ng", np.inf), ("ng", -np.inf), ("EJ", np.nan), ("EJ", np.inf)])
    def test_nonfinite_parameters_are_numeric_errors(self, field, value):
        with pytest.raises(ContractViolationError, match=field):
            replace(TransmonParams(1.0, 5.0, ng=0.2), **{field: value})
        # the solver keeps its own guard for parameters forced past that check
        p = TransmonParams(1.0, 5.0, ng=0.2)
        object.__setattr__(p, field, value)
        with pytest.raises(NumericError):
            solve(p)
        ngs = np.linspace(0.0, 1.0, 40)
        if field == "ng":  # a bad point in the middle of the second block
            ngs[20], p = value, replace(p, ng=0.2)
        with pytest.raises(NumericError, match="non-finite"):
            level_sweep(p, ngs)

    def test_ng_symmetries(self):
        base = solve(TransmonParams(1.0, 30.0, ng=0.21)).levels[:6]
        shifted = solve(TransmonParams(1.0, 30.0, ng=1.21)).levels[:6]
        mirrored = solve(TransmonParams(1.0, 30.0, ng=-0.21)).levels[:6]
        scale = np.abs(base).max()
        assert np.allclose(base, shifted, atol=1e-10 * scale, rtol=0)
        assert np.allclose(base, mirrored, atol=1e-10 * scale, rtol=0)


@given(ec=st.floats(0.05, 5.0), ratio=st.floats(0.0, 200.0), ng=st.floats(-1.0, 2.0),
       n_cutoff=st.integers(1, 40), sign=st.sampled_from(TunnelingSign))
def test_solve_matches_dense_eigh(ec, ratio, ng, n_cutoff, sign):
    """The tridiagonal solver against a dense eigendecomposition of the
    assembled charge Hamiltonian.  Eigenvectors are compared after phase
    fixing, and only where the level's gap to its neighbours exceeds 1e-6
    of the spectral scale."""
    p = TransmonParams(ec, ratio * ec, ng, n_cutoff, sign)
    w, vecs = eigh(build_charge_hamiltonian(p).mat)
    s = solve(p)
    scale = np.abs(w).max()
    assert np.max(np.abs(s.levels - w)) <= 1e-12 * scale
    ref = transmon._fix_phases(vecs)
    gaps = np.minimum(np.diff(w, prepend=-np.inf), np.diff(w, append=np.inf))
    for lvl in np.flatnonzero(gaps > 1e-6 * scale):
        assert np.max(np.abs(s.eigvecs[:, lvl] - ref[:, lvl])) < 1e-9, lvl


def parent_solve(p):
    """The per-point solve that ``level_sweep`` and ``solve`` replaced, kept
    as the reference: the bands of one n_g, SciPy's tridiagonal solver, and
    the phase fixing."""
    n_vals = np.arange(-p.n_cutoff, p.n_cutoff + 1, dtype=float)
    off = p.EJ / 2.0 if p.sign is TunnelingSign.PLUS else -p.EJ / 2.0
    w, v = eigh_tridiagonal(4.0 * p.EC * (n_vals - p.ng) ** 2, np.full(p.dim - 1, off),
                            check_finite=False)
    return TransmonSolution(levels=w, eigvecs=transmon._fix_phases(v), params=p)


@given(ec=st.floats(0.05, 5.0), ratio=st.floats(0.0, 200.0), n_cutoff=st.integers(1, 40),
       sign=st.sampled_from(TunnelingSign), n_points=st.sampled_from([1, 15, 16, 17, 401]),
       start=st.floats(-1.0, 2.0), stop=st.floats(-1.0, 2.0))
def test_blocked_sweep_is_bit_identical_to_per_point_solves(ec, ratio, n_cutoff, sign,
                                                           n_points, start, stop):
    """Grids of 1, 15, 16, 17 and 401 points split unevenly into blocks of 16;
    every level, eigenvector and charge matrix element equals the
    per-point reference exactly, and eigenvectors stay Fortran-ordered."""
    p = TransmonParams(ec, ratio * ec, 0.0, n_cutoff, sign)
    ngs = np.linspace(start, stop, n_points)
    levels = level_sweep(p, ngs)
    assert levels.shape == (n_points, p.dim)
    for ng, row in zip(ngs, levels):
        q = replace(p, ng=float(ng))
        ref = parent_solve(q)
        s = solve(q)
        assert np.array_equal(row, ref.levels)
        assert np.array_equal(s.levels, ref.levels)
        assert np.array_equal(s.eigvecs, ref.eigvecs)
        assert s.eigvecs.flags.f_contiguous
        assert charge_matrix_element(s, 0, 1) == charge_matrix_element(ref, 0, 1)


def test_perturbed_eigenpair_mid_block_fails_the_residual_check(monkeypatch):
    """The block's vectorised residual check sees one bad eigenpair among
    sixteen good ones."""
    calls = []
    real = qops.dstevd

    def perturbed(d, e):
        w, v, info = real(d, e)
        calls.append(d)
        if len(calls) == 24:  # the 8th row of the second 16-point block
            w = w.copy()
            w[3] += 1e-6 * np.abs(w).max()
        return w, v, info

    monkeypatch.setattr(qops, "dstevd", perturbed)
    with pytest.raises(NumericError, match="eigenpair residual"):
        level_sweep(TransmonParams(1.0, 20.0), np.linspace(0.0, 1.0, 40))
    assert len(calls) == 32  # the failing block was solved, the third never started


def test_level_sweep_holds_one_block_of_eigenvectors():
    """401 points at dim 41 hold 5.4 MB of eigenvectors in all; a sweep
    keeps one 16-point block (215 kB) alive at a time."""
    p = TransmonParams(1.0, 20.0, n_cutoff=20)
    ngs = np.linspace(0.0, 1.0, 401)
    level_sweep(p, ngs[:17])  # warm up lazy imports outside the traced window
    tracemalloc.start()
    try:
        level_sweep(p, ngs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 1024 * 1024


def mathieu_levels(ec, ej, ng, n_levels, terms=60):
    """Lowest transmon levels at n_g = 0 or 1/2 as E_C times the Mathieu
    characteristic values with q = E_J / (2 E_C) (Koch et al., PRA 76,
    042319, 2007): even orders a_2n, b_2n+2 at n_g = 0, odd orders a_2n+1,
    b_2n+1 at n_g = 1/2.  Each symmetry class is the three-term recurrence
    of its Fourier coefficients (DLMF 28.4), truncated at ``terms`` and
    diagonalised densely; no charge cutoff enters."""
    q = ej / (2.0 * ec)
    m = np.arange(terms, dtype=float)
    first = np.eye(terms)[0]

    def recurrence(diag, first_off=q):
        off = np.full(terms - 1, q)
        off[0] = first_off
        return np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

    if ng == 0.0:
        # A_0 enters the equation of A_2 twice: scale it by sqrt(2)
        classes = [recurrence((2.0 * m) ** 2, np.sqrt(2.0) * q), recurrence((2.0 * m + 2.0) ** 2)]
    else:
        classes = [recurrence((2.0 * m + 1.0) ** 2 + q * first),
                   recurrence((2.0 * m + 1.0) ** 2 - q * first)]
    values = np.concatenate([np.linalg.eigvalsh(c) for c in classes])
    return ec * np.sort(values)[:n_levels]


@pytest.mark.parametrize("sign", list(TunnelingSign))
@pytest.mark.parametrize("ng", [0.0, 0.5])
@pytest.mark.parametrize("ratio", [1.0, 5.0, 31.05, 100.0])
def test_levels_match_mathieu_oracle(ratio, ng, sign):
    # 31.05 puts q in the window where scipy's mathieu_a(3, q) returns a_5
    ec = 0.3
    exact = mathieu_levels(ec, ratio * ec, ng, 6)
    levels = solve(TransmonParams(ec, ratio * ec, ng, 20, sign)).levels[:6]
    err = np.abs(levels - exact) / np.maximum(np.abs(exact), ec)
    assert np.all(err < 1e-9), err


class TestChargeMatrixElement:
    def test_parity_zero(self):
        s = solve(TransmonParams(1.0, 50.0, ng=0.0))
        assert abs(charge_matrix_element(s, 0, 0)) < 1e-12

    def test_asymptotic_01(self):
        # (1/sqrt 2) (EJ / 8 EC)^(1/4) at EJ/EC = 50 -> 1.11803...
        s = solve(TransmonParams(1.0, 50.0))
        val = abs(charge_matrix_element(s, 0, 1))
        approx = (50.0 / 8.0) ** 0.25 / np.sqrt(2.0)
        assert abs(val - approx) / approx < 0.03

    def test_nearest_neighbor_dominance(self):
        s = solve(TransmonParams(1.0, 50.0))
        r = abs(charge_matrix_element(s, 0, 2)) / abs(charge_matrix_element(s, 0, 1))
        assert r < 0.05

    def test_symmetric_exactly(self):
        s = solve(TransmonParams(0.3, 15.0, ng=0.4))
        assert charge_matrix_element(s, 1, 2) == charge_matrix_element(s, 2, 1)

    def test_index_range(self):
        s = solve(TransmonParams(0.3, 15.0, n_cutoff=2))
        with pytest.raises(IndexError):
            charge_matrix_element(s, 0, 5)


class TestDispersion:
    def test_zero_ej_closed_form(self):
        # diagonal spectrum: level 0 sweeps from 0 to 4 EC / 4 = EC peak to peak
        ec = 0.9
        d = charge_dispersion(TransmonParams(EC=ec, EJ=0.0, n_cutoff=4), level=0)
        assert d == pytest.approx(ec, abs=1e-12)

    def test_flat_in_transmon_regime(self):
        p = TransmonParams(1.0, 50.0)
        d = charge_dispersion(p, level=0)
        w01 = solve(p).transition(0, 1)
        assert d / w01 < 1e-5

    def test_solves_each_grid_point_once(self, monkeypatch):
        # grids of 21, 41, 81, ... points, each holding the one before; one
        # solve per distinct point serves every refinement.  Each point is
        # one diagonal row through the shared tridiagonal kernel, and
        # distinct n_g give distinct rows.
        rows = []
        real = transmon.tridiagonal_spectrum
        monkeypatch.setattr(transmon, "tridiagonal_spectrum",
                            lambda diag, off: rows.extend(map(tuple, diag)) or real(diag, off))
        p = TransmonParams(1.0, 5.0)
        assert charge_dispersion(p, level=1) > 0.0
        assert len(rows) in (41, 81, 161, 321)
        assert len(set(rows)) == len(rows)

    @pytest.mark.parametrize("level", [-1, -11, 11, 99])
    def test_rejects_levels_outside_the_basis(self, level):
        # -1 would read the top level's dispersion, -11 the ground state's,
        # 99 fail inside the sweep
        p = TransmonParams(0.3, 15.0, n_cutoff=5)
        with pytest.raises(IndexError, match=r"outside \[0, 11\)"):
            charge_dispersion(p, level)

    @pytest.mark.parametrize("ratio", [0.0, 1.0, 5.0, 50.0])
    def test_refinement_matches_full_grid_solves(self, ratio):
        """The parent's refinement, which solved every point of every grid,
        kept as the reference: reusing the coarse points changes nothing."""
        p = TransmonParams(1.0, ratio, n_cutoff=10)

        def spread(n_points):
            vals = [solve(replace(p, ng=ng)).levels[0]
                    for ng in np.linspace(0.0, 1.0, n_points)]
            return float(max(vals) - min(vals))

        n_points = 21
        est = spread(n_points)
        while n_points < 321:
            n_points = 2 * n_points - 1
            new = spread(n_points)
            done = abs(new - est) <= 0.01 * abs(new)
            est = new
            if done:
                break
        assert charge_dispersion(p, level=0) == est


class TestAnharmonicity:
    def test_zero_ej(self):
        ec = 0.5
        s = solve(TransmonParams(EC=ec, EJ=0.0, n_cutoff=5))
        assert anharmonicity(s) == pytest.approx(8 * ec, rel=1e-12)

    def test_transmon_regime_value(self):
        s = solve(TransmonParams(1.0, 50.0))
        assert abs(anharmonicity(s) - (-1.0)) < 0.15

    def test_negative_across_regime(self):
        for ratio in (20.0, 50.0, 100.0):
            s = solve(TransmonParams(1.0, ratio))
            assert anharmonicity(s) < 0

    def test_needs_three_levels(self):
        s = solve(TransmonParams(1.0, 1.0, n_cutoff=1))
        assert s.n_levels == 3
        anharmonicity(s)  # exactly three is enough


def cos_phi_op(n_cutoff, sign=TunnelingSign.PLUS):
    """cos(phi) as a charge-basis matrix, consistent with ``sign`` so that
    -E_J cos(phi) reproduces the tunneling block of the Hamiltonian."""
    s = 1.0 if sign is TunnelingSign.PLUS else -1.0
    shift = np.eye(2 * n_cutoff + 1, k=1)
    return qops.Operator(-s * (shift + shift.T) / 2.0)


class TestPhaseOperators:
    def test_charge_velocity_identity(self):
        # i[H, n] = -EJ sin(phi) exactly in the truncated basis
        for sign in TunnelingSign:
            p = TransmonParams(0.8, 7.0, ng=0.3, n_cutoff=6, sign=sign)
            h = build_charge_hamiltonian(p).mat
            n = charge_number_op(p.n_cutoff).mat
            lhs = 1j * (h @ n - n @ h)
            rhs = -p.EJ * sin_phi_op(p.n_cutoff, sign).mat
            assert np.allclose(lhs, rhs, atol=1e-13, rtol=0)

    def test_cos_reproduces_tunneling_block(self):
        p = TransmonParams(0.8, 7.0, n_cutoff=4)
        h = build_charge_hamiltonian(p).mat
        n_vals = np.arange(-4, 5, dtype=float)
        diag = np.diag(4 * p.EC * (n_vals - p.ng) ** 2)
        rebuilt = diag - p.EJ * cos_phi_op(4, p.sign).mat
        assert np.allclose(h, rebuilt, atol=0, rtol=0)

    def test_hermitian(self):
        # an Operator is checked hermitian when it is built
        for sign in TunnelingSign:
            assert cos_phi_op(5, sign).dim == sin_phi_op(5, sign).dim == 11
