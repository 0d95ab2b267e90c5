import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from scipy.linalg import eigh

from fieldcqed import bath as bath_mod
from fieldcqed import checks, qops
from fieldcqed.bath import (
    InterfaceClosure,
    RegionPartition,
    cavity_modes_1d,
    coupling_coefficients,
    decay_simulation,
    global_mode_frequencies,
    normal_mode_spectrum,
    port_continuum,
    port_interface_trace,
    _coupled_form,
)
from fieldcqed.dynamics import Trajectory
from fieldcqed.errors import ContractViolationError, ModelError, NumericError

A = InterfaceClosure.PMC_CAVITY_PEC_PORT
B = InterfaceClosure.PEC_CAVITY_PMC_PORT
EPS = np.finfo(float).eps


def make_partition(bc=A, l=1.0, c=1.0, total=10.0):
    return RegionPartition(cavity_length=l, wave_speed=c, interface_bc=bc,
                           oracle_total_length=total)


def mode_shape(cavity, k, z):
    """u_k(z) = sqrt(2/l) sin(omega_k z / c), the cavity standing wave whose
    closed-form signed trace CavityModes.interface_trace returns."""
    l = cavity.part.cavity_length
    return np.sqrt(2.0 / l) * np.sin(cavity.freqs[k] * np.asarray(z, dtype=float) / cavity.part.wave_speed)


def commensurate_bath(cavity, n_bins):
    # grid spacing chosen so the oracle's port region holds a whole number of bins
    part = cavity.part
    delta = np.pi * part.wave_speed / part.port_length
    return port_continuum(cavity, omega_max=n_bins * delta, n_bins=n_bins)


def oracle_error(bc, n_cavity, n_bins, l=1.0, c=1.0, total=10.0, n_check=5):
    part = make_partition(bc, l, c, total)
    cavity = cavity_modes_1d(part, n_cavity)
    bath = commensurate_bath(cavity, n_bins)
    freqs = normal_mode_spectrum(bath)
    exact = global_mode_frequencies(part, n_check)
    return np.max(np.abs(freqs[:n_check] - exact) / exact)


_TUNED_CACHE = {}


def tuned_decay():
    """Weak-coupling run sized so the golden-rule window is clean:
    kappa/delta_omega ~ 10, recurrence time well past the fit window."""
    if "traj" not in _TUNED_CACHE:
        part = make_partition(A)
        cavity = cavity_modes_1d(part, 20)
        k_idx = 2
        delta = 0.01
        n_bins = int(round(2.5 * cavity.freqs[k_idx] / delta))
        bath = port_continuum(cavity, n_bins * delta, n_bins)
        t = np.linspace(0.0, 30.0, 601)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _TUNED_CACHE["traj"] = decay_simulation(bath, k_idx, t, coupling_scale=0.224)
        _TUNED_CACHE["delta"] = delta
    return _TUNED_CACHE["traj"], _TUNED_CACHE["delta"]


def test_quarter_wave_ladder():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 5)
    expected = np.array([1, 3, 5, 7, 9]) * np.pi / 2
    assert np.allclose(cavity.freqs, expected, rtol=1e-14)


def test_half_wave_ladder():
    part = make_partition(B)
    cavity = cavity_modes_1d(part, 4)
    assert np.allclose(cavity.freqs, np.array([1, 2, 3, 4]) * np.pi, rtol=1e-14)


def test_mode_shapes_orthonormal():
    # the integrands reduce to integer-frequency cosines, which a uniform
    # trapezoid rule integrates exactly, so tolerances are rounding-level
    z = np.linspace(0.0, 1.0, 4097)
    for bc in (A, B):
        cavity = cavity_modes_1d(make_partition(bc), 6)
        shapes = np.stack([mode_shape(cavity, k, z) for k in range(6)])
        gram = np.trapezoid(shapes[:, None, :] * shapes[None, :, :], z, axis=-1)
        assert np.allclose(gram, np.eye(6), atol=1e-12)


def test_interface_traces_closed_form():
    # u_k' - u_k: the PMC cavity closure zeroes the slope, the PEC one the value
    cavity = cavity_modes_1d(make_partition(A, l=2.0), 4)
    assert np.allclose(cavity.interface_trace(), [-1.0, 1.0, -1.0, 1.0], rtol=1e-15)
    cavity_b = cavity_modes_1d(make_partition(B, l=2.0), 4)
    assert np.allclose(cavity_b.interface_trace(), (-1.0) ** np.arange(1, 5) * cavity_b.freqs,
                       rtol=1e-15)


def test_interface_traces_match_mode_shape():
    # slope by a central difference of the mode shape, minus its value
    h = 1e-6
    for bc in (A, B):
        part = make_partition(bc, l=1.5, c=2.0)
        cavity = cavity_modes_1d(part, 3)
        l = part.cavity_length
        for k, trace in enumerate(cavity.interface_trace()):
            slope = (mode_shape(cavity, k, l + h) - mode_shape(cavity, k, l - h)) / (2 * h)
            assert trace == pytest.approx(slope - mode_shape(cavity, k, l), rel=1e-7)


def test_port_grid_placement():
    part = make_partition(A)
    bath = port_continuum(cavity_modes_1d(part, 1), omega_max=8.0, n_bins=8)
    assert np.allclose(bath.omega_grid, np.arange(1.0, 9.0), rtol=1e-14)
    assert bath.delta_omega * bath.n_bins == pytest.approx(8.0, rel=1e-12)
    offset = port_continuum(cavity_modes_1d(make_partition(B), 1), omega_max=8.0, n_bins=8)
    assert np.allclose(offset.omega_grid, np.arange(1.0, 9.0) - 0.5, rtol=1e-14)
    finer = port_continuum(cavity_modes_1d(part, 1), omega_max=8.0, n_bins=16)
    assert finer.delta_omega == pytest.approx(bath.delta_omega / 2)


def test_port_interface_traces():
    # psi_p + psi_p': the PEC port closure zeroes the value, the PMC one the slope
    grid = np.arange(1.0, 9.0)
    amp = np.sqrt(2.0 / (np.pi * 4.0))
    assert np.allclose(port_interface_trace(make_partition(A, c=4.0), grid), amp * grid / 4.0,
                       rtol=1e-15)
    assert np.allclose(port_interface_trace(make_partition(B, c=4.0), grid - 0.5), amp,
                       rtol=1e-15)


def test_validation_errors():
    with pytest.raises(ContractViolationError):
        RegionPartition(cavity_length=-1.0, wave_speed=1.0)
    with pytest.raises(ContractViolationError):
        RegionPartition(cavity_length=1.0, wave_speed=0.0)
    with pytest.raises(ContractViolationError):
        RegionPartition(cavity_length=1.0, wave_speed=1.0, oracle_total_length=0.5)
    assert make_partition(total=None).oracle_total_length == pytest.approx(10.0)
    with pytest.raises(ContractViolationError):
        cavity_modes_1d(make_partition(), 0)
    cavity = cavity_modes_1d(make_partition(), 3)
    with pytest.raises(ContractViolationError):
        port_continuum(cavity, omega_max=8.0, n_bins=7)
    with pytest.raises(ContractViolationError):
        port_continuum(cavity, omega_max=0.0, n_bins=8)


def test_bath_carries_its_cavity_and_couplings():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 5)
    bath = commensurate_bath(cavity, 40)
    assert bath.W.shape == (5, 40)
    assert bath.cavity is cavity
    assert bath.part is part
    assert np.array_equal(
        bath.W, coupling_coefficients(cavity, bath.omega_grid, bath.delta_omega))


# The construction before the bath was built in one step, kept as the
# reference the one-step construction must reproduce bit for bit: traces
# one index at a time, W as the signed product of the two nonvanishing
# traces, and the completion vector from the same per-index traces.

def _ref_cavity_value(cavity, k):
    if cavity.part.interface_bc is B:
        return 0.0
    return (-1.0) ** k * np.sqrt(2.0 / cavity.part.cavity_length)


def _ref_cavity_slope(cavity, k):
    part = cavity.part
    if part.interface_bc is A:
        return 0.0
    return (-1.0) ** (k + 1) * np.sqrt(2.0 / part.cavity_length) * cavity.freqs[k] / part.wave_speed


def _ref_port_value(part, grid, p):
    if part.interface_bc is A:
        return 0.0
    return np.sqrt(2.0 / (np.pi * part.wave_speed))


def _ref_port_slope(part, grid, p):
    c = part.wave_speed
    if part.interface_bc is B:
        return 0.0
    return np.sqrt(2.0 / (np.pi * c)) * grid[p] / c


def _ref_coupling(cavity, grid, delta):
    part = cavity.part
    c = np.float64(part.wave_speed)
    weights = np.full(grid.size, delta)
    if part.interface_bc is A:
        trace_k = np.array([_ref_cavity_value(cavity, k) for k in range(cavity.n_modes)])
        trace_p = np.array([_ref_port_slope(part, grid, p) for p in range(grid.size)])
        sign = -1.0
    else:
        trace_k = np.array([_ref_cavity_slope(cavity, k) for k in range(cavity.n_modes)])
        trace_p = np.array([_ref_port_value(part, grid, p) for p in range(grid.size)])
        sign = 1.0
    pref = (c**2 / 2.0) / np.sqrt(np.outer(cavity.freqs, grid))
    return sign * pref * np.outer(trace_k, trace_p) * np.sqrt(weights)[None, :]


def _ref_completion(cavity, grid, delta):
    part = cavity.part
    c = part.wave_speed
    k_cav, n_bins = cavity.n_modes, grid.size
    if part.interface_bc is A:
        coeff = c**2 * (2 * n_bins + 1) / (2.0 * (np.pi * c / delta))
        v = np.array([_ref_cavity_value(cavity, k) for k in range(k_cav)]) / np.sqrt(cavity.freqs)
        return slice(0, k_cav), coeff, v
    coeff = c**2 * (2 * k_cav + 1) / (2.0 * part.cavity_length)
    v = np.array([_ref_port_value(part, grid, p) for p in range(n_bins)])
    v = v * np.sqrt(np.full(n_bins, delta)) / np.sqrt(grid)
    return slice(k_cav, k_cav + n_bins), coeff, v


def _ref_coupled_matrix(cavity, grid, delta, lam, factor, completion=True):
    """diag(omega) + factor * (lam W blocks + lam^2 completion term): the
    one-excitation Hamiltonian for factor 1, the classical quadrature block
    for factor 2, assembled densely."""
    w = _ref_coupling(cavity, grid, delta)
    k_cav = cavity.n_modes
    om = np.concatenate([cavity.freqs, grid])
    m = np.zeros((om.size, om.size))
    m[:k_cav, k_cav:] = lam * w
    m[k_cav:, :k_cav] = lam * w.T
    if completion:
        block, coeff, v = _ref_completion(cavity, grid, delta)
        m[block, block] = lam * lam * coeff * np.outer(v, v)
    m *= factor
    m[np.diag_indices_from(m)] += om
    return m


@pytest.mark.parametrize("bc", [A, B])
@pytest.mark.parametrize("l, c, total, n_modes, n_bins", [
    (1.0, 1.0, 10.0, 20, 200), (0.0125, 1.25e8, 0.125, 7, 333), (2.5, 3.0, 7.0, 1, 8)])
def test_one_step_bath_matches_reference_construction(bc, l, c, total, n_modes, n_bins):
    cavity = cavity_modes_1d(make_partition(bc, l, c, total), n_modes)
    bath = commensurate_bath(cavity, n_bins)
    grid, delta = bath.omega_grid, bath.delta_omega
    assert np.array_equal(bath.W, _ref_coupling(cavity, grid, delta))
    _, ref_coeff, ref_v = _ref_completion(cavity, grid, delta)
    for factor in (1.0, 2.0):
        # the rank-one parts carry the completion term on the reference's block
        ref = _ref_coupled_matrix(cavity, grid, delta, 0.3, factor)
        c_block, z, b, sigma = _coupled_form(bath, 0.3, True, factor)
        assert np.array_equal(c_block, ref[:n_modes, :n_modes])
        assert np.array_equal(np.diag(grid) + sigma * np.outer(b, b), ref[n_modes:, n_modes:])
        assert np.allclose(np.outer(z, b), ref[:n_modes, n_modes:], rtol=4 * EPS, atol=0.0)
        if bc is B:
            # the port-side completion vector is b itself
            assert np.array_equal(b, ref_v)
            assert sigma == factor * 0.3 * 0.3 * ref_coeff


def test_zero_coupling_spectrum_is_plain_union():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 6)
    bath = commensurate_bath(cavity, 30)
    freqs = normal_mode_spectrum(bath, coupling_scale=0.0)
    union = np.sort(np.concatenate([cavity.freqs, bath.omega_grid]))
    assert np.allclose(freqs, union, rtol=1e-12)


def test_spectrum_matches_global_oracle():
    assert oracle_error(A, 20, 200) < 5e-3


def test_spectrum_matches_global_oracle_other_closure():
    assert oracle_error(B, 20, 200) < 5e-3


def test_spectrum_error_shrinks_with_refinement():
    errs = [oracle_error(A, 20, n) for n in (50, 100, 200)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 2e-3


def test_spectrum_oracle_in_physical_units():
    err = oracle_error(A, 20, 200, l=0.0125, c=1.25e8, total=0.125)
    assert err < 5e-3
    err_b = oracle_error(B, 20, 200, l=0.0125, c=1.25e8, total=0.125)
    assert err_b < 5e-3


def test_indefinite_without_boundary_completion():
    for bc in (A, B):
        part = make_partition(bc)
        cavity = cavity_modes_1d(part, 20)
        bath = commensurate_bath(cavity, 200)
        with pytest.raises(ModelError, match="completion"):
            normal_mode_spectrum(bath, boundary_completion=False)


def reference_quadrature_form(bath, lam, completion=True):
    """S M S with S = diag(sqrt(omega)) and M the reference form at factor 2."""
    s = np.sqrt(np.concatenate([bath.cavity.freqs, bath.omega_grid]))
    m = _ref_coupled_matrix(bath.cavity, bath.omega_grid, bath.delta_omega, lam, 2.0, completion)
    return s[:, None] * m * s[None, :]


@given(closure=st.sampled_from([A, B]), completion=st.booleans(), lam=st.floats(0.0, 1.0),
       n_modes=st.integers(1, 20), n_bins=st.integers(8, 400))
def test_normal_modes_match_dense_quadrature_form(closure, completion, lam, n_modes, n_bins):
    """The secular solve of the quadrature form reproduces its dense
    eigenvalues to 1e-12 of the largest, and raises the ModelError exactly
    when the dense minimum eigenvalue is not positive."""
    bath = commensurate_bath(cavity_modes_1d(make_partition(closure), n_modes), n_bins)
    dense = np.linalg.eigvalsh(reference_quadrature_form(bath, lam, completion))
    scale = np.abs(dense).max()
    # the sign of a minimum at rounding level is not defined by either solve
    assume(abs(dense[0]) > 16 * EPS * scale)
    if dense[0] <= 0.0:
        with pytest.raises(ModelError, match="not positive definite"):
            normal_mode_spectrum(bath, lam, completion)
    else:
        freqs = normal_mode_spectrum(bath, lam, completion)
        assert np.max(np.abs(freqs**2 - dense)) <= 1e-12 * scale


@pytest.mark.parametrize("completion, advice", [
    (False, "the boundary completion term is required"),
    (True, "reduce the port bin width omega_max/n_bins (1.250e+16) or coupling_scale (1)"),
])
def test_indefinite_form_names_what_to_change(completion, advice):
    # 8 bins up to 1e17 on the 20-mode cavity: the completion term is on in
    # the second case, so only a finer grid or a weaker coupling helps
    bath = port_continuum(cavity_modes_1d(make_partition(A), 20), omega_max=1e17, n_bins=8)
    with pytest.raises(ModelError, match="not positive definite") as exc:
        normal_mode_spectrum(bath, 1.0, completion)
    assert str(exc.value).endswith(advice)


@pytest.mark.parametrize("closure", [A, B])
def test_normal_modes_match_extended_precision_oracle(closure):
    """The lowest five frequencies of a 50-dimensional form (the 20 cavity
    modes of the bath check, 30 bins) match a 40-digit eigensolve of the
    same form to 5e-14 relative; the dense float64 eigvalsh of that form
    misses by 1.4e-13 (PMC cavity) and 2.2e-13 (PEC cavity)."""
    mpmath = pytest.importorskip("mpmath")
    bath = commensurate_bath(cavity_modes_1d(make_partition(closure), 20), 30)
    q = reference_quadrature_form(bath, 1.0)
    with mpmath.workdps(40):
        exact = mpmath.eigsy(mpmath.matrix(q.tolist()), eigvals_only=True)
        exact = np.sort([float(mpmath.sqrt(x)) for x in exact])[:5]
    freqs = normal_mode_spectrum(bath)[:5]
    assert np.max(np.abs(freqs - exact) / exact) < 5e-14


def one_excitation_spectrum(bath, lam, completion):
    """The secular solve inside decay_simulation: ``_coupled_form`` at factor
    1 through ``qops.rank_one_coupling_spectrum``.  Returns ``(Spectrum,
    secular_iterations)``."""
    c, z, b, sigma = _coupled_form(bath, float(lam), completion, 1.0)
    return qops.rank_one_coupling_spectrum(qops.Operator(c), z, bath.omega_grid, b, sigma)


def test_decay_zero_coupling_is_constant():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 4)
    bath = commensurate_bath(cavity, 40)
    traj = decay_simulation(bath, 0, np.linspace(0.0, 10.0, 101), coupling_scale=0.0)
    assert np.allclose(traj.series["cavity_population"], 1.0, atol=1e-12)


@pytest.mark.parametrize("bc", [A, B])
@pytest.mark.parametrize("completion", [True, False])
def test_zero_coupling_is_exact_decoupling(bc, completion):
    # no secular equation is solved: the spectrum is the union of the two
    # regions and every cavity mode is its own eigenvector
    cavity = cavity_modes_1d(make_partition(bc), 5)
    bath = commensurate_bath(cavity, 30)
    spec, iterations = one_excitation_spectrum(bath, 0.0, completion)
    assert iterations == 0
    assert np.array_equal(spec.evals, np.sort(np.concatenate([cavity.freqs, bath.omega_grid])))
    cavity_columns = np.isin(spec.evals, cavity.freqs)
    assert np.array_equal(spec.vecs[:, cavity_columns], np.eye(5))
    assert not spec.vecs[:, ~cavity_columns].any()
    traj = decay_simulation(bath, 3, np.linspace(0.0, 10.0, 11), 0.0, completion)
    assert np.array_equal(traj.series["cavity_population"], np.ones(11))
    assert traj.metadata["spectral_weight_deficit"] == 0.0


def dense_one_excitation(bath, lam, completion):
    return qops.spectrum(qops.Operator(_ref_coupled_matrix(
        bath.cavity, bath.omega_grid, bath.delta_omega, lam, 1.0, completion)))


def cavity_populations(evals, rows, t):
    """|<k| exp(-i H t) |j>|^2 for every pair of cavity modes."""
    return np.abs((rows * np.exp(-1j * evals * t)) @ rows.T) ** 2


@given(closure=st.sampled_from([A, B]), completion=st.booleans(), lam=st.floats(0.0, 1.0),
       n_modes=st.integers(1, 20), n_bins=st.integers(8, 400))
def test_secular_solve_matches_dense_eigh(closure, completion, lam, n_modes, n_bins):
    """The secular solve reproduces the dense eigendecomposition of the
    one-excitation Hamiltonian: every eigenvalue to 1e-12 of the largest,
    and every cavity-to-cavity population of the propagator, up to the
    time over which the dense solve's own rounding stays below the bound."""
    bath = commensurate_bath(cavity_modes_1d(make_partition(closure), n_modes), n_bins)
    spec, _ = one_excitation_spectrum(bath, lam, completion)
    dense = dense_one_excitation(bath, lam, completion)
    scale = np.abs(dense.evals).max()
    assert np.max(np.abs(spec.evals - dense.evals)) <= 1e-12 * scale
    for t in (0.0, 1.0, 3.0, 10.0):
        assert np.max(np.abs(cavity_populations(spec.evals, spec.vecs, t)
                             - cavity_populations(dense.evals, dense.vecs[:n_modes], t))) < 1e-12


def test_decay_population_bounded_and_unitary():
    traj, _ = tuned_decay()
    pop = traj.series["cavity_population"]
    assert np.all(pop > -1e-10)
    assert np.all(pop < 1.0 + 1e-10)
    assert np.max(np.abs(traj.series["norm"] - 1.0)) < 1e-10


def test_decay_rate_matches_golden_rule():
    traj, _ = tuned_decay()
    ratio = traj.metadata["kappa_fit"] / traj.metadata["kappa_golden_rule"]
    assert abs(ratio - 1.0) < 0.10


@pytest.mark.parametrize("t", [np.array([0.0, 0.5, np.nan, 1.5]),
                               np.array([0.0, 0.5, 1.0, np.inf])])
def test_decay_rejects_nonfinite_grid_before_any_work(monkeypatch, t):
    # a non-finite grid used to give NaN cavity populations without a word
    def no_work(*args):
        raise AssertionError("decay_simulation solved for the spectrum before checking the grid")
    monkeypatch.setattr(bath_mod, "rank_one_coupling_spectrum", no_work)
    bath = commensurate_bath(cavity_modes_1d(make_partition(A), 4), 50)
    with pytest.raises(ContractViolationError, match="finite"):
        decay_simulation(bath, 0, t)


def test_decay_metadata():
    traj, delta = tuned_decay()
    assert traj.metadata["rotating_wave"] is True
    assert traj.metadata["counter_rotating_dropped"] is True
    assert traj.metadata["recurrence_time"] == pytest.approx(2 * np.pi / delta)
    assert traj.metadata["kappa_fit"] > 0
    assert 0 <= traj.metadata["resonant_bin"] < 2000


def test_decay_reports_secular_solve_deterministically():
    traj, _ = tuned_decay()
    meta = traj.metadata
    assert isinstance(meta["secular_iterations"], int) and 1 <= meta["secular_iterations"] <= 16
    # the norm column is the completeness of the starting cavity row
    norm = traj.series["norm"]
    assert np.all(norm == norm[0])
    assert meta["spectral_weight_deficit"] == pytest.approx(abs(1.0 - norm[0] ** 2), abs=1e-15)
    assert meta["spectral_weight_deficit"] < 1e-12
    again = decay_simulation(bath_suite_bath(), 2, np.linspace(0.0, 30.0, 601),
                             coupling_scale=0.224)
    assert again.metadata == meta
    assert np.array_equal(again.series["cavity_population"], traj.series["cavity_population"])


def test_golden_rule_metadata_without_a_fit_window():
    # the population never falls below 0.9 on this grid, so there is no fit,
    # but the golden-rule rate and its bin are still reported
    bath = commensurate_bath(cavity_modes_1d(make_partition(A), 4), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = decay_simulation(bath, 0, np.linspace(0.0, 0.05, 11), coupling_scale=0.224)
    assert traj.series["cavity_population"].min() > 0.9
    assert "kappa_fit" not in traj.metadata
    resonant = traj.metadata["resonant_bin"]
    assert resonant == int(np.argmin(np.abs(bath.omega_grid - bath.cavity.freqs[0])))
    assert traj.metadata["kappa_golden_rule"] == pytest.approx(
        2 * np.pi * (0.224 * bath.W[0, resonant]) ** 2 / bath.delta_omega, rel=1e-15)


def bath_suite_bath():
    """The decay run of ``checks.bath_suite``: 20 modes, 1963 bins."""
    cavity = cavity_modes_1d(make_partition(A), 20)
    n_bins = int(round(2.5 * cavity.freqs[2] / 0.01))
    return port_continuum(cavity, n_bins * 0.01, n_bins)


def test_decay_solves_no_dense_problem_beyond_the_cavity(monkeypatch):
    bath = bath_suite_bath()
    dims = []

    def small_eigh(a, *args, **kwargs):
        dims.append(np.shape(a)[0])
        if np.shape(a)[0] > bath.cavity.n_modes:
            raise AssertionError(f"dense eigensolver called at dimension {np.shape(a)[0]}")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(qops, "eigh", small_eigh)
    traj = decay_simulation(bath, 2, np.linspace(0.0, 30.0, 601), coupling_scale=0.224)
    assert dims == [bath.cavity.n_modes]
    assert "kappa_fit" in traj.metadata


def test_decay_memory_stays_below_one_dense_matrix():
    bath = bath_suite_bath()
    dim = bath.cavity.n_modes + bath.n_bins
    t = np.linspace(0.0, 30.0, 601)
    tracemalloc.start()
    try:
        decay_simulation(bath, 2, t, coupling_scale=0.224)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dim * dim * 8


def test_decay_rate_insensitive_to_frequency_cutoff():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 8)
    delta = 0.02
    rates = []
    for mult in (1, 2):
        n_bins = int(round(mult * 2.5 * cavity.freqs[1] / delta))
        bath = port_continuum(cavity, n_bins * delta, n_bins)
        traj = decay_simulation(bath, 1, np.linspace(0.0, 30.0, 601),
                                coupling_scale=0.224)
        rates.append(traj.metadata["kappa_fit"])
    assert abs(rates[1] - rates[0]) / rates[0] < 0.05


def test_decay_other_closure_weak_coupling():
    # the completion term dresses the port spectrum at second order in the
    # coupling scale, so the golden-rule match needs a weaker drive here
    part = make_partition(B)
    cavity = cavity_modes_1d(part, 1)
    delta = 0.02
    n_bins = int(round(2.5 * cavity.freqs[0] / delta))
    bath = port_continuum(cavity, n_bins * delta, n_bins)
    traj = decay_simulation(bath, 0, np.linspace(0.0, 120.0, 1301),
                            coupling_scale=0.112)
    ratio = traj.metadata["kappa_fit"] / traj.metadata["kappa_golden_rule"]
    assert abs(ratio - 1.0) < 0.10


def test_decay_coarse_bath_warns_of_recurrence():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 8)
    delta = 0.05
    n_bins = int(round(2.5 * cavity.freqs[1] / delta))
    bath = port_continuum(cavity, n_bins * delta, n_bins)
    t_rec = 2 * np.pi / delta
    with pytest.warns(UserWarning, match="recurrence"):
        traj = decay_simulation(bath, 1, np.linspace(0.0, 1.4 * t_rec, 1200),
                                coupling_scale=0.224)
    assert "kappa_fit" not in traj.metadata
    assert {"kappa_golden_rule", "resonant_bin", "recurrence_time"} <= traj.metadata.keys()


def test_decay_without_recurrence_blames_the_fit():
    # the golden-rule rate exceeds the mode frequency, so the population
    # stalls near 0.8 long before the bath recurs at 2*pi/delta_omega
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 20)
    bath = commensurate_bath(cavity, 200)
    t = np.linspace(0.0, 1.0, 601)
    with pytest.warns(UserWarning, match="does not follow an exponential decay") as record:
        traj = decay_simulation(bath, 0, t)
    assert not any("recurrence" in str(w.message) for w in record)
    assert t[-1] < traj.metadata["recurrence_time"]
    assert "kappa_fit" not in traj.metadata
    assert {"kappa_golden_rule", "resonant_bin", "recurrence_time"} <= traj.metadata.keys()


def test_bath_suite_fails_without_a_fit(monkeypatch):
    # a decay run whose fit did not hold carries no kappa_fit
    fitless = Trajectory(times=np.linspace(0.0, 1.0, 2), series={},
                         metadata={"kappa_golden_rule": 0.1, "recurrence_time": 600.0})
    monkeypatch.setattr(checks, "_bath_oracle_error", lambda n_bins: 0.1 / n_bins)
    monkeypatch.setattr(checks.bath_mod, "decay_simulation", lambda *a, **k: fitless)
    results, scalars = checks.bath_suite()
    rate = results[-1]
    assert rate.name == "decay rate vs golden rule" and not rate.passed
    assert np.isnan(rate.value) and np.isnan(scalars["kappa_fit"])
    assert all(r.passed for r in results[:-1])


def test_decay_mode_index_bounds():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 3)
    bath = commensurate_bath(cavity, 30)
    with pytest.raises(IndexError):
        decay_simulation(bath, 3, np.linspace(0.0, 1.0, 8))


def test_global_oracle_frequencies():
    part = make_partition(A, l=1.0, c=2.0, total=8.0)
    freqs = global_mode_frequencies(part, 3)
    assert np.allclose(freqs, np.array([1, 2, 3]) * np.pi / 4.0, rtol=1e-14)


def reference_decay(bath, k, t, lam, boundary_completion=True):
    """Cavity population and norm as decay_simulation computed them before
    it went through qops.spectrum: its own eigh of the one-excitation
    Hamiltonian and a complex product with the eigenvectors."""
    cavity = bath.cavity
    k_cav = cavity.n_modes
    dim = k_cav + bath.n_bins
    h = np.zeros((dim, dim))
    h[:k_cav, :k_cav] = np.diag(cavity.freqs)
    h[k_cav:, k_cav:] = np.diag(bath.omega_grid)
    h[:k_cav, k_cav:] = lam * bath.W
    h[k_cav:, :k_cav] = lam * bath.W.T
    if boundary_completion:
        block, coeff, v = _ref_completion(cavity, bath.omega_grid, bath.delta_omega)
        h[block, block] += lam**2 * coeff * np.outer(v, v)
    evals, vecs = eigh(h)
    c0 = vecs[k, :].conj()
    amps = vecs @ (np.exp(-1j * np.outer(evals, t)) * c0[:, None])
    return np.sum(np.abs(amps[:k_cav, :]) ** 2, axis=0), np.linalg.norm(amps, axis=0)


def check_decay_against_reference(bc, k, lam, completion):
    part = make_partition(bc)
    cavity = cavity_modes_1d(part, 20)
    bath = commensurate_bath(cavity, 400)
    t = np.linspace(0.0, 30.0, 301)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        traj = decay_simulation(bath, k, t, coupling_scale=lam, boundary_completion=completion)
    pop, norm = reference_decay(bath, k, t, lam, boundary_completion=completion)
    assert np.max(np.abs(traj.series["cavity_population"] - pop)) < 1e-12
    assert np.max(np.abs(traj.series["norm"] - norm)) < 1e-12


@pytest.mark.parametrize("bc, k, lam", [(A, 2, 0.224), (B, 1, 0.3)])
def test_decay_matches_inline_eigh_reference(bc, k, lam):
    check_decay_against_reference(bc, k, lam, completion=True)


@pytest.mark.parametrize("bc, k, lam", [(A, 2, 0.224), (B, 1, 0.3)])
def test_decay_without_completion_matches_inline_eigh_reference(bc, k, lam):
    check_decay_against_reference(bc, k, lam, completion=False)


def test_overflowing_coupling_scale_is_a_numeric_error():
    part = make_partition(A)
    cavity = cavity_modes_1d(part, 4)
    bath = commensurate_bath(cavity, 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="coupling_scale"):
            normal_mode_spectrum(bath, coupling_scale=1e200)
        with pytest.raises(NumericError):
            decay_simulation(bath, 0, np.linspace(0.0, 1.0, 8), coupling_scale=1e200)


@pytest.mark.parametrize("bc", [A, B])
def test_overflowing_wave_speed_is_a_numeric_error(bc):
    # c**2 overflows a float; without the guard this raised OverflowError
    part = make_partition(bc, c=1e200)
    cavity = cavity_modes_1d(part, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite"):
            commensurate_bath(cavity, 40)
