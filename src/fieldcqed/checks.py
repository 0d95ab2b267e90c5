"""Self-contained oracle suites exercising the library's headline identities.

Each suite pins its own parameters, runs at desk scale, and reports results
against closed-form estimates or cross-implementation comparisons rather
than stored outputs.  The CLI ``check`` subcommand prints these and the
acceptance tests re-run them at the published tolerances.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import bath as bath_mod
from . import coupled as coupled_mod
from . import dynamics as dyn
from . import transmon as tq
from . import txline as tx

GHZ = 2 * np.pi * 1e9  # rad/s per (2*pi GHz) unit


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    bound: float
    detail: str = ""

    def as_dict(self) -> dict:
        d = asdict(self)
        d["value"] = float(d["value"])
        d["bound"] = float(d["bound"])
        return d


def _under(name, value, bound, detail=""):
    return CheckResult(name, bool(value < bound), float(value), float(bound), detail)


def transmon_regime_suite():
    """Deep-transmon asymptotics at EC=0.3, EJ=15 (units of 2*pi GHz)."""
    p = tq.TransmonParams(EC=0.3, EJ=15.0, n_cutoff=20)
    s = tq.solve(p)
    w01 = s.transition(0, 1)
    disp = tq.charge_dispersion(p, level=0)
    anh = tq.anharmonicity(s)
    me01 = abs(tq.charge_matrix_element(s, 0, 1))
    me02 = abs(tq.charge_matrix_element(s, 0, 2))
    me_est = (p.EJ / (8 * p.EC)) ** 0.25 / np.sqrt(2.0)
    results = [
        _under("ground dispersion over omega01", disp / w01, 1e-5),
        _under("anharmonicity near -EC", abs(anh + p.EC) / p.EC, 0.15,
               f"anharmonicity {anh:.6f}"),
        _under("charge element 0-1 asymptotic", abs(me01 - me_est) / me_est, 0.03,
               f"|<0|n|1>| {me01:.6f} vs {me_est:.6f}"),
        _under("charge element 0-2 suppressed", me02 / me01, 0.05),
    ]
    scalars = {"anharmonicity_2pi_ghz": float(anh), "omega01_2pi_ghz": float(w01),
               "dispersion_ratio": float(disp / w01), "charge_element_01": float(me01)}
    return results, scalars


def gauge_invariance_suite():
    """Tunneling sign conventions are related by a diagonal gauge, so the
    spectra must agree to rounding across the (EJ/EC, ng) plane."""
    ec = 0.3
    grid = [(5.0, 0.0), (15.0, 0.25), (30.0, 0.5), (50.0, 0.3), (80.0, 0.15)]
    worst = 0.0
    for ratio, ng in grid:
        plus, minus = (tq.level_sweep(tq.TransmonParams(EC=ec, EJ=ratio * ec, sign=sign), [ng])[0]
                       for sign in tq.TunnelingSign)
        scale = max(np.max(np.abs(plus)), 1.0)
        worst = max(worst, float(np.max(np.abs(plus - minus)) / scale))
    results = [_under("spectrum gauge invariance", worst, 1e-12,
                      "5-point (EJ/EC, ng) grid")]
    return results, {"gauge_spread": worst}


def correspondence_suite():
    """Field-integral energies against line-voltage energies, and the
    field-built coupling Hamiltonian against the lumped-rate build."""
    line = tx.LineParams(4.0e-7, 1.6e-10, 0.0125)
    xsec = tx.matched_cross_section(line)
    modes = tx.mode_operator_coeffs(tx.compute_modes(line, 5), xsec)
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(20):
        q = rng.normal(size=5) + 1j * rng.normal(size=5)
        p = rng.normal(size=5) + 1j * rng.normal(size=5)
        e_field, e_line = tx.energy_correspondence(modes, xsec, q, p)
        worst = max(worst, abs(e_field - e_line) / abs(e_line))
    ts = tq.solve(tq.TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ))
    cmodes = tx.mode_operator_coeffs(tx.compute_modes(line, 3), xsec)
    cs = coupled_mod.CouplingSpec(beta=0.2, z0=0.3 * line.length)
    h_field, _, max_diff = coupled_mod.field_reduction_check(
        ts, cmodes, xsec, cs, m=3, fock_cutoffs=(2, 2, 2))
    h_scale = float(np.max(np.abs(h_field.mat)))
    results = [
        _under("field vs line energy", worst, 1e-9, "5 modes, 20 random draws"),
        _under("field-integral coupling reduction", max_diff / h_scale, 1e-9,
               "3 modes x 3 transmon levels"),
    ]
    return results, {"energy_correspondence_rel": worst,
                     "reduction_rel": float(max_diff / h_scale)}


def coupled_dynamics_suite():
    """Resonant two-level-plus-mode exchange oscillation against pi/g."""
    ts = tq.solve(tq.TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ))
    w01 = ts.transition(0, 1)
    line = tx.LineParams(4.0e-7, 1.6e-10, np.pi * 1.25e8 / w01)
    modes = tx.mode_operator_coeffs(
        tx.compute_modes(line, 1, tx.LongitudinalNorm.FULL_LENGTH),
        tx.matched_cross_section(line))
    g_unit = coupled_mod.coupling_strength(
        ts, modes, coupled_mod.CouplingSpec(1.0, 0.0), 0, 1, 0)
    beta = 0.01 * w01 / abs(g_unit)
    # cutoff 6 keeps the counter-rotating ladder that shifts the period
    # at order (g/omega)^2; cutoff 2 would decouple it and hide the effect
    built = coupled_mod.build_nn_hamiltonian(
        ts, modes, coupled_mod.CouplingSpec(beta, 0.0), 2, (6,))
    g = abs(built.g_table[0, 1, 0])
    period_rwa = np.pi / g
    t = np.linspace(0.0, 1.3 * period_rwa, 10001)
    psi0 = built.basis_state(1, (0,))
    # population of |1, 0>: the diagonal projector on psi0
    traj = dyn.evolve(built, psi0, t, {"excited": dyn.Operator(np.diag(psi0.amps.real))})
    period = dyn.first_return_period(t, traj.series["excited"])
    norm_drift = float(np.max(np.abs(traj.series["norm"] - 1.0)))
    results = [
        _under("vacuum exchange period", abs(period - period_rwa) / period_rwa, 5e-4,
               "g/omega = 0.01"),
        _under("norm drift over 1e4 steps", norm_drift, 1e-9),
    ]
    return results, {"g_rad_s": float(g), "exchange_period_s": float(period),
                     "norm_drift": norm_drift}


def _bath_oracle_error(n_bins):
    part = bath_mod.RegionPartition(1.0, 1.0, oracle_total_length=10.0)
    cavity = bath_mod.cavity_modes_1d(part, 20)
    delta = np.pi / part.port_length
    b = bath_mod.port_continuum(cavity, n_bins * delta, n_bins)
    freqs = bath_mod.normal_mode_spectrum(b)
    exact = bath_mod.global_mode_frequencies(part, 5)
    return float(np.max(np.abs(freqs[:5] - exact) / exact))


def bath_suite():
    """Partitioned spectrum against the closed universe, plus golden rule."""
    errs = [_bath_oracle_error(n) for n in (50, 100, 200)]
    part = bath_mod.RegionPartition(1.0, 1.0, oracle_total_length=10.0)
    cavity = bath_mod.cavity_modes_1d(part, 20)
    k_idx = 2
    delta = 0.01
    n_bins = int(round(2.5 * cavity.freqs[k_idx] / delta))
    b = bath_mod.port_continuum(cavity, n_bins * delta, n_bins)
    traj = bath_mod.decay_simulation(b, k_idx, np.linspace(0.0, 30.0, 601),
                                     coupling_scale=0.224)
    kappa = traj.metadata.get("kappa_fit", np.nan)  # absent when the fit did not hold
    kappa_gr = traj.metadata["kappa_golden_rule"]
    results = [
        _under("partitioned spectrum vs closed universe", errs[-1], 5e-3,
               "20 cavity modes, 200 bins, lowest 5"),
        _under("spectrum error monotone under bin doubling",
               max(errs[1] / errs[0], errs[2] / errs[1]), 1.0,
               f"errors {errs[0]:.2e} > {errs[1]:.2e} > {errs[2]:.2e}"),
        _under("decay rate vs golden rule", abs(kappa / kappa_gr - 1.0), 0.10,
               f"fit {kappa:.5f}, golden rule {kappa_gr:.5f}"),
    ]
    return results, {"kappa_fit": float(kappa), "kappa_golden_rule": float(kappa_gr)}


def equations_of_motion_suite():
    """Classical, symplectic, and Ehrenfest consistency of the same dynamics.

    Memory: the 1e6-step leapfrog runs through
    :func:`fieldcqed.dynamics.secular_energy_ratio`, which holds two blocks
    of ``qops._BLOCK`` floats besides its 8 MB time grid; the only kept
    trajectory is the 40001-point frequency run.

    Time: both leapfrog runs step in the compiled kernel of
    :mod:`fieldcqed.dynamics` when it is available and in its Python loop
    otherwise; the results, and so ``checks.json``, are the same bytes.
    """
    p = tq.TransmonParams(EC=0.3, EJ=15.0, n_cutoff=20)
    w_p = np.sqrt(8 * p.EC * p.EJ)

    t = np.linspace(0.0, 20 * 2 * np.pi / w_p, 40001)
    traj = dyn.classical_trajectory(p, dyn.ClassicalState(phi=0.01, n=0.0), t)
    phi = traj.series["phi"]
    crossings = np.where(np.diff(np.sign(phi)) != 0)[0]
    period = 2 * (t[crossings[-1]] - t[crossings[0]]) / (crossings.size - 1)
    w_meas = 2 * np.pi / period

    secular_ratio = dyn.secular_energy_ratio(
        p, dyn.ClassicalState(phi=0.3, n=0.0),
        np.linspace(0.0, 1000 * 2 * np.pi / w_p, 1_000_001))

    s = tq.solve(p)
    psi0 = dyn.StateVector.from_amplitudes(s.eigvecs[:, 0] + 1j * s.eigvecs[:, 1])
    resid = dyn.ehrenfest_check(p, psi0, np.linspace(0.0, 2.0, 8001))
    resid_half = dyn.ehrenfest_check(p, psi0, np.linspace(0.0, 2.0, 16001))
    order = float(np.log2(resid / resid_half))

    results = [
        _under("classical small-oscillation frequency", abs(w_meas - w_p) / w_p, 0.01,
               f"measured {w_meas:.5f} vs sqrt(8 EC EJ) = {w_p:.5f}"),
        _under("symplectic energy error non-secular", secular_ratio, 2.0,
               "second-half vs first-half envelope over 1e6 steps"),
        _under("charge-flow consistency residual", resid, 1e-6),
        CheckResult("charge-flow residual order in dt", bool(1.5 < order < 2.5),
                    order, 2.0, "halving dt should quarter the residual"),
    ]
    scalars = {"classical_frequency": float(w_meas), "ehrenfest_residual": float(resid)}
    return results, scalars


SUITES = {
    "transmon_regime": transmon_regime_suite,
    "gauge_invariance": gauge_invariance_suite,
    "field_circuit_correspondence": correspondence_suite,
    "coupled_dynamics": coupled_dynamics_suite,
    "bath_partition": bath_suite,
    "equations_of_motion": equations_of_motion_suite,
}


def run_all(progress=None):
    """Run every suite; returns (results_by_suite, merged_scalars)."""
    all_results = {}
    scalars = {}
    for name, fn in SUITES.items():
        if progress is not None:
            progress(f"running {name}")
        results, sc = fn()
        all_results[name] = results
        scalars.update(sc)
    return all_results, scalars
