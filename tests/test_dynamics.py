import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import eigh

from fieldcqed import dynamics
from fieldcqed.coupled import (
    CouplingSpec,
    build_full_hamiltonian,
    build_nn_hamiltonian,
    coupling_strength,
    total_excitation_op,
)
from fieldcqed.dynamics import (
    ClassicalState,
    Trajectory,
    classical_trajectory,
    ehrenfest_check,
    ehrenfest_residual,
    evolve,
    first_return_period,
    secular_energy_ratio,
)
from fieldcqed.errors import (
    ContractViolationError,
    DimensionMismatchError,
    NumericError,
    StepSizeError,
)
from fieldcqed.qops import _BLOCK, Operator, StateVector, annihilation_op, spectrum
from fieldcqed.transmon import TransmonParams, sin_phi_op, solve
from fieldcqed.txline import (
    LineParams,
    LongitudinalNorm,
    compute_modes,
    matched_cross_section,
    mode_operator_coeffs,
)

GHZ = 2 * np.pi * 1e9


def propagated(spec, amps, times):
    """Every state ``spec.propagate`` streams, as the columns of one array."""
    return np.hstack([states[:, :cols.stop - cols.start]
                      for cols, states in spec.propagate(amps, times)])


def random_hermitian(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return Operator((m + m.conj().T) / 2)


def projector(psi):
    """The diagonal projector on the basis state ``psi``: its population
    as an ``evolve`` observable."""
    return Operator(np.diag(np.abs(psi.amps) ** 2))


def reference_evolve(h_mat, psi0, t, observables):
    """Complex eigh and the three-operand contraction, as evolve was first
    written: the reference for the real-symmetric path and the
    matrix-product contraction."""
    evals, vecs = eigh(h_mat.astype(complex))
    c0 = vecs.conj().T @ psi0.amps
    states = vecs @ (np.exp(-1j * np.outer(evals, t)) * c0[:, None])
    series = {"norm": np.linalg.norm(states, axis=0),
              "energy": np.einsum("it,ij,jt->t", states.conj(), h_mat, states).real}
    for name, op in observables.items():
        series[name] = np.einsum("it,ij,jt->t", states.conj(), op.mat, states).real
    return series


class TestTrajectory:
    def test_lengths_validated(self):
        with pytest.raises(Exception):
            Trajectory(times=np.array([0.0, 1.0]), series={"x": np.zeros(3)})

    def test_monotonic_times(self):
        with pytest.raises(ContractViolationError):
            Trajectory(times=np.array([0.0, 1.0, 0.5]), series={})

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finite_times(self, bad):
        with pytest.raises(ContractViolationError, match="finite"):
            Trajectory(times=np.array([0.0, 1.0, bad]), series={})

    @pytest.mark.parametrize("t", [[], [0.0], [[0.0, 1.0]]])
    def test_grid_needs_two_points_in_one_dimension(self, t):
        with pytest.raises(ContractViolationError, match="1D time grid with at least 2 points"):
            dynamics.time_grid(t)


_TINY = 5e-324  # the smallest subnormal


@given(points=st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                 st.sampled_from([0.0, -0.0, _TINY, -_TINY, 1e308, -1e308])),
                       min_size=2, max_size=8),
       ascending=st.booleans())
@example(points=[-1e308, 1e308], ascending=False)  # the spacing overflows to inf
@example(points=[0.0, _TINY, 2 * _TINY], ascending=False)
@example(points=[1.0, 1.0], ascending=False)
@example(points=[0.0, -0.0], ascending=False)
def test_ascending_test_agrees_with_the_spacing_sign(points, ascending):
    """On finite grids, ``t[1:] <= t[:-1]`` rejects what ``np.diff(t) <= 0`` does."""
    t = np.array(sorted(points) if ascending else points)
    with np.errstate(over="ignore"):
        rejected = bool(np.any(np.diff(t) <= 0))
    if rejected:
        with pytest.raises(ContractViolationError) as exc:
            dynamics.time_grid(t)
        assert str(exc.value) == "time grid must be strictly ascending"
    else:
        assert np.array_equal(dynamics.time_grid(t), t)


@given(x=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20),
       which=st.sampled_from(["max", "min", "first", "other"]),
       other=st.floats(allow_nan=False, allow_infinity=False))
@example(x=[-0.0], which="other", other=0.0)
@example(x=[1e308, -1e308], which="first", other=0.0)
def test_envelope_of_the_extremes_is_the_abs_max(x, which, other):
    x = np.array(x)
    x0 = {"max": x.max(), "min": x.min(), "first": x[0], "other": other}[which]
    with np.errstate(over="ignore"):
        envelope = float(np.max(np.abs(x - x0)))
        assert repr(dynamics._envelope(x.max(), x.min(), x0)) == repr(envelope)


# a NaN passes the ascending test (t[k+1] <= t[k] is False next to a NaN)
NONFINITE_GRIDS = [np.array([0.0, 0.5, np.nan, 1.5]), np.array([0.0, 0.5, 1.0, np.inf])]


class TestEvolve:
    def test_eigenstate_populations_constant(self):
        h = Operator(np.diag([0.0, 1.3, 2.9]))
        psi0 = StateVector.basis_state(3, 1)
        traj = evolve(h, psi0, np.linspace(0, 10, 101),
                      {"pop_0": projector(StateVector.basis_state(3, 0)),
                       "pop_1": projector(psi0)})
        assert np.max(np.abs(traj.series["pop_1"] - 1.0)) < 1e-10
        assert np.max(np.abs(traj.series["pop_0"])) < 1e-10

    def test_norm_and_energy_conserved(self):
        h = random_hermitian(120, 5)
        rng = np.random.default_rng(6)
        psi0 = StateVector.from_amplitudes(rng.normal(size=120) + 1j * rng.normal(size=120))
        traj = evolve(h, psi0, np.linspace(0, 50, 10_001))
        assert np.max(np.abs(traj.series["norm"] - 1.0)) < 1e-9
        e = traj.series["energy"]
        assert np.max(np.abs(e - e[0])) < 1e-9 * abs(e[0])

    def test_grid_refinement_invariance(self):
        h = random_hermitian(12, 7)
        psi0 = StateVector.basis_state(12, 0)
        coarse = evolve(h, psi0, np.linspace(0, 4, 21), {"pop_0": projector(psi0)})
        fine = evolve(h, psi0, np.linspace(0, 4, 41), {"pop_0": projector(psi0)})
        assert np.allclose(coarse.series["pop_0"], fine.series["pop_0"][::2], atol=1e-12)

    def test_time_reversal(self):
        h = random_hermitian(30, 11)
        rng = np.random.default_rng(12)
        psi0 = StateVector.from_amplitudes(rng.normal(size=30) + 1j * rng.normal(size=30))
        spec = spectrum(h)
        fwd = propagated(spec, psi0.amps, [7.3])[:, 0]
        back = propagated(spec, fwd, [-7.3])[:, 0]
        assert np.linalg.norm(back - psi0.amps) < 1e-8

    def test_vacuum_rabi_period(self):
        # resonant transmon + mode: |e,0> population returns after pi/g
        ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ))
        w01 = ts.transition(0, 1)
        line = LineParams(4.0e-7, 1.6e-10, np.pi * 1.25e8 / w01)
        modes = mode_operator_coeffs(
            compute_modes(line, 1, LongitudinalNorm.FULL_LENGTH),
            matched_cross_section(line))
        g1 = coupling_strength(ts, modes, CouplingSpec(1.0, 0.0), 0, 1, 0)
        beta = 0.01 * w01 / abs(g1)
        built = build_nn_hamiltonian(ts, modes, CouplingSpec(beta, 0.0), 2, (6,))
        g = abs(built.g_table[0, 1, 0])
        psi0 = built.basis_state(1, (0,))
        period_rwa = np.pi / g
        t = np.linspace(0.0, 1.3 * period_rwa, 4001)
        traj = evolve(built, psi0, t, {"pop_1_0": projector(psi0),
                                       "pop_0_1": projector(built.basis_state(0, (1,)))})
        period = first_return_period(t, traj.series["pop_1_0"])
        # counter-rotating terms shift the period at order (g/omega)^2 = 1e-4
        assert abs(period - period_rwa) / period_rwa < 5e-4
        swapped = traj.series["pop_0_1"]
        k_half = np.argmin(np.abs(t - period / 2))
        assert swapped[k_half] > 0.99

    @pytest.mark.parametrize("real_h", [False, True])
    def test_matches_reference_contraction(self, real_h):
        # dim 51 so that sin_phi_op (dim 2 n_cutoff + 1, purely imaginary)
        # serves as the complex observable
        dim = 51
        rng = np.random.default_rng(23)
        a = rng.normal(size=(dim, dim))
        if not real_h:
            a = a + 1j * rng.normal(size=(dim, dim))
        h = Operator((a + a.conj().T) / 2)
        b = rng.normal(size=(dim, dim))
        observables = {"real_obs": Operator((b + b.T) / 2),
                       "sin_phi": sin_phi_op(25)}
        psi0 = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        t = np.linspace(0.0, 6.0, 301)
        got = evolve(h, psi0, t, observables).series
        ref = reference_evolve(h.mat, psi0, t, observables)
        for name, series in ref.items():
            tol = 1e-10 * max(1.0, float(np.max(np.abs(series))))
            assert np.max(np.abs(got[name] - series)) < tol, name

    def test_rejects_nonhermitian(self):
        # generator and observables are Operators, and the ladder cannot
        # become one, so Re<a> can no longer be recorded as an observable
        h = Operator(np.diag([0.0, 1.0, 2.0]))
        psi0, t = StateVector.basis_state(3, 1), np.linspace(0, 1, 5)
        with pytest.raises(ContractViolationError, match="not hermitian"):
            evolve(h, psi0, t, {"a": Operator(annihilation_op(3))})
        with pytest.raises(ContractViolationError, match="expected an Operator"):
            evolve(h, psi0, t, {"a": annihilation_op(3)})

    def test_dimension_mismatches(self):
        h = Operator(np.diag([0.0, 1.0, 2.0]))
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(DimensionMismatchError, match="H dim 3 does not match state dim 2"):
            evolve(h, StateVector.basis_state(2, 0), t)
        with pytest.raises(DimensionMismatchError, match="observable 'x' dimension mismatch"):
            evolve(h, StateVector.basis_state(3, 0), t, {"x": Operator(np.eye(2))})

    @pytest.mark.parametrize("dim", [3, 64, 65])
    def test_records_exactly_norm_energy_and_the_observables(self, dim):
        # up to dim 64 evolve used to add a pop_<i> series per basis vector
        h, psi0 = random_hermitian(dim, 1), StateVector.basis_state(dim, 0)
        t = np.linspace(0.0, 1.0, 5)
        assert sorted(evolve(h, psi0, t).series) == ["energy", "norm"]
        traj = evolve(h, psi0, t, {"pop_0": projector(psi0)})
        assert sorted(traj.series) == ["energy", "norm", "pop_0"]
        assert traj.series["pop_0"][0] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["norm", "energy"])
    def test_observable_may_not_take_its_own_series_name(self, name):
        # {"norm": 5 I} used to replace the norm series by 5.0
        h = Operator(np.diag([0.0, 1.0, 2.0]))
        with pytest.raises(ContractViolationError, match=f"observable '{name}'"):
            evolve(h, StateVector.basis_state(3, 0), np.linspace(0.0, 1.0, 5),
                   {name: Operator(5.0 * np.eye(3))})

    @pytest.mark.parametrize("t", NONFINITE_GRIDS)
    def test_nonfinite_grid_fails_before_any_work(self, monkeypatch, t):
        def no_work(*args):
            raise AssertionError("evolve diagonalized H before checking the grid")
        monkeypatch.setattr(dynamics, "spectrum", no_work)
        with pytest.raises(ContractViolationError, match="finite"):
            evolve(random_hermitian(3, 1), StateVector.basis_state(3, 0), t)


def reference_leapfrog(p, s0, t):
    """The leapfrog as first written, two sin and one cos per step: the
    reference for the carried half-kick and the vectorised energy.  Returns
    (phi, n, energy) or raises StepSizeError on divergence."""
    dt = float(np.diff(t).mean())
    phi, n, energy = np.empty(t.size), np.empty(t.size), np.empty(t.size)
    f, v = float(s0.phi), float(s0.n)
    phi[0], n[0] = f, v
    energy[0] = 4.0 * p.EC * (v - p.ng) ** 2 - p.EJ * math.cos(f)
    for k in range(1, t.size):
        v -= p.EJ * math.sin(f) * 0.5 * dt
        f += 8.0 * p.EC * (v - p.ng) * dt
        v -= p.EJ * math.sin(f) * 0.5 * dt
        if not -1e150 < f < 1e150:
            raise StepSizeError(f"trajectory diverged at step {k}; reduce dt")
        phi[k], n[k] = f, v
        energy[k] = 4.0 * p.EC * (v - p.ng) ** 2 - p.EJ * math.cos(f)
    return phi, n, energy


class TestClassicalTrajectory:
    @pytest.mark.parametrize("ec, ej, ng, phi0, n0, t_max, n_points", [
        (1.0, 100.0, 0.0, 1.0, 0.0, 5.0, 20001),
        (1.0, 100.0, 0.0, 3.0, 0.0, 2.0, 5001),
        (0.7, 0.0, 0.1, 0.3, 2.0, 5.0, 2001),
        (0.3, 15.0, 0.37, -2.0, 1.5, 20.0, 40001),
    ])
    def test_matches_reference_leapfrog(self, ec, ej, ng, phi0, n0, t_max, n_points):
        p = TransmonParams(EC=ec, EJ=ej, ng=ng)
        s0 = ClassicalState(phi=phi0, n=n0)
        t = np.linspace(0.0, t_max, n_points)
        phi, n, energy = reference_leapfrog(p, s0, t)
        traj = classical_trajectory(p, s0, t)
        assert np.array_equal(traj.series["phi"], phi)
        assert np.array_equal(traj.series["n"], n)
        scale = traj.metadata["energy_scale"]
        assert np.max(np.abs(traj.series["energy"] - energy)) <= 1e-12 * scale

    @pytest.mark.parametrize("size", [2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1,
                                      1_000_001])
    def test_energy_is_the_whole_array_expression(self, size):
        p = TransmonParams(EC=0.3, EJ=15.0, ng=0.37)
        s0 = ClassicalState(phi=0.3, n=0.1)
        traj = classical_trajectory(p, s0, np.linspace(0.0, 2e-3 * (size - 1), size))
        phi, n, energy = (traj.series[k] for k in ("phi", "n", "energy"))
        whole = 4.0 * p.EC * (n[1:] - p.ng) ** 2 - p.EJ * np.cos(phi[1:])
        assert energy[0] == 4.0 * p.EC * (s0.n - p.ng) ** 2 - p.EJ * math.cos(s0.phi)
        assert energy[1:].tobytes() == whole.tobytes()
        assert traj.metadata["max_energy_error"] == np.max(np.abs(energy - energy[0]))
        assert traj.metadata["energy_scale"] == abs(energy[0])
        assert traj.metadata["dt"] == float(np.diff(traj.times).mean())

    def test_divergence_raises_like_the_reference(self):
        p = TransmonParams(EC=1.0, EJ=1e200)
        t = np.linspace(0.0, 1.0, 11)
        with pytest.raises(StepSizeError, match="diverged at step 1;"):
            reference_leapfrog(p, ClassicalState(phi=1.0, n=0.0), t)
        with pytest.raises(StepSizeError, match="diverged at step 1;"):
            classical_trajectory(p, ClassicalState(phi=1.0, n=0.0), t)

    @staticmethod
    def divergence_step(p, s0, t):
        """The step at which both leapfrogs report divergence."""
        with pytest.raises(StepSizeError, match="diverged at step") as ref:
            reference_leapfrog(p, s0, t)
        step = int(re.search(r"step (\d+);", str(ref.value)).group(1))
        with pytest.raises(StepSizeError, match=f"diverged at step {step};"):
            classical_trajectory(p, s0, t)
        return step

    def test_later_divergence_raises_like_the_reference(self):
        p = TransmonParams(EC=1.0, EJ=1e149)
        t = np.linspace(0.0, 100.0, 1001)
        assert self.divergence_step(p, ClassicalState(phi=1.0, n=0.0), t) > 1

    def test_finite_phase_at_the_bound_raises_like_the_reference(self):
        # a free rotor whose phase steps by 1e149: finite, and 1e150 at step 10
        f = 0.0
        for _ in range(10):
            f += 1e149
        assert f == 1e150
        p = TransmonParams(EC=0.125, EJ=0.0)
        s0 = ClassicalState(phi=0.0, n=1e149)
        assert self.divergence_step(p, s0, np.arange(20.0)) == 10

    def test_infinite_phase_is_a_step_size_error(self):
        # v stays finite (-4e298) but 8 E_C v dt overflows the phase to -inf,
        # on which math.sin used to raise ValueError
        p = TransmonParams(EC=1e10, EJ=1e300)
        with pytest.raises(StepSizeError, match="diverged at step 1;"):
            classical_trajectory(p, ClassicalState(phi=1.0, n=0.0), np.linspace(0.0, 1.0, 11))

    def test_drift_raises_where_the_reference_drifts(self):
        p = TransmonParams(EC=1.0, EJ=100.0)
        t = np.linspace(0, 50, 101)
        phi, n, energy = reference_leapfrog(p, ClassicalState(phi=1.0, n=0.0), t)
        assert np.max(np.abs(energy - energy[0])) > 0.01 * abs(energy[0])
        with pytest.raises(StepSizeError, match="energy drift"):
            classical_trajectory(p, ClassicalState(phi=1.0, n=0.0), t)

    def test_free_rotor(self):
        p = TransmonParams(EC=0.7, EJ=0.0, ng=0.1)
        s0 = ClassicalState(phi=0.3, n=2.0)
        t = np.linspace(0, 5, 2001)
        traj = classical_trajectory(p, s0, t)
        assert np.allclose(traj.series["n"], 2.0, atol=1e-12)
        slope = 8 * p.EC * (2.0 - p.ng)
        assert np.allclose(traj.series["phi"], 0.3 + slope * t, rtol=1e-10)

    def test_small_oscillation_frequency(self):
        p = TransmonParams(EC=1.0, EJ=100.0)
        w_p = np.sqrt(8 * p.EC * p.EJ)
        t = np.linspace(0, 10 * 2 * np.pi / w_p, 20001)
        traj = classical_trajectory(p, ClassicalState(phi=0.01, n=0.0), t)
        phi = traj.series["phi"]
        # count zero crossings to estimate the frequency
        crossings = np.where(np.diff(np.sign(phi)) != 0)[0]
        n_half = crossings.size - 1
        period = 2 * (t[crossings[-1]] - t[crossings[0]]) / n_half
        assert 2 * np.pi / period == pytest.approx(w_p, rel=0.01)

    def test_pendulum_softening(self):
        # large amplitude swings take longer than the linearized period
        p = TransmonParams(EC=1.0, EJ=100.0)
        w_p = np.sqrt(8 * p.EC * p.EJ)
        t_lin = 2 * np.pi / w_p

        def rhs(t, y):
            return [8 * p.EC * y[1], -p.EJ * np.sin(y[0])]

        def falling_edge(t, y):
            return y[0]
        falling_edge.terminal = True
        falling_edge.direction = -1.0

        ref = solve_ivp(rhs, (0, 20 * t_lin), [3.0, 0.0], rtol=1e-11, atol=1e-12,
                        events=falling_edge, dense_output=True)
        quarter = ref.t_events[0][0]  # phi first crosses zero at T/4
        t = np.linspace(0, 6 * t_lin, 60001)
        traj = classical_trajectory(p, ClassicalState(phi=3.0, n=0.0), t)
        phi = traj.series["phi"]
        k = np.where(np.diff(np.sign(phi)) < 0)[0][0]
        quarter_leap = t[k] + (t[k + 1] - t[k]) * phi[k] / (phi[k] - phi[k + 1])
        assert quarter > t_lin / 4 * 1.5
        assert quarter_leap == pytest.approx(quarter, rel=1e-4)

    def test_energy_error_bounded_not_secular(self):
        p = TransmonParams(EC=1.0, EJ=100.0)
        w_p = np.sqrt(8 * p.EC * p.EJ)
        dt = 2 * np.pi / w_p / 100
        n_steps = 1_000_000
        t = np.arange(n_steps + 1) * dt
        traj = classical_trajectory(p, ClassicalState(phi=1.0, n=0.0), t)
        err = traj.series["energy"] - traj.series["energy"][0]
        # no linear drift: fitted slope below 1e-10 of the energy scale per step
        slope = np.polyfit(np.arange(err.size, dtype=float), err / traj.metadata["energy_scale"], 1)[0]
        assert abs(slope) < 1e-10

    def test_step_instability_raises(self):
        p = TransmonParams(EC=1.0, EJ=100.0)
        t = np.linspace(0, 50, 101)  # dt far above the stability limit
        with pytest.raises(StepSizeError):
            classical_trajectory(p, ClassicalState(phi=1.0, n=0.0), t)

    def test_nonuniform_grid_rejected(self):
        p = TransmonParams(EC=1.0, EJ=1.0)
        with pytest.raises(ContractViolationError):
            classical_trajectory(p, ClassicalState(0.1, 0.0), np.array([0.0, 0.1, 0.3]))

    @pytest.mark.parametrize("t", NONFINITE_GRIDS)
    def test_nonfinite_grid_rejected(self, t):
        # inf used to end in math.sin's ValueError, NaN in a StepSizeError
        p = TransmonParams(EC=1.0, EJ=1.0)
        with pytest.raises(ContractViolationError, match="finite"):
            classical_trajectory(p, ClassicalState(0.1, 0.0), t)


def kept_energy_ratio(p, s0, t):
    """The secular ratio over the energies that classical_trajectory keeps:
    the reference for the streamed one."""
    energy = classical_trajectory(p, s0, t).series["energy"]
    h = energy.size // 2
    first, second = (float(np.max(np.abs(e - energy[0]))) for e in (energy[:h], energy[h:]))
    return second / first


def raised(fn, *args) -> str:
    """The message of the StepSizeError that ``fn(*args)`` raises."""
    with pytest.raises(StepSizeError) as err:
        fn(*args)
    return str(err.value)


class TestSecularEnergyRatio:
    P = TransmonParams(EC=0.3, EJ=15.0, ng=0.37)
    S0 = ClassicalState(phi=0.3, n=0.1)

    # block boundaries fall at samples 1 + k _BLOCK; the halves split at
    # size // 2, which is a boundary at 2 _BLOCK + 2 and one past it at
    # 2 _BLOCK + 1
    @pytest.mark.parametrize("size", [4, _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2,
                                      2 * _BLOCK + 1, 2 * _BLOCK + 2])
    def test_equals_the_ratio_over_the_kept_energies(self, size):
        t = np.linspace(0.0, 2e-3 * (size - 1), size)
        ratio = secular_energy_ratio(self.P, self.S0, t)
        assert ratio.hex() == kept_energy_ratio(self.P, self.S0, t).hex()

    def test_three_points_leave_the_first_half_one_sample(self):
        t = np.linspace(0.0, 4e-3, 3)
        with pytest.raises(ZeroDivisionError):
            kept_energy_ratio(self.P, self.S0, t)
        with pytest.raises(NumericError, match="first-half energy envelope is exactly 0"):
            secular_energy_ratio(self.P, self.S0, t)

    @pytest.mark.parametrize("size", [0, 1, 2])
    def test_needs_three_points(self, size):
        with pytest.raises(ContractViolationError):
            secular_energy_ratio(self.P, self.S0, np.linspace(0.0, 1.0, size))

    def test_exactly_conserved_energy_is_a_numeric_error(self):
        # E_J = 0: the charge never changes, so every energy equals the first
        p = TransmonParams(EC=0.3, EJ=0.0)
        t = np.linspace(0.0, 1.0, 101)
        with pytest.raises(ZeroDivisionError):
            kept_energy_ratio(p, self.S0, t)
        with pytest.raises(NumericError) as err:
            secular_energy_ratio(p, self.S0, t)
        assert "\n" not in str(err.value)

    def test_divergence_past_the_first_block_raises_like_the_trajectory(self):
        # a free rotor whose phase grows by the same step until it passes 1e150
        p = TransmonParams(EC=0.125, EJ=0.0)
        s0 = ClassicalState(phi=0.0, n=1e150 / (_BLOCK + 7.5))
        t = np.arange(2 * _BLOCK + 10.0)
        message = raised(classical_trajectory, p, s0, t)
        assert int(re.search(r"step (\d+);", message).group(1)) > _BLOCK
        assert raised(secular_energy_ratio, p, s0, t) == message

    def test_drift_raises_like_the_trajectory(self):
        p = TransmonParams(EC=1.0, EJ=100.0)
        s0 = ClassicalState(phi=1.0, n=0.0)
        t = np.linspace(0, 50, 101)
        message = raised(classical_trajectory, p, s0, t)
        assert message.startswith("energy drift")
        assert raised(secular_energy_ratio, p, s0, t) == message


def outcome(fn, *args):
    """What ``fn(*args)`` returns, or the message of its StepSizeError."""
    try:
        return fn(*args)
    except StepSizeError as err:
        return str(err)


# bounded, drifting (dt past the stability limit) and a free rotor, whose
# initial charge the test sets so that its phase passes 1e150 at ``step``
LEAPFROG_CASES = {
    "bounded": (TransmonParams(EC=0.3, EJ=15.0, ng=0.37), ClassicalState(0.3, 0.1), 2e-3),
    "drift": (TransmonParams(EC=1.0, EJ=100.0), ClassicalState(1.0, 0.0), 0.5),
    "diverge": (TransmonParams(EC=0.125, EJ=0.0), None, 1.0),
}


@given(size=st.integers(3, 60), block=st.integers(1, 8),
       case=st.sampled_from(sorted(LEAPFROG_CASES)), step=st.integers(1, 59))
# blocks of 4 start at samples 1, 5, 9, ...: split 8 falls inside one, split 9 opens one
@example(size=17, block=4, case="bounded", step=1)
@example(size=18, block=4, case="bounded", step=1)
@example(size=40, block=3, case="drift", step=1)
@example(size=40, block=3, case="diverge", step=20)
def test_the_driver_over_many_blocks(size, block, case, step):
    """Blocks of 1 to 8 steps put the split on and off block boundaries,
    and both callers still give what the whole arrays give."""
    p, s0, dt = LEAPFROG_CASES[case]
    if s0 is None:
        s0 = ClassicalState(0.0, 1e150 / (min(step, size - 1) - 0.5))
    t = np.arange(size) * dt
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_BLOCK", block)
        traj = outcome(classical_trajectory, p, s0, t)
        try:
            ratio = outcome(secular_energy_ratio, p, s0, t)
        except NumericError:
            ratio = None
    if isinstance(traj, str):
        assert case != "bounded"
        assert ratio == traj
        return
    phi, n, _ = reference_leapfrog(p, s0, t)
    assert np.array_equal(traj.series["phi"], phi) and np.array_equal(traj.series["n"], n)
    energy = traj.series["energy"]
    whole = 4.0 * p.EC * (n[1:] - p.ng) ** 2 - p.EJ * np.cos(phi[1:])
    assert energy[1:].tobytes() == whole.tobytes()
    assert traj.metadata["max_energy_error"] == np.max(np.abs(energy - energy[0]))
    h = size // 2
    first, second = (float(np.max(np.abs(e - energy[0]))) for e in (energy[:h], energy[h:]))
    if first == 0.0:
        assert ratio is None
    else:
        assert ratio.hex() == (second / first).hex()


class TestEhrenfest:
    def test_eigenstate_residual_tiny(self):
        p = TransmonParams(EC=1.0, EJ=100.0, n_cutoff=15)
        s = solve(p)
        psi0 = StateVector.from_amplitudes(s.eigvecs[:, 0])
        resid = ehrenfest_check(p, psi0, np.linspace(0, 0.5, 2001))
        assert resid < 1e-8

    def test_superposition_residual(self):
        p = TransmonParams(EC=1.0, EJ=100.0, n_cutoff=15)
        s = solve(p)
        psi0 = StateVector.from_amplitudes(s.eigvecs[:, 0] + s.eigvecs[:, 1])
        t = np.arange(0.0, 0.5, 2.5e-5)
        resid = ehrenfest_check(p, psi0, t)
        assert resid < 1e-6

    def test_second_order_in_dt(self):
        p = TransmonParams(EC=1.0, EJ=100.0, n_cutoff=15)
        s = solve(p)
        # 0/1 mix: opposite parity, so <n> genuinely oscillates
        psi0 = StateVector.from_amplitudes(s.eigvecs[:, 0] + 1j * s.eigvecs[:, 1])
        resids = []
        for dt in (4e-4, 2e-4, 1e-4):
            resids.append(ehrenfest_check(p, psi0, np.arange(0.0, 0.5, dt)))
        assert 3.2 < resids[0] / resids[1] < 4.8
        assert 3.2 < resids[1] / resids[2] < 4.8

    @pytest.mark.parametrize("t", NONFINITE_GRIDS)
    def test_residual_rejects_nonfinite_grid(self, t):
        # a NaN time used to give a NaN residual
        p = TransmonParams(EC=1.0, EJ=100.0, n_cutoff=15)
        with pytest.raises(ContractViolationError, match="finite"):
            ehrenfest_residual(p, t, np.zeros(t.size), np.zeros(t.size))

    @pytest.mark.parametrize("name", ["n_expect", "sin_phi"])
    def test_residual_rejects_a_series_of_another_length(self, name):
        # a 10-point series on an 11-point grid failed inside numpy broadcasting
        p = TransmonParams(EC=1.0, EJ=100.0, n_cutoff=15)
        series = {"n_expect": np.zeros(11), "sin_phi": np.zeros(11), name: np.zeros(10)}
        with pytest.raises(DimensionMismatchError, match=name):
            ehrenfest_residual(p, np.linspace(0.0, 1e-3, 11), **series)

    def test_needs_three_points(self):
        p = TransmonParams(EC=1.0, EJ=100.0, n_cutoff=15)
        psi0 = StateVector.basis_state(p.dim, p.n_cutoff)
        with pytest.raises(ContractViolationError):
            ehrenfest_check(p, psi0, np.array([0.0, 1e-3]))

    def test_residual_is_finite_without_josephson_energy(self):
        # the floor 1e-3 E_J was 0 at E_J = 0: a divide-by-zero warning and an
        # infinite residual, where n is conserved and both sides vanish
        p = TransmonParams(EC=1.0, EJ=0.0, n_cutoff=3)
        psi0 = StateVector.from_amplitudes(np.ones(p.dim))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resid = ehrenfest_check(p, psi0, np.linspace(0.0, 1.0, 101))
        assert math.isfinite(resid) and resid < 1e-9

    def test_coarse_grid_warns(self):
        p = TransmonParams(EC=1.0, EJ=100.0, n_cutoff=15)
        psi0 = StateVector.basis_state(p.dim, p.n_cutoff)
        with pytest.warns(UserWarning):
            ehrenfest_check(p, psi0, np.linspace(0, 1.0, 11))


class TestFirstReturnPeriod:
    def test_cosine_squared(self):
        g = 2.0
        t = np.linspace(0, 2.5, 1001)
        s = np.cos(g * t) ** 2
        period = first_return_period(t, s)
        assert period == pytest.approx(np.pi / g, rel=1e-6)

    def test_no_return_raises(self):
        t = np.linspace(0, 1, 50)
        with pytest.raises(Exception):
            first_return_period(t, np.exp(-t))


def permuted_blocks(sizes, seed, real):
    """A random hermitian matrix with diagonal blocks of ``sizes`` and
    nothing else, its basis shuffled, and the shuffled index sets of its
    blocks."""
    rng = np.random.default_rng(seed)
    dim = sum(sizes)
    h = np.zeros((dim, dim), dtype=float if real else complex)
    lo = 0
    for size in sizes:
        a = rng.normal(size=(size, size)) + (0 if real else 1j * rng.normal(size=(size, size)))
        h[lo:lo + size, lo:lo + size] = (a + a.conj().T) / 2
        lo += size
    perm = rng.permutation(dim)
    inverse = np.argsort(perm)
    edges = np.cumsum([0, *sizes])
    blocks = [np.sort(inverse[a:b]) for a, b in zip(edges[:-1], edges[1:])]
    return Operator(h[np.ix_(perm, perm)]), blocks


def assert_series_match(got, ref, rel):
    for name, series in ref.items():
        tol = rel * max(1.0, float(np.max(np.abs(series))))
        assert np.max(np.abs(got[name] - series)) <= tol, name


class TestReachableBlock:
    """evolve solves only the states the initial state reaches through the
    exact nonzeros of H, and its series equal a full dense solve."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("seed", [3, 17, 41])
    def test_permuted_block_diagonal_matches_the_full_solve(self, seed, real):
        h, blocks = permuted_blocks((9, 14, 6), seed, real)
        dim = h.dim
        rng = np.random.default_rng(seed + 1)
        amps = np.zeros(dim, dtype=complex)
        amps[blocks[1]] = rng.normal(size=14) + 1j * rng.normal(size=14)
        psi0 = StateVector.from_amplitudes(amps)
        # dense and complex: entries across every pair of blocks
        observables = {"dense": random_hermitian(dim, seed + 2),
                       "diagonal": Operator(np.diag(rng.normal(size=dim)))}
        t = np.linspace(0.0, 8.0, 161)
        traj = evolve(h, psi0, t, observables)
        assert traj.metadata == {"solved_dim": 14}
        assert_series_match(traj.series, reference_evolve(h.mat, psi0, t, observables), 1e-12)

    def test_a_state_on_two_blocks_solves_their_union(self):
        h, blocks = permuted_blocks((5, 8, 11), 29, True)
        amps = np.zeros(h.dim)
        amps[blocks[0][2]] = amps[blocks[2][7]] = 1.0
        psi0 = StateVector.from_amplitudes(amps)
        obs = {"dense": random_hermitian(h.dim, 30)}
        t = np.linspace(0.0, 5.0, 101)
        traj = evolve(h, psi0, t, obs)
        assert traj.metadata["solved_dim"] == 5 + 11
        assert_series_match(traj.series, reference_evolve(h.mat, psi0, t, obs), 1e-12)

    def test_only_exact_zeros_separate_blocks(self):
        # a 1e-300 entry joins two blocks, and a non-symmetric one counts
        # from either side
        h, blocks = permuted_blocks((4, 6), 31, True)
        mat = h.mat.copy()
        a, b = blocks[0][0], blocks[1][0]
        mat[a, b] = mat[b, a] = 1e-300
        psi0 = StateVector.basis_state(h.dim, a)
        assert evolve(Operator(mat), psi0, np.linspace(0.0, 1.0, 5)).metadata["solved_dim"] == 10
        mat[a, b] = 0.0
        for start in (a, b):
            traj = evolve(Operator(mat), StateVector.basis_state(h.dim, start),
                          np.linspace(0.0, 1.0, 5))
            assert traj.metadata["solved_dim"] == 10

    def test_a_state_reaching_everything_solves_the_whole_space(self, monkeypatch):
        h = random_hermitian(20, 33)
        solved = []
        monkeypatch.setattr(dynamics, "spectrum", lambda op: solved.append(op) or spectrum(op))
        traj = evolve(h, StateVector.basis_state(20, 4), np.linspace(0.0, 1.0, 5))
        assert traj.metadata["solved_dim"] == 20
        assert solved == [h]  # the caller's Operator itself: nothing copied

    @pytest.mark.parametrize("ng, solved_dim", [(0.0, 128), (0.25, 256)])
    def test_the_coupled_parity_sector(self, ng, solved_dim):
        ts = solve(TransmonParams(EC=0.3 * GHZ, EJ=15.0 * GHZ, ng=ng))
        line = LineParams(3.6e-6, 1.6e-10 / 9.0, 0.011)
        modes = mode_operator_coeffs(compute_modes(line, 2), matched_cross_section(line))
        built = build_full_hamiltonian(ts, modes, CouplingSpec(0.02, 0.3 * line.length), 4, (8, 8))
        psi0 = built.basis_state(1, (0, 0))
        obs = {"n_exc": total_excitation_op(built)}
        g = abs(built.g_table[0, 1, 0])
        t = np.linspace(0.0, 2.0 * np.pi / g, 81)
        traj = evolve(built, psi0, t, obs)
        assert built.dim == 256 and traj.metadata["solved_dim"] == solved_dim
        assert_series_match(traj.series, reference_evolve(built.matrix.mat, psi0, t, obs), 1e-12)


@given(dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
def test_spectral_paths_conserve_and_agree(dim, seed):
    """A real-symmetric H takes the real solver; the gauge-rotated D H D^*,
    with D a diagonal of random phases, has the same spectrum but takes the
    complex one.  Both conserve norm and energy, and their propagated states
    agree after rotating back."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim))
    h = Operator((a + a.T) / 2)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, dim))
    h_rot = Operator(phases[:, None] * h.mat * phases.conj()[None, :])
    psi0 = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    t = np.linspace(0.0, 5.0, 41)
    scale = max(1.0, float(np.max(np.abs(h.mat))))

    real_spec, complex_spec = spectrum(h), spectrum(h_rot)
    assert np.isrealobj(real_spec.vecs) and np.iscomplexobj(complex_spec.vecs)
    assert np.max(np.abs(real_spec.evals - complex_spec.evals)) < 1e-12 * scale
    direct = propagated(real_spec, psi0.amps, t)
    rotated = propagated(complex_spec, phases * psi0.amps, t)
    assert np.max(np.abs(phases.conj()[:, None] * rotated - direct)) < 1e-11

    for op in (h, h_rot):
        psi = psi0 if op is h else StateVector.from_amplitudes(phases * psi0.amps)
        traj = evolve(op, psi, t)
        assert np.max(np.abs(traj.series["norm"] - 1.0)) < 1e-12
        e = traj.series["energy"]
        assert np.max(np.abs(e - e[0])) < 1e-12 * scale
