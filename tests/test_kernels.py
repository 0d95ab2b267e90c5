"""The compiled phases and secular-denominator kernels (``_kernels.c``)
against the NumPy references ``qops._phases`` and ``qops._denominators``
they repeat, byte for byte, and the spectral results built on them with the
kernels on and forced off."""

import ctypes
import shlex
import shutil
import sysconfig
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fieldcqed import bath as bath_mod
from fieldcqed import dynamics, qops
from fieldcqed.errors import DimensionMismatchError
from fieldcqed.qops import Operator, StateVector

HAS_CC = shutil.which(shlex.split(sysconfig.get_config_var("CC") or "false")[0]) is not None
# the sign of zero, the smallest subnormal and the smallest normal double
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]


def compiled(name: str):
    """The self-tested compiled twin ``qops.<name>()``; a machine with a
    compiler must build it."""
    kernel = getattr(qops, name)()
    if kernel is None and not HAS_CC:
        pytest.skip("no C compiler")
    assert kernel is not None
    return kernel


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def on_and_off(fn):
    """``fn()`` with both qops kernels on (they must build) and forced off."""
    compiled("_compiled_phases")
    compiled("_compiled_denominators")
    on = fn()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qops, "_compiled_phases", lambda: None)
        mp.setattr(qops, "_compiled_denominators", lambda: None)
        off = fn()
    return on, off


def floats(low, high):
    return st.one_of(st.floats(low, high), st.sampled_from(SPECIAL))


# |E t| reaches 1e19, far past 1.05e8, where glibc's sin and cos switch to
# their large-argument reduction; t = 0 columns are the padding of a chunk
@given(evals=arrays(np.float64, st.integers(0, 9), elements=floats(-1e10, 1e10)),
       times=arrays(np.float64, st.integers(0, 9), elements=floats(-1e9, 1e9)),
       pad=st.integers(0, 5))
@example(evals=np.array([-3.0, 0.0, -0.0, 5e-324, 7.0, 1.3e8]),
         times=np.array([0.0, 1.0, 0.81, 2.0]), pad=4)
@example(evals=np.array([1.05e8, -1.05e8, 2.5e9]), times=np.array([1.0, 1.0 + 2**-52, 1e9]),
         pad=1)
def test_phases_kernel_matches_numpy_bit_for_bit(evals, times, pad):
    kernel = compiled("_compiled_phases")
    t = np.concatenate([times, np.zeros(pad)])
    assert same_bytes(kernel(evals, t), qops._phases(evals, t))


@given(q=arrays(np.float64, st.integers(0, 9), elements=floats(-1e300, 1e300)),
       data=st.data())
@example(q=np.array([-2.0, -0.0, 1.5, 3.0]), data=None)
def test_denominators_kernel_matches_numpy_bit_for_bit(q, data):
    kernel = compiled("_compiled_denominators")
    if data is None:  # zero denominators of both signs: +inf and -inf
        qo, eta = np.array([1.5, 0.0, -0.0, 3.0]), np.array([0.0, 0.0, -0.0, 1.5])
    else:
        rows = data.draw(st.integers(0, 6))
        picks = st.one_of(floats(-1e300, 1e300), st.sampled_from(list(q)) if q.size else
                          st.just(0.0))
        qo = data.draw(arrays(np.float64, rows, elements=picks))
        eta = data.draw(arrays(np.float64, rows, elements=floats(-1e3, 1e3)))
    with np.errstate(all="ignore"):
        want = qops._denominators(q, qo, eta)
    assert same_bytes(kernel(q, qo, eta), want)


def test_denominators_kernel_refuses_strided_arrays_and_unequal_rows():
    kernel = compiled("_compiled_denominators")
    q = np.arange(8.0)
    with pytest.raises(ctypes.ArgumentError):
        kernel(q[::2], q[:2], np.zeros(2))
    with pytest.raises(DimensionMismatchError):
        kernel(q, q[:3], np.zeros(2))


def test_strided_poles_give_the_same_roots_on_and_off():
    # np.diag of a matrix is a strided view, which the kernel cannot take
    c = np.diag([1.0, 3.0, 5.0, 7.0])
    poles = np.diag(c)
    assert not poles.flags.c_contiguous
    weights = np.array([0.3, 1.1, 0.7, 0.2])
    on, off = on_and_off(lambda: qops.secular_roots(poles, weights, g0=-0.5))
    for a, b in zip(on, off):
        assert np.array(a).tobytes() == np.array(b).tobytes()


def spectrum_bytes(spec: qops.Spectrum, iterations: int) -> tuple:
    return spec.evals.tobytes(), spec.vecs.tobytes(), iterations


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 5), n_bins=st.integers(1, 40),
       sigma=st.sampled_from([0.0, 0.4, -1.3]))
def test_rank_one_coupling_spectrum_is_the_same_on_and_off(seed, k, n_bins, sigma):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(k, k))
    c, z = m + m.T + 4.0 * np.eye(k), rng.normal(size=k)
    d, b = np.sort(rng.uniform(0.0, 10.0, n_bins)), 0.3 * rng.normal(size=n_bins)
    on, off = on_and_off(lambda: spectrum_bytes(
        *qops.rank_one_coupling_spectrum(Operator(c), z, d, b, sigma)))
    assert on == off


@given(n_bins=st.integers(8, 120), index=st.integers(0, 3),
       scale=st.floats(0.01, 0.5), t_max=st.floats(0.5, 80.0), n_points=st.integers(2, 90),
       completion=st.booleans(), closure=st.sampled_from(list(bath_mod.InterfaceClosure)))
def test_decay_simulation_is_the_same_on_and_off(n_bins, index, scale, t_max, n_points,
                                                  completion, closure):
    part = bath_mod.RegionPartition(1.0, 1.0, interface_bc=closure, oracle_total_length=10.0)
    cavity = bath_mod.cavity_modes_1d(part, 4)
    disc = bath_mod.port_continuum(cavity, n_bins * np.pi / 9.0, n_bins)
    t = np.linspace(0.0, t_max, n_points)

    def decay():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a recurrence or a failed fit warns alike on and off
            traj = bath_mod.decay_simulation(disc, index, t, scale, completion)
        return ([s.tobytes() for s in traj.series.values()],
                sorted((k, repr(v)) for k, v in traj.metadata.items()))

    on, off = on_and_off(decay)
    assert on == off


@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 24), n_points=st.integers(2, 70),
       t_max=st.floats(1e-3, 1e4), real=st.booleans())
def test_evolve_is_the_same_on_and_off(seed, dim, n_points, t_max, real):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + (0 if real else 1j * rng.normal(size=(dim, dim)))
    h = Operator(m + m.conj().T)
    obs = rng.normal(size=(dim, dim))
    psi = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
    t = np.linspace(-0.5 * t_max, t_max, n_points)
    on, off = on_and_off(lambda: [s.tobytes() for s in dynamics.evolve(
        h, psi, t, {"obs": Operator(obs + obs.T)}).series.values()])
    assert on == off
