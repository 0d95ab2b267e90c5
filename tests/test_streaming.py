"""Streamed propagation and summation keep the bits of the one-shot
computation.

``Spectrum.propagate`` streams the states of ``evolve`` and
``decay_simulation`` in chunks of fixed, padded width; their series must
equal those of one padded product over the whole grid, at any chunk width
and column offset and under 1 and 2 BLAS threads, and the CLI must write
the same bytes under both thread counts.  OpenBLAS reads
``OPENBLAS_NUM_THREADS`` once, when it loads, so each thread count runs in
its own interpreter.  ``dynamics._uniform_dt`` sums the grid spacing in
blocks and must give numpy's mean spacing bit for bit.
"""

import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fieldcqed
from fieldcqed import bath as bath_mod
from fieldcqed import dynamics as dyn
from fieldcqed import qops
from fieldcqed.errors import ContractViolationError
from fieldcqed.qops import _BLOCK, Operator, StateVector

THREADS = (1, 2)
# the partition run of ``check``: 20 cavity modes and 1963 bins, mode 2 over
# 601 samples to t = 30, whose last population sample took different bits
# under 1 and 2 threads while the whole grid was one unpadded product
BATH_CONFIG = {
    "mode": "bath",
    "bath": {"cavity_length": 1.0, "wave_speed": 1.0, "total_length": 10.0,
             "n_cavity_modes": 20, "n_bins": 1963, "omega_max": 19.63,
             "coupling_scale": 0.224, "cavity_mode_index": 2},
    "time_grid": {"t_max": 30.0, "n_points": 601},
}


def run_python(code: str, threads: int, *args) -> str:
    """The stdout of ``code`` run by a fresh interpreter under ``threads``
    OpenBLAS threads, with the package under test and this directory
    importable; fails the test on a non-zero exit."""
    src = str(Path(fieldcqed.__file__).resolve().parents[1])
    path = [src, str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=os.pathsep.join(filter(None, path)))
    proc = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """For each thread count: stdout of a ``bath`` and a ``check`` run, and
    the bytes of every file they wrote."""
    root = tmp_path_factory.mktemp("threads")
    config = root / "bath.json"
    config.write_text(json.dumps(BATH_CONFIG), encoding="utf-8")
    code = ("import sys\nfrom fieldcqed import cli\n"
            "for mode in ('bath', 'check'):\n"
            "    extra = ['--config', sys.argv[2]] if mode == 'bath' else []\n"
            "    print(mode, cli.main([mode, *extra, '--out', f'{sys.argv[1]}/{mode}']))\n")
    runs = {}
    for threads in THREADS:
        out = root / str(threads)
        stdout = run_python(code, threads, out, config)
        files = {f.relative_to(out).as_posix(): f.read_bytes()
                 for f in sorted(out.rglob("*")) if f.is_file()}
        runs[threads] = stdout, files
    return runs


@pytest.mark.parametrize("mode", ["bath", "check"])
def test_cli_writes_the_same_bytes_under_one_and_two_threads(cli_runs, mode):
    (out_1, files_1), (out_2, files_2) = cli_runs[1], cli_runs[2]
    assert f"{mode} 0" in out_1.splitlines()
    assert out_1 == out_2
    names = sorted(name for name in files_1 if name.startswith(f"{mode}/"))
    assert names and names == sorted(name for name in files_2 if name.startswith(f"{mode}/"))
    for name in names:
        assert files_1[name] == files_2[name], name


def padded_width(n: int) -> int:
    """The width of one padded product over ``n`` time columns."""
    return max(qops._MIN_COLS, -(-n // qops._COL_GROUP) * qops._COL_GROUP)


def streamed_and_whole(run, t: np.ndarray, width: int, offset: int) -> list:
    """``run`` on ``t[offset:]`` in chunks of ``width`` and on the whole of
    ``t`` as one padded product: the bytes of each series of both."""
    found = []
    for grid, w, cut in ((t[offset:], width, 0), (t, padded_width(t.size), offset)):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qops, "_chunk_width", lambda rows, n: w)
            series = run(grid).series
        found.append({name: s[cut:].tobytes() for name, s in sorted(series.items())})
    return found


def random_operator(rng, dim: int, real: bool) -> Operator:
    a = rng.normal(size=(dim, dim))
    if not real:
        a = a + 1j * rng.normal(size=(dim, dim))
    return Operator((a + a.conj().T) / 2)


grids = st.tuples(st.integers(2, 700), st.integers(4, 64).map(lambda k: 4 * k),
                  st.integers(0, 10**6))


def grid_case(case):
    """The grid, the chunk width and a column offset that leaves 2 points."""
    n_t, width, offset = case
    return np.linspace(0.0, 7.0, n_t), width, offset % (n_t - 1)


def property_digest() -> str:
    """Runs the streamed-against-whole property over evolve and
    decay_simulation (failing on the first example that differs) and
    returns a digest of every series it computed, for comparing thread
    counts."""
    digest = hashlib.sha256()

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(dim=st.integers(1, 40), real=st.booleans(), seed=st.integers(0, 2**32 - 1),
           case=grids)
    def evolve_property(dim, real, seed, case):
        t, width, offset = grid_case(case)
        rng = np.random.default_rng(seed)
        h = random_operator(rng, dim, real)
        psi0 = StateVector.from_amplitudes(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        obs = {"diagonal": Operator(np.diag(rng.normal(size=dim))),
               "dense": random_operator(rng, dim, not real)}
        streamed, whole = streamed_and_whole(lambda g: dyn.evolve(h, psi0, g, obs),
                                             t, width, offset)
        assert streamed == whole
        digest.update(b"".join(streamed.values()))

    @settings(derandomize=True, max_examples=30, deadline=None, database=None)
    @given(n_modes=st.integers(1, 6), n_bins=st.integers(8, 400), mode=st.integers(0, 5),
           scale=st.floats(0.05, 0.5), case=grids)
    def decay_property(n_modes, n_bins, mode, scale, case):
        t, width, offset = grid_case(case)
        part = bath_mod.RegionPartition(1.0, 1.0, oracle_total_length=10.0)
        cavity = bath_mod.cavity_modes_1d(part, n_modes)
        b = bath_mod.port_continuum(cavity, 0.05 * n_bins, n_bins)

        def run(grid):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # a fit that does not hold warns
                return bath_mod.decay_simulation(b, mode % n_modes, 5.0 * grid, scale)

        streamed, whole = streamed_and_whole(run, t, width, offset)
        assert streamed == whole
        digest.update(b"".join(streamed.values()))

    evolve_property()
    decay_property()
    return digest.hexdigest()


def test_streamed_series_equal_one_padded_product_under_one_and_two_threads():
    code = "import test_streaming\nprint(test_streaming.property_digest())\n"
    digests = {threads: run_python(code, threads) for threads in THREADS}
    assert digests[1] == digests[2]


def test_only_the_last_chunk_is_padded():
    # the chunk width is a multiple of the column group and at least the
    # minimum padded width, so only the last chunk of a grid is padded
    for shape in [(1, 1), (20, 1983), (41, 41), (1024, 1024), (4096, 4096), (3, 10**6)]:
        width = qops._chunk_width(*shape)
        assert width % qops._COL_GROUP == 0 and width >= qops._MIN_COLS
        assert padded_width(width) == width
    assert [padded_width(n) for n in (1, 16, 17, 20, 21)] == [16, 16, 20, 20, 24]


SIZES = [2, 3, 9, 127, 128, 129, 130, 136, 137, 255, 256, 257, 1000,
         _BLOCK - 1, _BLOCK, _BLOCK + 1, _BLOCK + 2, 2 * _BLOCK + 1, 3 * _BLOCK + 17]


def spaced_grids(size: int) -> list:
    rng = np.random.default_rng(size)
    return [np.linspace(-1.3, 7.9, size),
            np.arange(size) * 0.1,
            np.cumsum(0.37 * (1.0 + 1e-13 * rng.normal(size=size)))]


@pytest.mark.parametrize("size", SIZES)
def test_uniform_dt_is_numpys_mean_spacing_bit_for_bit(size):
    for t in spaced_grids(size):
        dt = dyn._uniform_dt(t)
        assert type(dt) is float
        assert dt == float(np.diff(t).mean())


@pytest.mark.parametrize("block", [1, 2, 3, 8, 100, 129])
def test_a_small_block_keeps_numpys_tree(monkeypatch, block):
    # the pairwise tree's parts never shrink below numpy's own 128-entry leaves
    monkeypatch.setattr(dyn, "_BLOCK", block)
    for size in [*range(2, 300, 7), 1001, 5003]:
        for t in spaced_grids(size):
            assert dyn._uniform_dt(t) == float(np.diff(t).mean())


@pytest.mark.parametrize("block", [8, _BLOCK])
def test_a_spacing_off_in_any_block_is_refused(monkeypatch, block):
    monkeypatch.setattr(dyn, "_BLOCK", block)
    t = np.linspace(0.0, 1.0, 2 * _BLOCK + 3)
    for at in (1, _BLOCK + 5, t.size - 1):
        bent = t.copy()
        bent[at] += 1e-6 * (t[1] - t[0])
        with pytest.raises(ContractViolationError, match="uniformly spaced"):
            dyn._uniform_dt(bent)
