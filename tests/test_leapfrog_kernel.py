"""The compiled leapfrog kernel (in ``_kernels.c``) against the Python loop
``dynamics._leapfrog`` it repeats, and, for all four kernels of the
library, the loader (``_kernels``) and the fallback to the Python and NumPy
references when the library cannot be built, loaded or trusted."""

import hashlib
import json
import os
import shlex
import shutil
import subprocess
import sysconfig
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fieldcqed import _kernels, cli, dynamics, qops
from fieldcqed.dynamics import ClassicalState, classical_trajectory, secular_energy_ratio
from fieldcqed.errors import DimensionMismatchError, NumericError, StepSizeError
from fieldcqed.transmon import TransmonParams

HAS_CC = shutil.which(shlex.split(sysconfig.get_config_var("CC") or "false")[0]) is not None


def compiled_kernel():
    """The compiled twin of ``_leapfrog``; a machine with a compiler must build it."""
    compiled = dynamics._compiled_leapfrog()
    if compiled is None and not HAS_CC:
        pytest.skip("no C compiler")
    assert compiled is not None
    return compiled


@pytest.fixture
def kernel():
    return compiled_kernel()


# the self-tested wrapper of each kernel, by its C function's name
KERNELS = {"fieldcqed_leapfrog": dynamics._compiled_leapfrog,
           "fieldcqed_phases": qops._compiled_phases,
           "fieldcqed_denominators": qops._compiled_denominators,
           "fieldcqed_tridiagonal": qops._compiled_tridiagonal}


def reload_kernels():
    _kernels.loaded.cache_clear()
    for wrapper in KERNELS.values():
        wrapper.cache_clear()


def trusted() -> dict:
    """Whether each kernel is built, loaded and passes its self-test."""
    return {name: wrapper() is not None for name, wrapper in KERNELS.items()}


@pytest.fixture
def empty_cache(tmp_path, monkeypatch):
    """A function that points the loader at an empty cache and makes every
    kernel load again; after the test they load again from the real cache."""
    def empty():
        monkeypatch.setattr(_kernels, "_CACHE_DIR", tmp_path / "cache")
        reload_kernels()
        return tmp_path / "cache"
    yield empty
    reload_kernels()


def use_compiler(monkeypatch, command: str):
    real = sysconfig.get_config_var
    monkeypatch.setattr(sysconfig, "get_config_var",
                        lambda name: command if name == "CC" else real(name))


def outcome(fn, *args):
    """The bytes of what ``fn(*args)`` returns, or the message of its
    StepSizeError or NumericError."""
    try:
        result = fn(*args)
    except (StepSizeError, NumericError) as err:
        return type(err).__name__, str(err)
    if isinstance(result, dynamics.Trajectory):
        return ([result.series[k].tobytes() for k in ("phi", "n", "energy")],
                sorted((k, np.float64(x).tobytes()) for k, x in result.metadata.items()))
    return np.array(result).tobytes()


def run(leapfrog, p, dt, s0, steps):
    """One call of ``leapfrog`` over ``steps`` steps: its final state or
    divergence message, and the bytes of both output rows."""
    phi, n = np.full(steps, np.nan), np.full(steps, np.nan)
    return outcome(leapfrog, p, dt, s0.phi, s0.n, phi, n, 1), phi.tobytes(), n.tobytes()


# E_J up to 1e149 and charges up to 1e149 put some runs past the 1e150 bound
@settings(max_examples=300, deadline=None)
@given(ec=st.floats(1e-3, 1e3), ej=st.one_of(st.just(0.0), st.floats(0.0, 1e3),
                                              st.floats(1e100, 1e149)),
       ng=st.floats(-2.0, 2.0), dt=st.floats(1e-4, 1.0), phi0=st.floats(-10.0, 10.0),
       n0=st.one_of(st.floats(-1e3, 1e3), st.floats(1e140, 1e149)),
       steps=st.integers(1, 200), block=st.integers(1, 8))
@example(ec=0.125, ej=0.0, ng=0.0, dt=1.0, phi0=0.0, n0=1e149, steps=40, block=3)
@example(ec=1.0, ej=1e149, ng=0.0, dt=0.1, phi0=1.0, n0=0.0, steps=100, block=7)
def test_compiled_and_python_loops_agree_bit_for_bit(ec, ej, ng, dt, phi0, n0, steps, block):
    kernel = compiled_kernel()
    p = TransmonParams(EC=ec, EJ=ej, ng=ng)
    s0 = ClassicalState(phi0, n0)
    assert run(kernel, p, dt, s0, steps) == run(dynamics._leapfrog, p, dt, s0, steps)
    t = np.arange(steps + 1) * dt
    results = []
    for compiled in (kernel, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dynamics, "_BLOCK", block)
            mp.setattr(dynamics, "_compiled_leapfrog", lambda: compiled)
            results.append((outcome(classical_trajectory, p, s0, t),
                            steps > 1 and outcome(secular_energy_ratio, p, s0, t)))
    assert results[0] == results[1]


@pytest.mark.parametrize("dtype", [np.float32, np.longdouble])
def test_numpy_scalar_parameters_run_in_double_on_both_loops(kernel, dtype):
    p = TransmonParams(EC=dtype(0.3), EJ=dtype(15.0), ng=dtype(0.37))
    assert [type(x) for x in (p.EC, p.EJ, p.ng)] == [float] * 3
    assert (p.EC, p.EJ, p.ng) == (float(dtype(0.3)), float(dtype(15.0)), float(dtype(0.37)))
    s0 = ClassicalState(0.3, 0.1)
    want = run(dynamics._leapfrog, p, 2e-3, s0, 50)
    # the compiled kernel runs them itself: the Python loop is not called
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "_leapfrog", None)
        assert run(kernel, p, 2e-3, s0, 50) == want
    double = TransmonParams(EC=float(dtype(0.3)), EJ=float(dtype(15.0)), ng=float(dtype(0.37)))
    assert run(dynamics._leapfrog, double, 2e-3, s0, 50) == want


def test_unequal_blocks_are_refused(kernel):
    p = TransmonParams(EC=0.3, EJ=15.0)
    with pytest.raises(DimensionMismatchError):
        kernel(p, 1e-3, 0.0, 0.0, np.empty(4), np.empty(3), 1)


# the bath_partition suite's decay geometry, and an evolve run at a small dimension
RUNS = {
    "bath": {"mode": "bath", "bath": {"cavity_length": 1.0, "wave_speed": 1.0,
                                      "total_length": 10.0, "n_bins": 1963, "omega_max": 19.63,
                                      "coupling_scale": 0.224, "cavity_mode_index": 2},
             "time_grid": {"t_max": 30.0, "n_points": 601}},
    "evolve": {"mode": "evolve", "transmon": {"E_C": 0.3, "E_J": 15.0, "n_cutoff": 10},
               "time_grid": {"t_max": 2.0, "n_points": 4001}},
}


def observed(tmp_path, capsys, tag):
    """A trajectory and a ``check``, a ``bath`` and an ``evolve`` run: their
    bytes and everything printed."""
    p = TransmonParams(EC=0.3, EJ=15.0, ng=0.37)
    traj = classical_trajectory(p, ClassicalState(0.3, 0.1), np.linspace(0.0, 20.0, 10001))
    runs = {}
    for mode, config in {"check": None, **RUNS}.items():
        out = tmp_path / tag / mode
        argv = [mode, "--out", str(out)]
        if config is not None:
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(config), encoding="utf-8")
            argv += ["--config", str(path)]
        assert cli.main(argv) == 0
        runs[mode] = ({f.name: f.read_bytes() for f in sorted(out.iterdir())},
                      capsys.readouterr())
    return [traj.series[k].tobytes() for k in ("phi", "n", "energy")], runs


def compile_altered(cache, source: bytes):
    """Compile ``source`` to the cache path of the real _kernels.c, with
    the checksum the loader looks for."""
    real, command, lib = _kernels.build()
    assert source != real
    cache.mkdir()  # empty, so nothing at this path has been loaded
    subprocess.run([*command, "-o", str(lib)], input=source, capture_output=True, timeout=120,
                   check=True)
    with open(lib, "ab") as fh:
        fh.write(hashlib.sha256(lib.read_bytes()).digest())


# an edit of one kernel that its self-test must see: half a step rounded one
# ulp high; -0 for +0 in the phase at t = 0 (sin(-0) is -0); eta added to
# the origin pole before the difference, which rounds otherwise; and the
# first off-diagonal entry one ulp off before stevd sees it
ALTERED = {
    "fails-self-test": ("fieldcqed_leapfrog", b"0.5 * dt", b"0.5 * dt * (1.0 + 0x1p-52)"),
    "phases-fail-self-test": ("fieldcqed_phases", b"0.0 * 0.0 + minus_e * t[k]",
                              b"minus_e * t[k]"),
    "denominators-fail-self-test": ("fieldcqed_denominators", b"(q[j] - o) - e",
                                    b"q[j] - (o + e)"),
    "tridiagonal-fails-self-test": ("fieldcqed_tridiagonal",
                                    b"memcpy(e, off, sizeof(double) * (size_t)(n - 1));",
                                    b"memcpy(e, off, sizeof(double) * (size_t)(n - 1));"
                                    b" if (n > 1) e[0] *= 1.0 + 0x1p-52;"),
}


@pytest.mark.parametrize("case", ["no-compiler", *ALTERED, "no-source"])
def test_the_fallback_gives_the_same_bytes_silently(kernel, empty_cache, tmp_path, capsys,
                                                    monkeypatch, case):
    expected = observed(tmp_path, capsys, "compiled")
    assert all(printed.err == "" for _, printed in expected[1].values())
    cache = empty_cache()
    fallen = set(KERNELS)
    if case == "no-compiler":
        use_compiler(monkeypatch, str(tmp_path / "no-such-cc"))
    elif case in ALTERED:
        name, real, edit = ALTERED[case]
        source = _kernels._SOURCE.read_bytes()
        assert source.count(real) == 1
        compile_altered(cache, source.replace(real, edit))
        fallen = {name}
    else:  # an install that left the source out
        monkeypatch.setattr(_kernels, "_SOURCE", tmp_path / "_kernels.c")
    assert trusted() == {name: name not in fallen for name in KERNELS}
    assert observed(tmp_path, capsys, case) == expected


def test_a_truncated_library_is_rebuilt_not_loaded(kernel, empty_cache, tmp_path, capsys):
    # loading a truncated library would end the process with SIGBUS
    expected = observed(tmp_path, capsys, "compiled")
    empty_cache()
    lib = _kernels.library()
    lib.write_bytes(lib.read_bytes()[:lib.stat().st_size // 2])
    reload_kernels()
    assert all(trusted().values())
    rebuilt = lib.read_bytes()
    assert rebuilt[-32:] == hashlib.sha256(rebuilt[:-32]).digest()
    assert observed(tmp_path, capsys, "truncated") == expected


def test_editing_the_source_or_the_compiler_renames_the_library(tmp_path, monkeypatch):
    lib = _kernels.build()[2]
    edited = tmp_path / "_kernels.c"
    edited.write_bytes(_kernels._SOURCE.read_bytes() + b"\n/* edited */\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_SOURCE", edited)
        assert _kernels.build()[2] != lib
    use_compiler(monkeypatch, "cc -m64")
    renamed = _kernels.build()[2]
    assert renamed.parent == lib.parent and renamed != lib


def test_the_compile_command_keeps_every_rounding(monkeypatch):
    # contraction, fast-math and its parts would move bits; a host-tuned
    # library could not be shared by another processor through the cache
    use_compiler(monkeypatch, "cc")
    command = _kernels.build()[1]
    assert "-ffp-contract=off" in command
    for flag in ("-ffast-math", "-Ofast", "-funsafe-math-optimizations", "-march=native"):
        assert flag not in command
    assert not [arg for arg in command if arg.startswith(("-march", "-mtune", "-mavx"))]


def test_a_hung_compile_is_killed_and_waited_for(empty_cache, tmp_path, monkeypatch):
    cache = empty_cache()
    pid_file = tmp_path / "pid"
    slow = tmp_path / "slow-cc"
    slow.write_text(f"#!/bin/sh\necho $$ > '{pid_file}'\nexec sleep 60\n", encoding="utf-8")
    slow.chmod(0o755)
    use_compiler(monkeypatch, str(slow))
    monkeypatch.setattr(_kernels, "_COMPILE_TIMEOUT_S", 1.0)
    start = time.monotonic()
    assert not any(trusted().values())
    assert time.monotonic() - start < 30
    # a child that was killed but not waited for would remain as a zombie
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text(encoding="utf-8")), 0)
    assert list(cache.iterdir()) == []
