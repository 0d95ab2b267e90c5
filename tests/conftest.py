"""Shared test configuration.

Property tests run under one deterministic hypothesis profile: the same
examples on every run (so a failure reproduces and tier-1 timing is
stable), a bounded example count, no per-example deadline (BLAS timing on
a shared host varies) and no example database written to disk.

``tridiagonal_paths`` runs a test body on both paths of
``qops.tridiagonal_spectrum``: the compiled kernel and its NumPy reference;
``fake_stevd`` makes the compiled kernel call a Python stand-in for LAPACK
``dstevd``.

``bench_module`` loads a file of the benchmark (``bench/<name>.py``) the way
the benchmark reaches into the package: from outside, without changing
``sys.path`` and without writing bytecode under ``bench/``.
"""

import ctypes
import shlex
import shutil
import sys
import sysconfig
import types
from pathlib import Path

import pytest
from hypothesis import settings

settings.register_profile("fieldcqed", derandomize=True, max_examples=40,
                          deadline=None, database=None)
settings.load_profile("fieldcqed")

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def _load_bench_module(name: str) -> types.ModuleType:
    """Execute ``bench/<name>.py`` as a fresh module; no bytecode is cached."""
    path = BENCH_DIR / f"{name}.py"
    module = types.ModuleType(f"fieldcqed_bench_{name}")
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    sys.modules[module.__name__] = module  # its dataclasses look their module up
    try:
        exec(code, vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


@pytest.fixture
def bench_module():
    return _load_bench_module


HAS_CC = shutil.which(shlex.split(sysconfig.get_config_var("CC") or "false")[0]) is not None


def _tridiagonal_paths():
    """Yields the compiled tridiagonal kernel, then None, with
    ``qops._compiled_tridiagonal`` returning each meanwhile: the body runs
    once on the kernel and once on ``qops._tridiagonal_reference``.  A
    machine with a C compiler must build the kernel."""
    from fieldcqed import qops

    kernel = qops._compiled_tridiagonal()
    if kernel is None and not HAS_CC:
        pytest.skip("no C compiler")
    assert kernel is not None
    for path in (kernel, None):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(qops, "_compiled_tridiagonal", lambda: path)
            yield path


@pytest.fixture
def tridiagonal_paths():
    return _tridiagonal_paths


I64 = ctypes.POINTER(ctypes.c_int64)
F64 = ctypes.POINTER(ctypes.c_double)
# dstevd(jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info, jobz_len)
STEVD = ctypes.CFUNCTYPE(None, ctypes.c_char_p, I64, F64, F64, F64, I64, F64, I64, I64, I64, I64,
                         ctypes.c_size_t)


@pytest.fixture
def fake_stevd(monkeypatch):
    """A function ``install(fake)`` after which the compiled tridiagonal
    kernel calls ``fake(real, *args)`` for each dstevd call, with ``real``
    NumPy's own routine and ``args`` the call's ctypes arguments.  ``fake``
    must not raise: ctypes only prints an exception from a callback."""
    from fieldcqed import _kernels, qops

    callbacks = []  # alive until the test ends

    def install(fake):
        real = STEVD(_kernels.lapack("dstevd"))
        callbacks.append(STEVD(lambda *args: fake(real, *args)))
        kernel = qops._tridiagonal_kernel(ctypes.cast(callbacks[-1], ctypes.c_void_p).value)
        if kernel is None and not HAS_CC:
            pytest.skip("no C compiler")
        assert kernel is not None
        monkeypatch.setattr(qops, "_compiled_tridiagonal", lambda: kernel)

    return install
