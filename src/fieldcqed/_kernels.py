"""The compiled kernel library ``_kernels.c``, shared by ``qops`` and
``dynamics``: compiled on first use by the interpreter's own compiler and
cached in ``__pycache__`` beside this module, under a name that hashes the
source and the compile command.  Nothing here runs at import.

Each caller binds one function of the library, wraps it, and keeps the
wrapper only when it gives the bytes of its Python or NumPy reference on a
fixed self-test; otherwise the reference runs, silently.  Wrappers pass
arrays as raw addresses from :func:`pointer`.  A kernel that calls LAPACK
gets the routine's address from NumPy's own LAPACK (:func:`lapack`).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import hashlib
import importlib.resources
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np
from numpy.linalg import _umath_linalg

_SOURCE = importlib.resources.files(__package__) / "_kernels.c"
_CACHE_DIR = Path(__file__).with_name("__pycache__")
# -ffp-contract=off keeps every product and sum its own rounding, as in
# Python and NumPy; -O3 turns the denominators into packed divisions.
# Nothing targets the host's processor, so a cached library runs on any of
# its architecture.
_CFLAGS = ("-O3", "-fPIC", "-shared", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120.0


def build() -> tuple:
    """The source of _kernels.c, the command that compiles it from standard
    input, and the path its library is cached at.  Raises OSError when the
    source is missing or the interpreter names no compiler, ValueError when
    the name does not parse."""
    source = _SOURCE.read_bytes()
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc:
        raise FileNotFoundError("the interpreter names no C compiler")
    command = [*cc, *_CFLAGS, "-x", "c", "-", "-lm"]
    key = hashlib.sha256(b"\0".join([source, *(arg.encode() for arg in command)]))
    return source, command, _CACHE_DIR / f"_kernels-{key.hexdigest()[:16]}.so"


def library() -> Path:
    """The cached library of _kernels.c, compiled first unless an intact
    one is cached.  Each library ends with the SHA-256 of the bytes before
    it, checked before it is loaded: a truncated or altered library would
    crash the loader, so it is rebuilt instead.  A library is built in a
    temporary directory beside the cache and moved into place, so no process
    sees a partly written file.  Raises what :func:`build` raises, OSError
    and subprocess.SubprocessError (a failed compile, or one past
    ``_COMPILE_TIMEOUT_S``, killed and waited for)."""
    source, command, lib = build()
    try:
        data = lib.read_bytes()
    except FileNotFoundError:
        data = b""
    if data[-32:] != hashlib.sha256(data[:-32]).digest():
        lib.parent.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=lib.parent) as tmp:
            built = Path(tmp, lib.name)
            subprocess.run([*command, "-o", str(built)], input=source, capture_output=True,
                           timeout=_COMPILE_TIMEOUT_S, check=True)
            with open(built, "ab") as fh:  # the loader reads only what the headers point to
                fh.write(hashlib.sha256(built.read_bytes()).digest())
            os.replace(built, lib)
    return lib


@functools.cache
def loaded():
    """The library of :func:`library`, loaded, or None when it cannot be
    built or loaded.  Tried once per process, so a compiler that fails or
    hangs costs one attempt, not one per kernel."""
    try:
        return ctypes.CDLL(str(library()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def function(name: str, argtypes: list, restype=None):
    """The C function ``name`` of the loaded library, with its argument and
    result types declared, or None when there is no library or it lacks
    the symbol."""
    fn = getattr(loaded(), name, None)
    if fn is not None:
        fn.argtypes, fn.restype = argtypes, restype
    return fn


def pointer(a: np.ndarray, writeable: bool = False) -> int:
    """The address of the data of ``a``, which must be a C-contiguous
    float64 array, writeable if asked; any other raises ctypes.ArgumentError,
    so no kernel reads a strided or mistyped array or writes a read-only
    one.  Checked here once per call: an ``np.ctypeslib.ndpointer`` argument
    type costs several times more per array."""
    if a.dtype != np.float64 or not a.flags.c_contiguous or (writeable and not a.flags.writeable):
        raise ctypes.ArgumentError(f"expected a C-contiguous{' writeable' if writeable else ''} "
                                   f"float64 array, got {a.dtype} with strides {a.strides}")
    return a.ctypes.data


@functools.cache
def _numpy_routine(symbol: str):
    """The C or Fortran routine ``symbol`` with 64-bit integers from the
    BLAS and LAPACK that NumPy's linear algebra links, or None.  NumPy's
    wheels bundle OpenBLAS built for 64-bit integers, whose symbols carry a
    ``scipy_`` prefix and a ``64_`` suffix."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)  # its symbols resolve through its LAPACK
    except OSError:
        return None
    for name in (f"scipy_{symbol}64_", f"{symbol}64_"):
        routine = getattr(lib, name, None)
        if routine is not None:
            return routine
    return None


def lapack(name: str):
    """The address of the double-precision LAPACK routine ``name`` (say
    ``"dstevd"``) in NumPy's LAPACK, or None when it exports no such
    routine with 64-bit integers."""
    routine = _numpy_routine(f"{name}_")
    return None if routine is None else ctypes.cast(routine, ctypes.c_void_p).value


@functools.cache
def _blas_thread_count():
    """NumPy's OpenBLAS ``openblas_get_num_threads`` and
    ``openblas_set_num_threads``, typed, or None when it has none."""
    get = _numpy_routine("openblas_get_num_threads")
    set_ = _numpy_routine("openblas_set_num_threads")
    if get is None or set_ is None:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """Runs its body with NumPy's OpenBLAS on one thread, then restores its
    thread count; does nothing when NumPy's LAPACK is not OpenBLAS.

    For a loop of small LAPACK calls the threads only cost.  OpenBLAS 0.3.31
    (NumPy's; SciPy 1.17 bundles 0.3.30) runs part of each
    divide-and-conquer merge of ``stevd`` at n = 41 on its threads.  Early
    in a process the scheduler can put the worker thread on the caller's
    CPU, and each merge then waits out a time slice until the load balancer
    moves one of them: a 401-point transmon sweep took 0.5-1.05 s instead
    of 0.05 s in about one fresh process in ten under two threads.  The
    count is global, so a BLAS call that another thread makes meanwhile
    runs on one thread too."""
    count = _blas_thread_count()
    if count is None:
        yield
        return
    get, set_ = count
    threads = get()
    set_(1)
    try:
        yield
    finally:
        set_(threads)
