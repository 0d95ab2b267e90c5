"""The compiled kernel library ``_kernels.c``, shared by ``qops`` and
``dynamics``: compiled on first use by the interpreter's own compiler and
cached in ``__pycache__`` beside this module, under a name that hashes the
source and the compile command.  Nothing here runs at import.

Each caller binds one function of the library, wraps it, and keeps the
wrapper only when it gives the bytes of its Python or NumPy reference on a
fixed self-test; otherwise the reference runs, silently.
"""

from __future__ import annotations

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


def array(ndim: int, writeable: bool = False):
    """The ctypes argument type of a C-contiguous float64 array of ``ndim``
    dimensions, writeable if asked; ``ndpointer`` refuses any other, so no
    kernel reads a strided or mistyped array or writes a read-only one."""
    flags = ("C_CONTIGUOUS", "WRITEABLE") if writeable else ("C_CONTIGUOUS",)
    return np.ctypeslib.ndpointer(np.float64, ndim=ndim, flags=flags)
