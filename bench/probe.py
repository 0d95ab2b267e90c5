"""Start-up helpers shared by the benchmark's processes.

Pins the BLAS thread count, imports fieldcqed from the checkout's own
``src/`` and records the machine and library facts that go with every
result.  Importing this module imports neither NumPy nor fieldcqed, so a
caller can pin the BLAS threads before either is loaded.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (for example, it has no src/)."""


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads(env, threads: int):
    """Set every BLAS thread-count variable in ``env`` to ``threads``."""
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


def import_package():
    """Import fieldcqed from ``src/`` of this checkout and nowhere else."""
    if not (SRC / "fieldcqed" / "__init__.py").is_file():
        raise SetupError(f"no fieldcqed package under {SRC}")
    sys.path.insert(0, str(SRC))
    import fieldcqed

    origin = Path(fieldcqed.__file__).resolve()
    if SRC not in origin.parents:
        raise SetupError(f"fieldcqed was imported from {origin}, not from {SRC}")
    return fieldcqed


def _blas_libraries():
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if ".so" in line}
    return sorted(p for p in paths if "openblas" in Path(p).name.lower())


def _call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def blas_runtime() -> list:
    """Thread count and build string of each OpenBLAS loaded in this process."""
    found = []
    for path in _blas_libraries():
        lib = ctypes.CDLL(path)
        threads = _call(lib, ("scipy_openblas_get_num_threads64_",
                              "scipy_openblas_get_num_threads",
                              "openblas_get_num_threads64_",
                              "openblas_get_num_threads"), ctypes.c_int)
        config = _call(lib, ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                             "openblas_get_config64_", "openblas_get_config"),
                       ctypes.c_char_p)
        found.append({"library": Path(path).name, "threads": threads,
                      "config": config.decode() if config else None})
    return found


def git_commit() -> str:
    """HEAD of the checkout read from .git, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_digest() -> str:
    """sha256 over the package sources, which identifies the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((SRC / "fieldcqed").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": cpu_count(),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_env_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "blas_runtime": blas_runtime(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "machine": platform.machine(),
    }
