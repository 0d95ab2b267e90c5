"""Shared test configuration.

Property tests run under one deterministic hypothesis profile: the same
examples on every run (so a failure reproduces and tier-1 timing is
stable), a bounded example count, no per-example deadline (BLAS timing on
a shared host varies) and no example database written to disk.

``bench_module`` loads a file of the benchmark (``bench/<name>.py``) the way
the benchmark reaches into the package: from outside, without changing
``sys.path`` and without writing bytecode under ``bench/``.
"""

import sys
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
