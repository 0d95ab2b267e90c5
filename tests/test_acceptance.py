"""One test per acceptance criterion this package commits to.

Each test re-runs the corresponding oracle suite and fails with a per-check
breakdown if any bound is exceeded.  Criterion 7 drives the CLI of the
imported package end to end and compares output bytes across runs.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fieldcqed
from fieldcqed import checks


def _run(suite_fn, budget_s):
    start = time.perf_counter()
    results, _ = suite_fn()
    elapsed = time.perf_counter() - start
    lines = [
        f"{'PASS' if r.passed else 'FAIL'} {r.name}: value {r.value:.6g}, "
        f"bound {r.bound:.6g}" + (f" ({r.detail})" if r.detail else "")
        for r in results
    ]
    print()
    for line in lines:
        print(" ", line)
    print(f"  suite runtime {elapsed:.2f}s (budget {budget_s}s)")
    assert all(r.passed for r in results), "\n" + "\n".join(lines)
    assert elapsed < budget_s


def test_criterion_1_transmon_regime():
    _run(checks.transmon_regime_suite, 1.0)


def test_criterion_2_gauge_invariance():
    _run(checks.gauge_invariance_suite, 1.0)


def test_criterion_3_field_circuit_correspondence():
    _run(checks.correspondence_suite, 10.0)


def test_criterion_4_coupled_dynamics():
    _run(checks.coupled_dynamics_suite, 30.0)


def test_criterion_5_bath_partition():
    _run(checks.bath_suite, 120.0)


def test_criterion_6_equations_of_motion():
    _run(checks.equations_of_motion_suite, 60.0)


def test_criterion_7_cli_determinism(tmp_path):
    outs = (tmp_path / "run1", tmp_path / "run2")
    # the subprocess must import the package under test, installed or not
    src = str(Path(fieldcqed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    captured = []
    for out in outs:
        proc = subprocess.run(
            [sys.executable, "-m", "fieldcqed.cli", "check", "--out", str(out)],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        captured.append(proc.stdout)
    assert "FAIL" not in captured[0]
    for suite in checks.SUITES:
        assert f"PASS {suite}:" in captured[0]
    assert captured[0] == captured[1]
    for name in ("checks.json", "summary.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    print("\n  PASS check subcommand: all suites green, outputs byte-identical")
