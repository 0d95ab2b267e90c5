"""Memory contracts of the classical leapfrog, of the streamed secular
energy ratio, of the Ehrenfest check and of the ``check`` run."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fieldcqed
from fieldcqed import checks
from fieldcqed import dynamics as dyn
from fieldcqed.qops import _BLOCK
from fieldcqed.transmon import TransmonParams, solve

_STATUS = Path("/proc/self/status")


def _has_vmhwm() -> bool:
    try:
        return "VmHWM:" in _STATUS.read_text(encoding="ascii")
    except OSError:
        return False


# the compiled kernel where it builds, then the Python loop it falls back to
LEAPFROG_PATHS = (dyn._compiled_leapfrog, lambda: None)


def test_leapfrog_peak_is_its_outputs_and_one_block(monkeypatch):
    # tracemalloc slows the interpreted loop about 8x, so 1e5 steps
    p = TransmonParams(EC=1.0, EJ=100.0)
    period = 2 * np.pi / np.sqrt(8 * p.EC * p.EJ)
    t = np.linspace(0.0, 1000 * period, 100_001)
    for path in LEAPFROG_PATHS:
        path()  # a first call builds the kernel outside the traced run
        monkeypatch.setattr(dyn, "_compiled_leapfrog", path)
        tracemalloc.start()
        try:
            traj = dyn.classical_trajectory(p, dyn.ClassicalState(phi=1.0, n=0.0), t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.series["energy"].nbytes == t.nbytes
        # phi, n and energy, the spacing _uniform_dt averages, and one energy block
        assert peak <= 4 * t.nbytes + _BLOCK * 8


def test_secular_ratio_peak_does_not_grow_with_the_run(monkeypatch):
    p = TransmonParams(EC=1.0, EJ=100.0)
    period = 2 * np.pi / np.sqrt(8 * p.EC * p.EJ)
    grids = [np.linspace(0.0, k * 1000 * period, k * 100_000 + 1) for k in (1, 2)]
    for path in LEAPFROG_PATHS:
        path()
        monkeypatch.setattr(dyn, "_compiled_leapfrog", path)
        peaks = []
        for t in grids:
            tracemalloc.start()
            try:
                dyn.secular_energy_ratio(p, dyn.ClassicalState(phi=1.0, n=0.0), t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # the spacing _uniform_dt averages is the one array of the run's length;
        # the two blocks are the same at both lengths
        assert peaks[1] - peaks[0] <= grids[1].nbytes - grids[0].nbytes
        assert peaks[1] <= grids[1].nbytes + 2 * _BLOCK * 8


def test_check_keeps_no_long_trajectory(monkeypatch):
    sizes = []
    leapfrog = dyn.classical_trajectory

    def recording_leapfrog(p, s0, t_grid):
        sizes.append(np.size(t_grid))
        return leapfrog(p, s0, t_grid)

    monkeypatch.setattr(dyn, "classical_trajectory", recording_leapfrog)
    monkeypatch.setattr(dyn, "ehrenfest_check", lambda p, psi0, t_grid: 1e-9)
    checks.equations_of_motion_suite()
    # the 1e6-step run streams through secular_energy_ratio
    assert sizes and max(sizes) <= 40001


def test_ehrenfest_check_holds_no_unread_series():
    # the 16001-sample run of check: 41 x 16001 complex states (10.0 MiB),
    # the observable products and four series; recording a population per
    # charge state besides, as evolve once did, peaked at 25.8 MiB
    p = TransmonParams(EC=0.3, EJ=15.0, n_cutoff=20)
    s = solve(p)
    psi0 = dyn.StateVector.from_amplitudes(s.eigvecs[:, 0] + 1j * s.eigvecs[:, 1])
    t = np.linspace(0.0, 2.0, 16001)
    tracemalloc.start()
    try:
        dyn.ehrenfest_check(p, psi0, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 23 * 2**20


@pytest.mark.skipif(not _has_vmhwm(), reason="no VmHWM in /proc/self/status")
def test_check_run_peak_above_the_imported_package(tmp_path):
    # VmHWM (peak resident memory) minus VmRSS right after the import
    script = "\n".join([
        "import sys",
        "from pathlib import Path",
        "def status(key):",
        "    for line in Path('/proc/self/status').read_text().splitlines():",
        "        if line.startswith(key + ':'):",
        "            return int(line.split()[1])",
        "import fieldcqed.cli",
        "base = status('VmRSS')",
        "rc = fieldcqed.cli.main(['check', '--out', sys.argv[1]])",
        "print(rc, (status('VmHWM') - base) / 1024)",
    ])
    src = str(Path(fieldcqed.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                          capture_output=True, text=True, timeout=120, env=env)
    rc, growth_mb = proc.stdout.splitlines()[-1].split()
    assert rc == "0", proc.stdout + proc.stderr
    assert float(growth_mb) < 33.0
