"""Memory contracts of the classical leapfrog, of the streamed secular
energy ratio, of the streamed propagations of ``evolve`` and
``decay_simulation``, of the Ehrenfest check and of the ``check`` run."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fieldcqed
from fieldcqed import bath as bath_mod
from fieldcqed import checks
from fieldcqed import dynamics as dyn
from fieldcqed.qops import _BLOCK
from fieldcqed.transmon import (
    TransmonParams,
    build_charge_hamiltonian,
    charge_number_op,
    sin_phi_op,
    solve,
)

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
        # phi, n and energy and one block of cosines (the block of spacings
        # _uniform_dt sums is freed before them), plus interpreter objects
        assert peak <= 3 * t.nbytes + _BLOCK * 8 + 2**16


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
        # no array of the run's length: _uniform_dt sums the spacing one
        # block at a time, and the leapfrog reuses two blocks
        assert peaks[1] - peaks[0] <= 2**16
        assert peaks[1] <= 2 * _BLOCK * 8 + 2**16


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
    # the 16001-sample run of check: four series (0.5 MiB) and one chunk of
    # states with its observable products, 3.6 MiB in all; holding all
    # 41 x 16001 complex states (10.0 MiB) and their products peaked at
    # 20.9 MiB, and recording a population per charge state besides, as
    # evolve once did, at 25.8 MiB
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
    assert peak < 4 * 2**20


def _peaks(run, grids) -> list:
    """tracemalloc peak of ``run(t)`` for each grid ``t``, after a warm-up."""
    run(grids[0][:3])
    peaks = []
    for t in grids:
        tracemalloc.start()
        try:
            run(t)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peaks


def test_evolve_peak_grows_only_by_its_series():
    # dim 41 over 8001 and 16001 samples: holding the states would add
    # 41 x 8000 complex amplitudes (5.0 MiB) to the longer run
    p = TransmonParams(EC=0.3, EJ=15.0, n_cutoff=20)
    h = build_charge_hamiltonian(p)
    psi0 = dyn.StateVector.basis_state(p.dim, p.n_cutoff)
    obs = {"n": charge_number_op(p.n_cutoff), "sin": sin_phi_op(p.n_cutoff, p.sign)}
    grids = [np.linspace(0.0, 2.0 * k, 8000 * k + 1) for k in (1, 2)]
    peaks = _peaks(lambda t: dyn.evolve(h, psi0, t, obs), grids)
    # norm, energy and two observables, 8 bytes a sample each
    assert peaks[1] - peaks[0] <= 4 * (grids[1].nbytes - grids[0].nbytes) + 2**16


def test_decay_peak_grows_only_by_its_series():
    # 20 cavity modes and 1963 bins over 601 and 2401 samples: holding the
    # phases would add 1983 x 1800 complex entries (54 MiB) to the longer run
    part = bath_mod.RegionPartition(1.0, 1.0, oracle_total_length=10.0)
    b = bath_mod.port_continuum(bath_mod.cavity_modes_1d(part, 20), 19.63, 1963)
    grids = [np.linspace(0.0, 30.0 * k, 600 * k + 1) for k in (1, 4)]
    peaks = _peaks(lambda t: bath_mod.decay_simulation(b, 2, t, coupling_scale=0.224), grids)
    # the population and the norm series, 8 bytes a sample each
    assert peaks[1] - peaks[0] <= 2 * (grids[1].nbytes - grids[0].nbytes) + 2**16


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
    # 18.3-18.5 MB measured; a whole rows x samples array of states in
    # evolve or decay_simulation put it at 28.1-28.4
    assert float(growth_mb) < 22.0
