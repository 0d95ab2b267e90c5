"""The benchmark's library-facing workloads call the package the way a user
script does (``bench/workloads.py``).  A change to a name or a result they
rely on would otherwise show up only as a refused benchmark run, so each
runs here once and must pass its own validation.  ``check`` is covered by
``test_acceptance.py``'s criterion 7, which runs it through the CLI."""

import pytest


@pytest.mark.parametrize("name", ["transmon_sweep", "multimode_evolve"])
def test_workload_validates(bench_module, tmp_path, name):
    workloads = bench_module("workloads")
    workload = workloads.WORKLOADS[name](1, tmp_path)
    assert workload.validate(workload.collect(workload.run())) == []
