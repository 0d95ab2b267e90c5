"""Tests of the benchmark itself: its metric names, its validators and its
tracer.  Run from the root of a checkout with

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys

import pytest

import measure
import probe
import workloads
from tracer import ROOT_SPAN, Span, Tracer, self_times

DECLARED = json.loads((probe.ROOT / "BENCHMARK.json").read_text())


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    proc = _run_bench(probe.ROOT, "--workload", "transmon_sweep", "--seed", "3",
                      "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    declared = {m["name"]: m["unit"] for m in DECLARED[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared


def test_workload_names_match_benchmark_json():
    import run

    declared = [w["name"] for w in DECLARED["workloads"]]
    assert declared == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    shutil.copytree(probe.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "check", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout == ""


class _FlipByteInChecksJson(workloads.CheckWorkload):
    """Flips one byte of checks.json on disk after the second run."""

    runs = 0

    def collect(self, raw):
        self.runs += 1
        if self.runs == 2:
            path = self.out_dir / "checks.json"
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 0x01
            path.write_bytes(bytes(data))
        return super().collect(raw)


def test_flipped_byte_in_checks_json_counts_as_failure(tmp_path):
    samples = measure.measure(_FlipByteInChecksJson(1, tmp_path), seconds=0)
    assert [bool(s.problems) for s in samples] == [False, True]
    assert measure.failures(samples) == 1
    assert "differ from the first iteration" in samples[1].problems[0]


class _PerturbLevel(workloads.TransmonSweepWorkload):
    """Moves the first ground level of case 0 by 1e-8 relative in the first
    iteration, which is also the byte reference for later ones."""

    runs = 0

    def collect(self, raw):
        out = super().collect(raw)
        self.runs += 1
        if self.runs == 1:
            rows = out.files["0/transmon_levels.csv"].decode().split("\n")
            ng, level, omega = rows[1].split(",")
            rows[1] = ",".join((ng, level, repr(float(omega) * (1 + 1e-8))))
            out.files["0/transmon_levels.csv"] = "\n".join(rows).encode()
        return out


def test_perturbed_level_counts_as_failure(tmp_path):
    samples = measure.measure(_PerturbLevel(5, tmp_path), seconds=0)
    assert measure.failures(samples) == 2
    assert "Mathieu" in " ".join(samples[0].problems)
    assert samples[1].problems == ["output files differ from the first iteration's"]


def test_mathieu_levels_reduce_to_charge_parabola():
    # E_J = 0: levels 4 E_C (N - n_g)^2
    assert list(workloads.mathieu_levels(0.3, 0.0, 0.0, 5)) == pytest.approx(
        [0.0, 1.2, 1.2, 4.8, 4.8])
    assert list(workloads.mathieu_levels(0.3, 0.0, 0.5, 4)) == pytest.approx(
        [0.3, 0.3, 2.7, 2.7])


def test_mathieu_levels_match_scipy_outside_its_defect():
    from scipy.special import mathieu_a, mathieu_b

    for q in (0.75, 3.5, 10.0, 40.0):
        even = [mathieu_a(0, q), mathieu_b(2, q), mathieu_a(2, q), mathieu_b(4, q)]
        odd = [mathieu_b(1, q), mathieu_a(1, q), mathieu_b(3, q), mathieu_a(3, q)]
        assert list(workloads.mathieu_levels(1.0, 2 * q, 0.0, 4)) == pytest.approx(even)
        assert list(workloads.mathieu_levels(1.0, 2 * q, 0.5, 4)) == pytest.approx(odd)
    # scipy gives a_5 for a_3 here; the true a_3 lies between b_3 and b_4
    q = 15.557
    a3 = workloads.mathieu_levels(1.0, 2 * q, 0.5, 4)[3]
    assert mathieu_b(3, q) < a3 < mathieu_b(4, q) < mathieu_a(3, q)


def test_calibrated_wall_cancels_host_speed():
    def sample(wall, calibration):
        return measure.Sample(False, False, wall, wall, [], None, calibration)

    quick = [sample(2.0, 0.04), sample(2.2, 0.05), sample(2.1, 0.045)]
    slow = [sample(1.5 * s.wall, 1.5 * s.calibration) for s in quick]
    assert measure.calibrated_wall(slow) == pytest.approx(measure.calibrated_wall(quick))
    assert measure.calibrated_wall(quick) == pytest.approx(
        measure.CALIBRATION_REF_S * 2.1 / 0.045)


def test_self_time_is_span_minus_children():
    spans = [Span(ROOT_SPAN, 0.0, 10.0, -1, 0), Span("a", 1.0, 4.0, 0, 0),
             Span("b", 2.0, 3.0, 1, 0), Span("c", 5.0, 6.0, 0, 0)]
    assert self_times(spans) == [6.0, 2.0, 1.0, 1.0]


def test_traced_self_times_sum_to_traced_wall(tmp_path):
    tracer = Tracer()
    wl = workloads.TransmonSweepWorkload(2, tmp_path)
    samples = measure.measure(wl, seconds=0, tracer=tracer, pattern=(True,))
    (traced,) = measure.timed(samples, traced=True)
    assert traced.problems == []
    total_self = sum(self_times(tracer.spans))
    root = [s for s in tracer.spans if s.name == ROOT_SPAN]
    assert len(root) == 1
    assert total_self == pytest.approx(root[0].end - root[0].start, rel=1e-9)
    assert 0.0 <= traced.wall - total_self < 0.01 * traced.wall
    assert {"transmon.solve", "linalg.eigh", "cli.main"} <= {s.name for s in tracer.spans}


def test_uninstall_restores_every_namespace():
    import numpy
    from fieldcqed import checks, cli, qops, transmon

    before = (transmon.solve, transmon.eigh, numpy.linalg.eigvalsh, cli.main,
              dict(checks.SUITES), vars(qops.Operator)["__post_init__"])
    tracer = Tracer()
    tracer.install()
    assert transmon.solve is not before[0] and transmon.eigh is not before[1]
    tracer.uninstall()
    after = (transmon.solve, transmon.eigh, numpy.linalg.eigvalsh, cli.main,
             dict(checks.SUITES), vars(qops.Operator)["__post_init__"])
    assert after == before
