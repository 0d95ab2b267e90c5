"""Benchmark of the fieldcqed package, measured from outside it.

Run from the root of a checkout; the package is imported from its src/:

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0

Workloads are ``check``, ``transmon_sweep`` and ``multimode_evolve`` (see
workloads.py).  Every iteration is validated against independent oracles.

``--trace 0`` reports the end-to-end metrics: ``wall_s``, the median of
warm in-process iterations, each rescaled by the speed at which the host
ran a calibration kernel around it so that drift in the speed of a shared
host cancels (see measure.py; the raw median goes to the report);
``setup_s``, the median time from interpreter start to package imported
and inputs ready over five fresh processes;
``peak_rss_mb`` of a fresh process that runs the workload once; and
``pass_ratio``, validated iterations over attempted ones.

``--trace 1`` reports the per-layer metrics: untraced and traced
iterations alternate (their medians give ``trace.overhead_ratio``), and a
fresh process repeats the traced run with one BLAS thread as the plain
single-threaded baseline (``blas1.*``).

BLAS runs with as many threads as this process may use CPUs, pinned through
the environment of this process and of every process it starts.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; a readable report goes to
standard error, and the full record (environment, samples and, when
traced, every span) to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import probe

# measure, tracer and workloads import NumPy, so the functions below import
# them only after main() has pinned the BLAS threads.

WORKLOAD_NAMES = ("check", "transmon_sweep", "multimode_evolve")
SETUP_PROCESSES = 5
CHILD_TIMEOUT_S = 150
CHILD = probe.ROOT / "bench" / "child.py"


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_child(mode, args, workdir, extra=(), env=None) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    cmd = [sys.executable, str(CHILD), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--workdir", str(workdir), *extra]
    if mode == "setup":
        cmd += ["--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S, cwd=probe.ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def end_to_end(args, wl, workdir):
    import measure

    samples = measure.measure(wl, args.seconds)
    children = [run_child("setup", args, workdir / f"setup{k}",
                          ["--run-once"] if k == SETUP_PROCESSES - 1 else [])
                for k in range(SETUP_PROCESSES)]
    once = children[-1]
    problems = list(once["problems"])
    if getattr(wl, "reference", None) not in (None, once["digest"]):
        problems.append("fresh-process output files differ from in-process ones")
    attempted = len(samples) + 1
    failed = measure.failures(samples) + bool(problems)
    metrics = {
        "wall_s": (measure.calibrated_wall(measure.timed(samples)), "s"),
        "setup_s": (statistics.median(c["setup_s"] for c in children), "s"),
        "peak_rss_mb": (once["peak_rss_mb"], "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    record = {"setup_s_samples": [c["setup_s"] for c in children],
              "child_problems": problems}
    return samples, attempted, failed, metrics, record


def per_layer(args, wl, workdir):
    import measure
    from tracer import Tracer, hot_spots

    tracer = Tracer()
    samples = measure.measure(wl, args.seconds, tracer, pattern=(False, True))
    plain = measure.timed(samples)
    traced = measure.timed(samples, traced=True)
    metrics = measure.traced_metrics(tracer, samples)
    metrics["process.cpu_s"] = (statistics.median(s.cpu for s in plain), "s")
    metrics["process.cpu_util"] = (measure.cpu_util(plain), "ratio")
    metrics["host.calibration.s"] = (statistics.median(s.calibration for s in plain), "s")
    metrics["trace.overhead_ratio"] = (
        statistics.median(s.wall for s in traced) / statistics.median(s.wall for s in plain)
        - 1.0, "ratio")
    env = probe.pin_blas_threads(dict(os.environ), 1)
    blas1 = run_child("traced", args, workdir / "blas1",
                      ["--seconds", repr(args.seconds / 4)], env)
    metrics["blas1.wall_s"] = (blas1["wall_s"], "s")
    metrics["blas1.process.cpu_util"] = (blas1["cpu_util"], "ratio")
    metrics["blas1.linalg.eigh.s"] = (blas1["eigh_s"], "s")
    record = {"hot_spots": hot_spots(tracer.spans),
              "blas1": blas1,
              "child_problems": blas1["problems"],
              "spans": [s.as_list() for s in tracer.spans]}
    attempted = len(samples) + blas1["attempted"]
    failed = measure.failures(samples) + blas1["failed"]
    return samples, attempted, failed, metrics, record


def report(args, env, samples, attempted, failed, metrics, record):
    """Readable summary on standard error."""
    import measure

    def say(line=""):
        print(line, file=sys.stderr)

    say(f"fieldcqed benchmark: workload {args.workload}, seed {args.seed}, "
        f"trace {args.trace}, {args.seconds:g} s")
    say(f"  nproc {env['nproc']}, BLAS {env['blas_vendor']}, threads "
        + ", ".join(f"{b['library']}={b['threads']}" for b in env["blas_runtime"]))
    say(f"  python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
        f"commit {env['git_commit'][:12]}, src {env['src_sha256'][:12]}")
    plain = measure.timed(samples, traced=False)
    walls = [s.wall for s in plain]
    tail = measure.tail_percentile(walls)
    say(f"  untraced iterations: {len(walls)}, raw wall median {statistics.median(walls):.4f} s; "
        + (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
           "no percentile has 10 samples beyond it"))
    say(f"  calibration kernel median {statistics.median(s.calibration for s in plain):.4f} s "
        f"(reference {measure.CALIBRATION_REF_S:g} s), calibrated wall median "
        f"{measure.calibrated_wall(plain):.4f} s")
    say(f"  fail_ratio {failed / attempted:.4g} ({failed} of {attempted} iterations failed "
        "validation)")
    for s in samples:
        for problem in s.problems:
            say(f"  INVALID: {problem}")
    for problem in record["child_problems"]:
        say(f"  INVALID (fresh process): {problem}")
    for name, (value, unit) in sorted(metrics.items()):
        say(f"  {name:44s} {value:14.6g} {unit}")
    for name, seconds in record.get("hot_spots", []):
        say(f"  self time {name:40s} {seconds:10.4f} s")


def main(argv=None) -> int:
    args = parse_args(argv)
    probe.pin_blas_threads(os.environ, probe.cpu_count())
    try:
        probe.import_package()
    except probe.SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    import workloads

    probe.OUT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=probe.OUT))
    try:
        (workdir / "main").mkdir()
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir / "main")
        run = per_layer if args.trace else end_to_end
        samples, attempted, failed, metrics, record = run(args, wl, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = probe.environment(args.seed)
    report(args, env, samples, attempted, failed, metrics, record)
    record.update(
        environment=env, workload=args.workload, seconds=args.seconds, trace=args.trace,
        attempted=attempted, failed=failed,
        samples=[{"warm_up": s.warm_up, "traced": s.traced, "wall": s.wall, "cpu": s.cpu,
                  "calibration": s.calibration,
                  "problems": s.problems} for s in samples],
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (probe.OUT / name).write_text(json.dumps(record) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
