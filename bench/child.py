"""Fresh-process side of the benchmark, started by run.py.

    child.py setup  --workload W --seed N --workdir DIR --t0 T [--run-once]
    child.py traced --workload W --seed N --workdir DIR --seconds S

``setup`` reports the seconds from T (the parent's monotonic clock just
before it started this process) until fieldcqed is imported and the
workload's inputs are ready; with ``--run-once`` it then runs and validates
one iteration and reports this process's peak resident memory.  ``traced``
runs a warm-up and then traced iterations for S seconds under whatever
BLAS thread count its environment pins.  Either prints one JSON object as
its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import probe


def peak_rss_kib() -> int:
    """Peak resident memory of this process image (VmHWM).

    Not ``ru_maxrss``: Linux carries that over exec from the image that
    forked, so it would report the parent's peak whenever that is larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(args) -> dict:
    probe.import_package()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.run_once:
        output = wl.collect(wl.run())
        result["problems"] = wl.validate(output)
        result["digest"] = output.digest()
        result["peak_rss_mb"] = peak_rss_kib() / 1024.0
    return result


def traced(args) -> dict:
    probe.import_package()
    import measure
    import workloads
    from tracer import Tracer

    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    tracer = Tracer()
    samples = measure.measure(wl, args.seconds, tracer, pattern=(True,))
    timed = measure.timed(samples, traced=True)
    layers = measure.traced_metrics(tracer, samples)
    return {
        "wall_s": layers["trace.wall_s"][0],
        "cpu_util": measure.cpu_util(timed),
        "eigh_s": layers["linalg.eigh.s"][0],
        "attempted": len(samples),
        "failed": measure.failures(samples),
        "problems": [p for s in samples for p in s.problems],
        "environment": probe.environment(args.seed),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("mode", choices=("setup", "traced"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--t0", type=float, default=0.0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--run-once", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    result = setup(args) if args.mode == "setup" else traced(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
