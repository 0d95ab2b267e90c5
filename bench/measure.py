"""The measurement loop and the statistics the benchmark reports.

On a shared host the speed of the machine drifts by tens of percent over
minutes (neighbours contend for the same cores, caches and memory), which
moves the median of raw iteration times between runs of the same code by
more than any useful regression bound.  So before the first timed
iteration and after each one the loop runs a fixed calibration kernel that
does not touch fieldcqed, for a fifth of the preceding iteration's time.
``wall_s`` is the median over iterations of the iteration time divided by
the mean time per kernel call in the calibrations on either side of it,
times ``CALIBRATION_REF_S``: seconds of a host on which one kernel call
takes that long.  A change to the package moves the iterations and not the
kernel, so it shows in full; a slower host moves both.  The raw wall times
are still recorded and reported.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

import numpy
import scipy.linalg

from tracer import Tracer, layer_metrics

# Seconds of one calibration kernel call on the host the benchmark was
# defined on (2 vCPU Intel Xeon at 2.0 GHz, OpenBLAS 0.3.31 at 2 threads),
# so that wall_s reads close to raw seconds there.
CALIBRATION_REF_S = 0.05
# Time of each calibration, as a share of the preceding iteration's wall time.
CALIBRATION_SHARE = 0.2


@dataclass
class Sample:
    warm_up: bool
    traced: bool
    wall: float  # seconds of workload.run() alone
    cpu: float  # process CPU seconds over the same interval, all threads
    problems: list
    output: object
    calibration: float = 0.0  # seconds per kernel call in the calibrations around it


class Calibration:
    """A fixed mix of the work fieldcqed's iterations are made of, written
    without the package: an interpreted loop, small dense eigensolves and
    streaming passes over a 32 MB array."""

    def __init__(self):
        rng = numpy.random.default_rng(0)
        small = rng.standard_normal((41, 41))
        self.small = small + small.T
        self.stream = rng.standard_normal(4_000_000)
        self.kernel()  # first touch of the stream array and LAPACK workspaces

    def kernel(self):
        x = 0
        for i in range(75_000):
            x += i * i % 7
        for _ in range(75):
            scipy.linalg.eigh(self.small)
        for _ in range(5):
            numpy.multiply(self.stream, 1.0, out=self.stream)

    def __call__(self, seconds: float) -> float:
        """Call the kernel until ``seconds`` have passed (at least once) and
        return the mean seconds per call."""
        t0 = time.perf_counter()
        calls = 0
        while True:
            self.kernel()
            calls += 1
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds:
                return elapsed / calls


def measure(workload, seconds: float, tracer: Tracer = None, pattern=(False,)) -> list:
    """Validate one warm-up iteration, then run timed iterations for at least
    ``seconds`` and at least one full ``pattern``.

    ``pattern`` is cycled to decide which timed iterations run traced, so
    ``(False, True)`` interleaves untraced and traced iterations.  Every
    iteration is validated outside its timed region, and each timed one is
    bracketed by calls of the calibration kernel.
    """
    samples = [_iteration(workload, None, -1, warm_up=True)]
    calibrate = Calibration()
    start = time.perf_counter()
    before = calibrate(CALIBRATION_SHARE * samples[0].wall)
    k = 0
    while k < len(pattern) or time.perf_counter() - start < seconds:
        traced = pattern[k % len(pattern)]
        sample = _iteration(workload, tracer if traced else None, k)
        after = calibrate(CALIBRATION_SHARE * sample.wall)
        sample.calibration = (before + after) / 2
        before = after
        samples.append(sample)
        k += 1
    return samples


def _iteration(workload, tracer, k, warm_up=False) -> Sample:
    if tracer is not None:
        tracer.install()
    try:
        c0, t0 = time.process_time(), time.perf_counter()
        raw = workload.run() if tracer is None else tracer.iteration(k, workload.run)
        t1, c1 = time.perf_counter(), time.process_time()
    finally:
        if tracer is not None:
            tracer.uninstall()
    output = workload.collect(raw)
    return Sample(warm_up, tracer is not None, t1 - t0, c1 - c0,
                  workload.validate(output), output)


def timed(samples, traced=False) -> list:
    return [s for s in samples if not s.warm_up and s.traced == traced]


def calibrated_wall(samples) -> float:
    """Median iteration time in seconds of the reference host (see the
    module docstring)."""
    return CALIBRATION_REF_S * statistics.median(s.wall / s.calibration for s in samples)


def failures(samples) -> int:
    return sum(1 for s in samples if s.problems)


def tail_percentile(values):
    """The highest of the usual percentiles with at least ten samples beyond
    it, as (percentile, value), or None when there are too few samples."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0:
            cut = statistics.quantiles(values, n=1000, method="inclusive")
            return p, cut[int(round(p * 10)) - 1]
    return None


def traced_metrics(tracer: Tracer, samples) -> dict:
    """Per-layer metrics of the traced iterations, as {name: (value, unit)},
    plus the two the benchmark reads from each iteration's outputs."""
    traced = timed(samples, traced=True)
    metrics = layer_metrics(tracer.spans, len(traced))
    metrics["cli.output_bytes"] = (statistics.median(s.output.n_bytes for s in traced), "bytes")
    metrics["checks.worst_margin"] = (
        max(s.output.values.get("worst_margin", 0.0) for s in traced), "ratio")
    return metrics


def cpu_util(samples) -> float:
    """CPU seconds per wall second over ``samples``; above 1 means threads."""
    return sum(s.cpu for s in samples) / sum(s.wall for s in samples)
