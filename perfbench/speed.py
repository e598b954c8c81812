"""Machine-speed references for the benchmark's timings.

The virtual CPUs this benchmark was built on run the same code at speeds up
to 2x apart, and the speed switches within a second or drifts over minutes,
so raw CPU times of the same code spread by more than the benchmark's bounds
from run to run.  A ``Speed`` object times a fixed reference task between
the measured requests, at most every ``interval_s`` seconds and on the same
CPU.  The task reports its slowdown: its CPU time over its time at the
reference speed.  A measured CPU time is divided by the mean slowdown of the
two samples that bracket it, the last one before and the first one after:
the result is the time the work would take at the reference speed, in
seconds.  The speed can switch within a second, so the nearest samples
follow it better than a median over a longer window.  Neither reference
task runs seqdecomp code, so a change to the program moves only the
measured side.

There are two references, because no single task followed both kinds of
measurement closely:

- in-process work is scaled by ``kernel_task``: the SVD of a complex
  192x192 matrix, an interpreter loop over a dict, and a JSON round trip,
  each timed on its own and weighted per workload
  (``workloads.KERNEL_WEIGHTS``).  The slow speed costs these three about
  1.4x, 1.7x and 2x, and seqdecomp requests lie in between: dense linear
  algebra near the SVD, plan parsing and small requests near the other two;
- child processes are scaled by a fresh interpreter that imports numpy
  (``CHILD_ARGV``), because their time is mostly interpreter start-up and
  imports.  It removed the machine's drift from ``python3 -m seqdecomp``
  children down to 2% (1 sd over 10 s windows), where the SVD left 5%.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from typing import Callable

import numpy as np

#: CPU seconds of each part of ``kernel_task`` and of a ``CHILD_ARGV``
#: child at the reference speed: their typical times on a 2-vCPU Intel Xeon
#: VM at the faster of its speeds, one BLAS thread.  They fix the scale of
#: the reported times, and make each part's slowdown about 1 at that speed,
#: so that the parts' weights mean what they say.
SVD_NOMINAL_S = 0.0143
LOOP_NOMINAL_S = 0.0046
JSON_NOMINAL_S = 0.0048
CHILD_NOMINAL_S = 0.16
#: Seconds of wall time between samples of each reference: a sample is
#: taken before a request once the last one is this old.
KERNEL_INTERVAL_S = 0.25
CHILD_INTERVAL_S = 0.6
#: Interpreter arguments of the child reference.
CHILD_ARGV = ("-c", "import numpy")


def kernel_task(weights: tuple[float, float, float]) -> Callable[[], float]:
    """The in-process reference: returns a function that runs the parts
    (SVD, interpreter loop, JSON round trip) with a non-zero weight once and
    returns the weighted mean of their slowdowns."""
    rng = np.random.default_rng(0)
    matrix = rng.standard_normal((192, 192)) + 1j * rng.standard_normal((192, 192))
    doc = json.dumps([[float(x), float(y)] for x, y in rng.standard_normal((2000, 2))])

    def loop():
        counts = {}
        for i in range(40000):
            counts[i % 97] = counts.get(i % 97, 0) + i

    parts = [
        (work, nominal, weight)
        for work, nominal, weight in zip(
            (lambda: np.linalg.svd(matrix), loop, lambda: json.dumps(json.loads(doc))),
            (SVD_NOMINAL_S, LOOP_NOMINAL_S, JSON_NOMINAL_S),
            weights,
        )
        if weight
    ]

    def run() -> float:
        slowdown = 0.0
        for work, nominal, weight in parts:
            start = time.process_time()
            work()
            slowdown += weight * (time.process_time() - start) / nominal
        return slowdown / sum(weight for _, _, weight in parts)

    run()  # warm-up, untimed
    return run


class Speed:
    """Samples of one reference task over a run, and the scaling of CPU
    times by them."""

    def __init__(self, task: Callable[[], float], interval_s: float):
        self.task = task
        self.interval_s = interval_s
        self.times: list[float] = []  # perf_counter midpoints of the samples
        self.slowdown: list[float] = []  # their slowdowns
        self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        slowdown = self.task()
        self.times.append((start + time.perf_counter()) / 2)
        self.slowdown.append(slowdown)

    def tick(self) -> None:
        """Take a sample if the last one is ``interval_s`` old."""
        if time.perf_counter() - self.times[-1] >= self.interval_s:
            self.sample()

    def slowdown_at(self, at: float) -> float:
        """Mean slowdown of the samples just before and just after the
        perf_counter moment ``at`` (of the one there is, at either end)."""
        i = bisect.bisect_left(self.times, at)
        return statistics.fmean(self.slowdown[max(0, i - 1) : i + 1])

    def factor_between(self, start: float, end: float) -> float:
        """Scale factor for CPU times spread over [start, end] (perf_counter):
        one over the median slowdown of the samples taken in between."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi > lo:
            return 1.0 / statistics.median(self.slowdown[lo:hi])
        return 1.0 / self.slowdown_at((start + end) / 2)

    def scale(self, cpu_s: float, start: float, end: float) -> float:
        """CPU seconds measured over [start, end] (perf_counter), at the
        reference speed."""
        return cpu_s / self.slowdown_at((start + end) / 2)

    def summary(self) -> dict:
        return {
            "samples": len(self.slowdown),
            "median_slowdown": statistics.median(self.slowdown),
            "quartiles": statistics.quantiles(self.slowdown, n=4) if len(self.slowdown) > 1 else [],
        }
