"""Host speed, measured inside every run.

On the shared 2-vCPU VM (2.1 GHz Firecracker guest) the results in
``perf/results`` come from, speed drifts: for minutes at a time the same
IMM run takes up to twice as long, and CPU time rises with it, so the
slowdown is the hardware's (contended cores and memory), not scheduling.
One run cannot outlast such a spell, so raw times taken minutes apart
differ by more than any useful regression bound.

Every worker therefore times :func:`calibrate` -- a fixed mix of NumPy
gathers, ``np.unique`` and interpreted Python, none of it the program's
code -- between its operations.  ``run.py`` multiplies every time it
reports by ``REFERENCE_S`` over the calibration: the mean of the two
around each IMM run or update epoch, the median of the run's on
serve-gateway.  Times are expressed in seconds of a host on which
:func:`calibrate` takes ``REFERENCE_S``.  A
change to the program cannot move the calibration, so it moves the
adjusted times exactly as it moves the raw ones.  The raw times and the
factor are printed beside them.
"""

from __future__ import annotations

import os
import statistics
import time
from typing import Callable

import numpy as np

#: What :func:`calibrate` takes on a quiet 2.1 GHz vCPU of the reference VM.
REFERENCE_S = 0.2

#: Seconds between calibrations while a worker measures.
INTERVAL_S = 2.5


def calibrate() -> float:
    """Seconds one fixed mix of memory-bound NumPy and interpreted Python
    takes right now (about half each)."""
    rng = np.random.default_rng(0)
    table = rng.random(1 << 20)
    picks = rng.integers(0, 1 << 20, 200_000)
    ids = rng.integers(0, 4000, 20_000)
    t0 = time.perf_counter()
    for _ in range(60):
        table[picks].sum()
        np.unique(ids)
    counts: dict[int, int] = {}
    total = 0
    for i in range(1_100_000):
        total += i & 7
        counts[i & 1023] = total
    return time.perf_counter() - t0


def calibrate_each_cpu() -> float:
    """:func:`calibrate` pinned to each CPU this process may use, averaged.

    For work done by another process: the scheduler may place it on any
    CPU, and on a shared host the CPUs do not slow down together.
    """
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            times.append(calibrate())
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.mean(times)


class Calibrator:
    """Calibrates between operations, at most every :data:`INTERVAL_S`."""

    def __init__(self, measure: Callable[[], float] = calibrate):
        self.measure = measure
        self.samples: list[float] = []
        self._last = -float("inf")

    def maybe(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.now()

    def now(self) -> None:
        self.samples.append(self.measure())
        self._last = time.perf_counter()
