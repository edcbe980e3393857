"""Exact order statistics over raw samples.

Every latency the benchmark reports is computed from the raw samples of the
run, never from a bucketed histogram, so percentiles are observed values and
carry no quantisation error.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie beyond
#: it; with fewer, one outlier decides the value.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile (an observed sample)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 100:
        raise ValueError(f"percentile must lie in (0, 100], got {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``q``-th
    percentile."""
    return n - max(1, math.ceil(q / 100.0 * n))


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support the ``q``-th percentile, i.e. leave at
    least :data:`MIN_BEYOND` samples beyond it."""
    return n > 0 and beyond(n, q) >= MIN_BEYOND


def tail(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile where ``values`` support it, otherwise their
    median: with fewer than ``MIN_BEYOND`` samples beyond it a percentile
    is decided by the slowest few, and no percentile above the median is
    supported by fewer than ``2 * MIN_BEYOND + 1`` samples."""
    return percentile(values, q) if supported(len(values), q) else statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else math.inf
