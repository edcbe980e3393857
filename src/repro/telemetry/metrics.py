"""Counters, gauges, and streaming histograms behind one registry.

Design constraints (ISSUE 1 / docs/observability.md):

- **Cheap enough for hot loops.** Instruments are plain Python objects with
  one-attribute updates; the disabled path is a single boolean check that
  callers hoist out of their loops (``tel = get(); if tel.enabled: ...``).
- **Thread-safe.** The gateway (docs/gateway.md) records from concurrent
  connection handlers and its engine executor thread, so every mutation —
  ``inc``/``set``/``observe`` and the snapshot/merge paths — holds a
  per-instrument :class:`threading.Lock`.  A read-modify-write like
  ``value += amount`` is *not* atomic under the GIL (the interpreter can
  switch threads between the read and the write), so unlocked concurrent
  increments silently lose updates.  An uncontended lock costs ~100 ns,
  invisible next to the work being measured.
- **Mergeable across processes.** Every instrument serialises to a plain
  picklable dict (:meth:`MetricsRegistry.snapshot`); snapshots support
  element-wise :func:`merge_snapshots` (fan-in from workers) and
  :func:`diff_snapshots` (per-task deltas in a forked worker, where the
  child inherits the parent's accumulated state and must ship only what it
  added).  This is the per-worker buffer + merge-on-reduce protocol the
  multiprocessing backend uses.
- **Quantiles without storing samples.** :class:`Histogram` buckets
  observations geometrically (base ``2**(1/4)``, ~19% relative error) in a
  sparse dict, so p50/p95/p99 come from bucket boundaries in O(buckets).

Apart from :meth:`Histogram.observe_many`, which buckets a whole numpy
array of observations at once, only the standard library is used.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any, Iterable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "merge_snapshots",
    "diff_snapshots",
    "SCHEMA",
]

#: Schema identifier stamped into every snapshot / exported JSON document.
SCHEMA = "repro-telemetry/1"

# Histogram bucketing: geometric with 4 buckets per octave, floor 1e-9
# (nanosecond-scale latencies) — index = floor(log(x / _HIST_MIN) / log(base)).
_HIST_BASE = 2.0 ** 0.25
_HIST_LOG_BASE = math.log(_HIST_BASE)
_HIST_MIN = 1e-9


class Counter:
    """Monotonically increasing value (events, bytes, seconds-of-work)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount


class Gauge:
    """Last-written value (sizes, ratios, utilisation)."""

    __slots__ = ("value", "_lock")

    def __init__(self) -> None:
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self.value = v


class Histogram:
    """Streaming geometric-bucket histogram with min/max/sum tracking."""

    __slots__ = ("counts", "count", "sum", "min", "max", "_lock")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        v = float(value)
        b = self._bucket(v)
        with self._lock:
            self.counts[b] = self.counts.get(b, 0) + 1
            self.count += 1
            self.sum += v
            if v < self.min:
                self.min = v
            if v > self.max:
                self.max = v

    def observe_many(self, values: np.ndarray | list[float]) -> None:
        """:meth:`observe` every value, bucketing each distinct value once
        under one lock acquisition."""
        distinct, reps = np.unique(
            np.asarray(values, dtype=np.float64), return_counts=True
        )
        if distinct.size == 0:
            return
        buckets = [self._bucket(v) for v in distinct.tolist()]
        total = float(np.dot(distinct, reps))
        with self._lock:
            for b, c in zip(buckets, reps.tolist()):
                self.counts[b] = self.counts.get(b, 0) + c
            self.count += int(reps.sum())
            self.sum += total
            self.min = min(self.min, float(distinct[0]))
            self.max = max(self.max, float(distinct[-1]))

    @staticmethod
    def _bucket(v: float) -> int:
        if v <= _HIST_MIN:
            return 0
        return int(math.log(v / _HIST_MIN) / _HIST_LOG_BASE) + 1

    @staticmethod
    def _bucket_upper(b: int) -> float:
        if b <= 0:
            return _HIST_MIN
        return _HIST_MIN * _HIST_BASE ** b

    @property
    def mean(self) -> float:
        with self._lock:
            return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate q-quantile (``q`` in [0, 1]) from bucket boundaries."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            return self._percentile_locked(q)

    def _percentile_locked(self, q: float) -> float:
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for b in sorted(self.counts):
            seen += self.counts[b]
            if seen >= rank:
                est = self._bucket_upper(b)
                return min(max(est, self.min), self.max)
        return self.max

    def to_dict(self) -> dict[str, Any]:
        with self._lock:
            return {
                "counts": {str(b): c for b, c in self.counts.items()},
                "count": self.count,
                "sum": self.sum,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "p50": self._percentile_locked(0.50),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Histogram":
        h = cls()
        h.counts = {int(b): int(c) for b, c in d.get("counts", {}).items()}
        h.count = int(d.get("count", 0))
        h.sum = float(d.get("sum", 0.0))
        h.min = d.get("min")
        h.min = math.inf if h.min is None else float(h.min)
        h.max = d.get("max")
        h.max = -math.inf if h.max is None else float(h.max)
        return h


class MetricsRegistry:
    """Named instruments, creatable on first touch, snapshot-mergeable.

    Names are dotted lowercase paths (``sampling.rrr_sets``); the full
    naming convention lives in docs/observability.md.  A name owns exactly
    one instrument kind — asking for ``counter(name)`` after ``gauge(name)``
    raises ``KeyError`` rather than silently aliasing.
    """

    def __init__(self) -> None:
        self.enabled = True
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------- factories
    def _get(self, table: dict, name: str, factory, kind: str):
        inst = table.get(name)
        if inst is None:
            with self._lock:
                self._check_unique(name, kind)
                inst = table.setdefault(name, factory())
        return inst

    def _check_unique(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise KeyError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        return self._get(self._counters, name, Counter, "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get(self._gauges, name, Gauge, "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get(self._histograms, name, Histogram, "histogram")

    # ------------------------------------------------------------- snapshots
    def snapshot(self) -> dict[str, Any]:
        """Plain-dict (picklable, JSON-able) copy of every instrument."""
        with self._lock:
            return {
                "schema": SCHEMA,
                "counters": {k: c.value for k, c in self._counters.items()},
                "gauges": {k: g.value for k, g in self._gauges.items()},
                "histograms": {
                    k: h.to_dict() for k, h in self._histograms.items()
                },
            }

    def merge_snapshot(self, snap: dict[str, Any]) -> None:
        """Fold a snapshot (e.g. a worker's delta) into this registry.

        Counters and histogram buckets add; gauges last-write-wins (the
        incoming snapshot is considered newer).
        """
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snap.get("histograms", {}).items():
            h = self.histogram(name)
            other = Histogram.from_dict(data)
            with h._lock:
                for b, c in other.counts.items():
                    h.counts[b] = h.counts.get(b, 0) + c
                h.count += other.count
                h.sum += other.sum
                h.min = min(h.min, other.min)
                h.max = max(h.max, other.max)

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    def to_json(self, **extra: Any) -> str:
        doc = self.snapshot()
        doc.update(extra)
        return json.dumps(doc, indent=2, sort_keys=True, default=float)


def merge_snapshots(snaps: Iterable[dict[str, Any]]) -> dict[str, Any]:
    """Combine many snapshots into one (the reduce step of the protocol)."""
    reg = MetricsRegistry()
    for s in snaps:
        reg.merge_snapshot(s)
    return reg.snapshot()


def diff_snapshots(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    """``after - before``: what was recorded between two snapshots.

    Used by forked workers: the child inherits the parent's accumulated
    registry, so its contribution is the delta around each task.  Counters
    and histogram bucket counts subtract; gauges keep ``after``'s values
    (only gauges that changed are included); a delta histogram's min/max are
    taken from ``after`` (approximate, but quantiles stay exact because they
    derive from the subtracted buckets).
    """
    b_counters = before.get("counters", {})
    counters = {
        k: v - b_counters.get(k, 0.0)
        for k, v in after.get("counters", {}).items()
        if v != b_counters.get(k, 0.0)
    }
    b_gauges = before.get("gauges", {})
    gauges = {
        k: v
        for k, v in after.get("gauges", {}).items()
        if k not in b_gauges or v != b_gauges[k]
    }
    histograms: dict[str, Any] = {}
    b_hists = after.get("histograms", {})
    for name, a in b_hists.items():
        b = before.get("histograms", {}).get(name)
        if b is None:
            histograms[name] = a
            continue
        counts = dict(a.get("counts", {}))
        for bucket, c in b.get("counts", {}).items():
            left = counts.get(bucket, 0) - c
            if left:
                counts[bucket] = left
            else:
                counts.pop(bucket, None)
        d_count = a["count"] - b["count"]
        if d_count <= 0:
            continue
        histograms[name] = {
            "counts": counts,
            "count": d_count,
            "sum": a["sum"] - b["sum"],
            "min": a["min"],
            "max": a["max"],
        }
    return {
        "schema": SCHEMA,
        "counters": counters,
        "gauges": gauges,
        "histograms": histograms,
    }
