"""Health probing: stats surfaces + telemetry snapshots → typed samples.

The probe layer is the control plane's only *input*.  A
:class:`HealthProbe` polls whatever data-plane handles it was given — a
:class:`~repro.shard.cluster.ShardCluster`, a
:class:`~repro.gateway.server.GatewayServer`, a
:class:`~repro.dynamic.serving.DynamicService` — plus the process-wide
telemetry registry, and condenses everything into one flat, JSON-able
:class:`HealthSample` per tick.  Policies (:mod:`repro.control.policy`)
consume samples and nothing else, which is what makes them unit-testable
from fixtures and `repro control plan --fixture` deterministic.

Counters are cumulative, but policies want *rates* ("sheds per second
right now", not "sheds since boot") and *windowed* percentiles ("p99 over
the last tick", not since boot — a breach must clear once traffic
recovers).  :class:`RateTracker` turns consecutive
:meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` dicts into both,
using :func:`~repro.telemetry.metrics.diff_snapshots` and clamping every
delta at zero: a registry ``clear()`` or an out-of-order merge-on-reduce
fold must read as "no progress", never as negative traffic.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import telemetry
from repro.service.engine import QueryEngine
from repro.shard.router import Router
from repro.telemetry.metrics import Histogram, diff_snapshots

__all__ = ["HealthProbe", "HealthSample", "RateTracker", "ReplicaHealth"]


@dataclass(frozen=True)
class ReplicaHealth:
    """Liveness of one shard replica as seen by cluster + router."""

    name: str
    shard: int
    replica: int
    dead: bool
    consecutive_failures: int = 0
    healthy: bool = True

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "shard": self.shard,
            "replica": self.replica,
            "dead": self.dead,
            "consecutive_failures": self.consecutive_failures,
            "healthy": self.healthy,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ReplicaHealth":
        return cls(
            name=str(d.get("name", "")),
            shard=int(d.get("shard", 0)),
            replica=int(d.get("replica", 0)),
            dead=bool(d.get("dead", False)),
            consecutive_failures=int(d.get("consecutive_failures", 0)),
            healthy=bool(d.get("healthy", True)),
        )


@dataclass(frozen=True)
class HealthSample:
    """One tick's flattened view of the stack (everything a policy sees).

    Rates are per-second over the window since the previous sample;
    ``p95_latency_s`` / ``p99_latency_s`` are windowed the same way, so a
    past breach does not pin them high forever.  ``source`` records where
    the sample came from (``"live"`` or ``"fixture"``).
    """

    ts: float
    num_shards: int = 0
    replicas: tuple[ReplicaHealth, ...] = ()
    queue_depth: int = 0
    queue_capacity: int = 0
    predicted_wait_s: float = 0.0
    accept_rate: float = 0.0
    shed_rate: float = 0.0
    shed_by_cause: dict[str, float] = field(default_factory=dict)
    p95_latency_s: float = 0.0
    p99_latency_s: float = 0.0
    query_rate: float = 0.0
    sketch_bytes: int = 0
    segment_bytes: int = 0
    graph_epoch: int = -1
    served_epoch: int = -1
    staleness: int = 0
    source: str = "live"

    def replicas_per_shard(self) -> dict[int, int]:
        """Configured replicas per shard (dead ones included)."""
        out: dict[int, int] = {}
        for r in self.replicas:
            out[r.shard] = out.get(r.shard, 0) + 1
        return out

    def dead_replicas(self) -> tuple[ReplicaHealth, ...]:
        return tuple(r for r in self.replicas if r.dead)

    def to_dict(self) -> dict[str, Any]:
        return {
            "ts": self.ts,
            "num_shards": self.num_shards,
            "replicas": [r.to_dict() for r in self.replicas],
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "predicted_wait_s": self.predicted_wait_s,
            "accept_rate": self.accept_rate,
            "shed_rate": self.shed_rate,
            "shed_by_cause": dict(self.shed_by_cause),
            "p95_latency_s": self.p95_latency_s,
            "p99_latency_s": self.p99_latency_s,
            "query_rate": self.query_rate,
            "sketch_bytes": self.sketch_bytes,
            "segment_bytes": self.segment_bytes,
            "graph_epoch": self.graph_epoch,
            "served_epoch": self.served_epoch,
            "staleness": self.staleness,
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "HealthSample":
        return cls(
            ts=float(d.get("ts", 0.0)),
            num_shards=int(d.get("num_shards", 0)),
            replicas=tuple(
                ReplicaHealth.from_dict(r) for r in d.get("replicas", [])
            ),
            queue_depth=int(d.get("queue_depth", 0)),
            queue_capacity=int(d.get("queue_capacity", 0)),
            predicted_wait_s=float(d.get("predicted_wait_s", 0.0)),
            accept_rate=float(d.get("accept_rate", 0.0)),
            shed_rate=float(d.get("shed_rate", 0.0)),
            shed_by_cause={
                str(k): float(v)
                for k, v in d.get("shed_by_cause", {}).items()
            },
            p95_latency_s=float(d.get("p95_latency_s", 0.0)),
            p99_latency_s=float(d.get("p99_latency_s", 0.0)),
            query_rate=float(d.get("query_rate", 0.0)),
            sketch_bytes=int(d.get("sketch_bytes", 0)),
            segment_bytes=int(d.get("segment_bytes", 0)),
            graph_epoch=int(d.get("graph_epoch", -1)),
            served_epoch=int(d.get("served_epoch", -1)),
            staleness=int(d.get("staleness", 0)),
            source=str(d.get("source", "fixture")),
        )


class RateTracker:
    """Consecutive registry snapshots → per-window rates and histograms.

    Keeps only the previous snapshot (no external state), so it composes
    with any snapshot source — the live registry, a worker's shipped
    delta, a fixture.  All counter deltas are clamped at zero: under the
    merge-on-reduce protocol a counter can *appear* to regress (a
    ``clear()`` between samples, or a fold of an older worker snapshot
    landing after a newer one was observed), and a negative rate would
    make policies hallucinate recovering traffic.
    """

    def __init__(self) -> None:
        self._prev: dict[str, Any] | None = None
        self._prev_ts: float | None = None

    def advance(
        self, snapshot: dict[str, Any], now: float
    ) -> dict[str, Any]:
        """Fold in a new snapshot; returns the window since the last one.

        The result holds ``elapsed_s``, ``deltas`` (counter increments,
        clamped >= 0), ``rates`` (deltas / elapsed), and ``histograms``
        (windowed :class:`~repro.telemetry.metrics.Histogram` objects —
        call ``percentile`` on them).  The first call has no window and
        returns empty tables.
        """
        prev, prev_ts = self._prev, self._prev_ts
        self._prev, self._prev_ts = snapshot, float(now)
        if prev is None:
            return {
                "elapsed_s": 0.0, "deltas": {}, "rates": {}, "histograms": {}
            }
        elapsed = max(0.0, float(now) - float(prev_ts))
        diff = diff_snapshots(snapshot, prev)
        deltas = {
            k: max(0.0, float(v))
            for k, v in diff.get("counters", {}).items()
        }
        rates = (
            {k: v / elapsed for k, v in deltas.items()}
            if elapsed > 0
            else {k: 0.0 for k in deltas}
        )
        histograms = {
            name: Histogram.from_dict(data)
            for name, data in diff.get("histograms", {}).items()
            if int(data.get("count", 0)) > 0
        }
        return {
            "elapsed_s": elapsed,
            "deltas": deltas,
            "rates": rates,
            "histograms": histograms,
        }


class HealthProbe:
    """Polls the attached data-plane handles into :class:`HealthSample`s.

    Every handle is optional: the probe reports whatever surfaces it can
    see and leaves the rest at their defaults, so the same probe class
    serves a bare cluster in a test and the full gateway+dynamic stack in
    ``repro control run``.
    """

    #: Latency histograms consulted for p95/p99, most upstream first —
    #: the gateway's end-to-end latency is the SLO surface when present.
    LATENCY_METRICS = (
        "gateway.request_latency_s",
        f"{Router.METRIC_PREFIX}.query_latency_s",
        f"{QueryEngine.METRIC_PREFIX}.query_latency_s",
    )

    def __init__(
        self,
        *,
        cluster: Any = None,
        gateway: Any = None,
        service: Any = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self.cluster = cluster
        self.gateway = gateway
        self.service = service
        self._clock = clock
        self.tracker = RateTracker()

    def sample(self) -> HealthSample:
        now = float(self._clock())
        tel = telemetry.get()
        snap = tel.snapshot() if tel.enabled else {}
        window = self.tracker.advance(snap, now)
        rates = window["rates"]

        replicas: list[ReplicaHealth] = []
        num_shards = 0
        if self.cluster is not None:
            num_shards = int(self.cluster.plan.num_shards)
            health: dict[str, Any] = {}
            for per_shard in self.cluster.router.health_snapshot().values():
                health.update(per_shard)
            for w in self.cluster.workers:
                h = health.get(w.name, {})
                replicas.append(
                    ReplicaHealth(
                        name=w.name,
                        shard=int(w.shard_id),
                        replica=int(w.replica_id),
                        dead=bool(w.dead),
                        consecutive_failures=int(
                            h.get("consecutive_failures", 0)
                        ),
                        healthy=bool(h.get("healthy", not w.dead)),
                    )
                )
            replicas.sort(key=lambda r: (r.shard, r.replica))

        queue_depth = queue_capacity = 0
        predicted_wait = 0.0
        if self.gateway is not None:
            g = self.gateway.stats_snapshot().get("gateway", {})
            queue_depth = int(g.get("queue_depth", 0))
            queue_capacity = int(g.get("queue_capacity", 0))
            predicted_wait = float(g.get("predicted_wait_s") or 0.0)

        graph_epoch = served_epoch = -1
        staleness = 0
        if self.service is not None:
            d = self.service.stats_snapshot().get("dynamic", {})
            graph_epoch = int(d.get("graph_epoch", -1))
            served_epoch = int(d.get("served_epoch", -1))
            staleness = int(d.get("staleness", 0))

        p95 = p99 = 0.0
        query_rate = 0.0
        for name in self.LATENCY_METRICS:
            hist = window["histograms"].get(name)
            if hist is not None:
                p95 = float(hist.percentile(0.95))
                p99 = float(hist.percentile(0.99))
                query_rate = (
                    hist.count / window["elapsed_s"]
                    if window["elapsed_s"] > 0
                    else 0.0
                )
                break

        shed_by_cause = {
            cause: rates.get(f"gateway.shed_{cause}", 0.0)
            for cause in ("queue_full", "deadline", "stale", "rate_limited")
            if f"gateway.shed_{cause}" in rates
        }
        gauges = snap.get("gauges", {})
        sketch_bytes = int(
            sum(
                v
                for k, v in gauges.items()
                if k.startswith("shard.s") and k.endswith(".sketch_bytes")
            )
        )
        return HealthSample(
            ts=now,
            num_shards=num_shards,
            replicas=tuple(replicas),
            queue_depth=queue_depth,
            queue_capacity=queue_capacity,
            predicted_wait_s=predicted_wait,
            accept_rate=rates.get("gateway.accepted", 0.0),
            shed_rate=rates.get("gateway.shed", 0.0),
            shed_by_cause=shed_by_cause,
            p95_latency_s=p95,
            p99_latency_s=p99,
            query_rate=query_rate,
            sketch_bytes=sketch_bytes,
            segment_bytes=int(gauges.get("shm.segment_bytes", 0)),
            graph_epoch=graph_epoch,
            served_epoch=served_epoch,
            staleness=staleness,
            source="live",
        )
