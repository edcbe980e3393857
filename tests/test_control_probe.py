"""Tests for repro.control.probe: rate windows, clamping, and live sampling.

The RateTracker tests double as the regression suite for the
merge-on-reduce protocol's ugly corner: counters observed through
snapshots can *appear* to regress (registry ``clear()``, out-of-order
folds of worker deltas), and a policy fed a negative rate would
hallucinate recovering traffic.  Every delta must clamp at zero.
"""

from __future__ import annotations

import threading
import time

from repro import telemetry
from repro.control import HealthProbe, HealthSample, RateTracker, ReplicaHealth
from repro.service import EngineConfig, IMQuery, QueryEngine
from repro.shard import ShardCluster, ShardPlan
from repro.telemetry.metrics import MetricsRegistry, merge_snapshots

from test_shard import small_graph, spec_for


class TestRateTracker:
    def test_first_window_is_empty(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(10)
        window = RateTracker().advance(reg.snapshot(), now=0.0)
        assert window["elapsed_s"] == 0.0
        assert window["deltas"] == {} and window["rates"] == {}
        assert window["histograms"] == {}

    def test_deltas_and_rates_over_a_window(self):
        reg = MetricsRegistry()
        tracker = RateTracker()
        reg.counter("gateway.shed").inc(3)
        tracker.advance(reg.snapshot(), now=0.0)
        reg.counter("gateway.shed").inc(5)
        window = tracker.advance(reg.snapshot(), now=2.0)
        assert window["elapsed_s"] == 2.0
        assert window["deltas"]["gateway.shed"] == 5.0
        assert window["rates"]["gateway.shed"] == 2.5

    def test_counter_regression_clamps_to_zero(self):
        """A registry clear between samples must read as 'no progress'."""
        reg = MetricsRegistry()
        tracker = RateTracker()
        reg.counter("c").inc(100)
        tracker.advance(reg.snapshot(), now=0.0)
        reg.clear()
        reg.counter("c").inc(1)  # now 1 < 100: apparent regression
        window = tracker.advance(reg.snapshot(), now=1.0)
        assert window["deltas"]["c"] == 0.0
        assert window["rates"]["c"] == 0.0

    def test_out_of_order_merge_fold_never_goes_negative(self):
        """Merge-on-reduce: folding an older worker snapshot after a newer
        one shrinks the merged totals; the windowed rate must clamp."""
        w1, w2 = MetricsRegistry(), MetricsRegistry()
        w1.counter("q").inc(10)
        old_w2 = None
        w2.counter("q").inc(4)
        old_w2 = w2.snapshot()
        w2.counter("q").inc(6)  # w2 now at 10
        tracker = RateTracker()
        tracker.advance(merge_snapshots([w1.snapshot(), w2.snapshot()]), 0.0)
        # The fold that lands next only has w2's *older* delta: total 14 < 20.
        window = tracker.advance(
            merge_snapshots([w1.snapshot(), old_w2]), 1.0
        )
        assert window["deltas"]["q"] == 0.0
        assert all(v >= 0.0 for v in window["rates"].values())

    def test_windowed_histograms_forget_old_breaches(self):
        """p99 must be computed per window: a past latency spike cannot pin
        the percentile high after traffic recovers."""
        reg = MetricsRegistry()
        tracker = RateTracker()
        w1 = tracker.advance(reg.snapshot(), now=0.0)  # first: no window
        assert w1["histograms"] == {}
        for _ in range(50):
            reg.histogram("lat").observe(2.0)  # the breach window
        w2 = tracker.advance(reg.snapshot(), now=1.0)
        assert w2["histograms"]["lat"].percentile(0.99) >= 2.0
        for _ in range(50):
            reg.histogram("lat").observe(0.001)  # the recovered window
        w3 = tracker.advance(reg.snapshot(), now=2.0)
        assert w3["histograms"]["lat"].percentile(0.99) < 0.01
        # A window with no new observations drops the histogram entirely.
        w4 = tracker.advance(reg.snapshot(), now=3.0)
        assert "lat" not in w4["histograms"]

    def test_concurrent_writers_never_produce_negative_deltas(self):
        """Satellite regression: snapshots taken while N threads hammer the
        registry must always delta forward (counters are monotonic under
        the per-instrument locks; the tracker clamps whatever remains)."""
        reg = MetricsRegistry()
        stop = threading.Event()

        def writer(i):
            while not stop.is_set():
                reg.counter("hits").inc()
                reg.counter(f"w{i}.ops").inc(2)
                reg.histogram("lat").observe(0.01 * (i + 1))

        threads = [
            threading.Thread(target=writer, args=(i,), daemon=True)
            for i in range(4)
        ]
        for t in threads:
            t.start()
        tracker = RateTracker()
        windows = []
        for step in range(30):
            time.sleep(0.002)  # let the writers make progress
            windows.append(tracker.advance(reg.snapshot(), now=float(step)))
        stop.set()
        for t in threads:
            t.join(timeout=30)
        for window in windows:
            for name, delta in window["deltas"].items():
                assert delta >= 0.0, f"negative delta for {name}"
            for name, rate in window["rates"].items():
                assert rate >= 0.0, f"negative rate for {name}"
            for hist in window["histograms"].values():
                assert hist.count > 0
        # The writers did make observable progress through the snapshots.
        total = sum(w["deltas"].get("hits", 0.0) for w in windows)
        assert total > 0


class TestHealthSample:
    def test_round_trips_through_json_dict(self):
        s = HealthSample(
            ts=1.5,
            num_shards=2,
            replicas=(
                ReplicaHealth(name="s0r0", shard=0, replica=0, dead=False),
                ReplicaHealth(
                    name="s1r0", shard=1, replica=0, dead=True,
                    consecutive_failures=2, healthy=False,
                ),
            ),
            queue_depth=3,
            queue_capacity=64,
            shed_rate=1.25,
            shed_by_cause={"queue_full": 1.25},
            p99_latency_s=0.2,
            sketch_bytes=1000,
            graph_epoch=4,
            served_epoch=3,
            staleness=1,
        )
        back = HealthSample.from_dict(s.to_dict())
        assert back.to_dict() == s.to_dict()
        assert back.replicas_per_shard() == {0: 1, 1: 1}
        assert [r.name for r in back.dead_replicas()] == ["s1r0"]


class TestHealthProbe:
    def test_probe_reports_cluster_liveness_and_footprint(self):
        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=2)
        with telemetry.session(), ShardCluster(plan) as cluster:
            cluster.install_graph("synth", g)
            cluster.build(spec_for())
            probe = HealthProbe(cluster=cluster)
            s = probe.sample()
            assert s.source == "live"
            assert s.num_shards == 2 and len(s.replicas) == 4
            assert s.dead_replicas() == ()
            assert s.sketch_bytes > 0  # summed from the per-shard gauges
            cluster.kill(0, 1)
            s2 = probe.sample()
            assert [r.name for r in s2.dead_replicas()] == ["s0r1"]
            assert s2.replicas_per_shard() == {0: 2, 1: 2}

    def test_probe_reads_engine_latency(self):
        """An engine-only stack records its latency under ``service.*``;
        the probe must find it there, or no policy ever sees its load."""
        clock = iter([0.0, 2.0])
        with telemetry.session(), QueryEngine(config=EngineConfig()) as engine:
            engine.install_graph("synth", small_graph())
            probe = HealthProbe(clock=lambda: next(clock))
            probe.sample()
            for k in range(1, 6):
                assert engine.query(
                    IMQuery(dataset="synth", k=k, theta_cap=80)
                ).ok
            s = probe.sample()
        assert s.p99_latency_s > 0.0
        assert s.query_rate == 2.5  # five queries over the 2 s window

    def test_probe_without_handles_returns_defaults(self):
        s = HealthProbe().sample()
        assert s.num_shards == 0 and s.replicas == ()
        assert s.queue_capacity == 0 and s.graph_epoch == -1
