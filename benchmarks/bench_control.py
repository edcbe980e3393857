"""Control-plane bench (our addition): reconcile-tick latency and
time-to-recover.

The control plane's overhead claim is that the probe → policy → apply
loop is cheap relative to the serving work it supervises: a reconcile
tick over a live cluster is sub-millisecond-ish (probing is stats-surface
reads plus one telemetry snapshot diff; policies are pure arithmetic), so
running it every second costs the data plane nothing measurable.  Its
recovery claim is that a killed replica is detected and re-warmed within
one tick — time-to-recover is bounded by the tick interval, not by a
cold rebuild.

Recorded:

- ``tick_p50_ms`` / ``tick_p99_ms`` — reconcile latency over a healthy
  cluster (no actions proposed: the steady-state cost);
- ``recover_ms`` — median wall-clock of kill → tick → revived-and-warm,
  i.e. the controller's detection + re-warm cost with the interval
  removed (ticks are driven back-to-back here);
- ``recover_speedup_vs_cold`` — the same recovery measured against a
  cold streaming rebuild of the shard's sub-sketch, the cost the re-warm
  path avoids.

``REPRO_BENCH_SMOKE=1`` shrinks the sketch so the CI benchmark-smoke job
finishes quickly.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro import telemetry
from repro.bench.report import Table
from repro.control import (
    AutoscaleConfig,
    AutoscalePolicy,
    Controller,
    HealthProbe,
    SelfHealConfig,
    SelfHealPolicy,
)
from repro.graph.datasets import load_dataset
from repro.service import IMQuery
from repro.shard import ShardCluster, ShardPlan, SketchSpec

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
THETA = 300 if SMOKE else 2000
TICKS = 20 if SMOKE else 100
KILLS = 5 if SMOKE else 20
DATASET = "amazon"
SEED = 7


def _make_cluster():
    plan = ShardPlan(num_shards=2, replication=2)
    cluster = ShardCluster(plan)
    graph = load_dataset(DATASET, model="IC", seed=SEED)
    cluster.install_graph(DATASET, graph)
    cluster.build(
        SketchSpec(dataset=DATASET, model="IC", seed=SEED, num_sets=THETA)
    )
    return cluster


def _make_controller(cluster):
    return Controller(
        HealthProbe(cluster=cluster),
        # The cluster's shape is the fixed workload here: pin the
        # autoscaler to replication 2 so only the self-heal path fires.
        # The repeated deliberate kills below must not look like flapping.
        [
            SelfHealPolicy(SelfHealConfig(flap_threshold=KILLS + 1)),
            AutoscalePolicy(
                AutoscaleConfig(min_replicas=2, max_replicas=2)
            ),
        ],
        cluster=cluster,
        sleep=lambda _s: None,
    )


def test_control_tick_and_recovery(bench_record):
    query = IMQuery(
        dataset=DATASET, model="IC", k=10, seed=SEED, theta_cap=THETA
    )
    with telemetry.session(), _make_cluster() as cluster:
        controller = _make_controller(cluster)
        expected = cluster.query(query)
        assert expected.ok and not expected.degraded

        # Steady state: reconcile over a healthy cluster, no actions.
        tick_s = []
        for _ in range(TICKS):
            t0 = time.perf_counter()
            report = controller.tick()
            tick_s.append(time.perf_counter() - t0)
            assert report.outcomes == []

        # Recovery: kill + drop cache, one tick revives and re-warms.
        recover_s = []
        victim = cluster.worker(0, 1)
        for _ in range(KILLS):
            cluster.kill(0, 1)
            victim.engine.cache.clear()
            t0 = time.perf_counter()
            report = controller.tick()
            recover_s.append(time.perf_counter() - t0)
            assert [a["kind"] for a in report.outcomes] == ["revive"]
            assert not victim.dead
        assert victim.engine.stats.cold_samples == 0
        resp = cluster.query(query)
        assert resp.seeds == expected.seeds and not resp.degraded

        # The avoided cost: a cold streaming rebuild of the same slice.
        victim.engine.cache.clear()
        t0 = time.perf_counter()
        victim.session_open("bench", SketchSpec(
            dataset=DATASET, model="IC", seed=SEED, num_sets=THETA
        ))
        cold_s = time.perf_counter() - t0
        assert victim.engine.stats.cold_samples == 1

    tick_p50_ms = float(np.percentile(tick_s, 50) * 1e3)
    tick_p99_ms = float(np.percentile(tick_s, 99) * 1e3)
    recover_ms = float(np.median(recover_s) * 1e3)
    speedup = float(cold_s / np.median(recover_s))

    print(
        f"\ntick p50 {tick_p50_ms:.3f} ms  p99 {tick_p99_ms:.3f} ms  "
        f"recover {recover_ms:.3f} ms  cold rebuild {cold_s * 1e3:.1f} ms "
        f"({speedup:.1f}x)"
    )

    table = Table(
        title="Control-plane reconcile cost",
        columns=["metric", "value_ms"],
    )
    table.add_row("tick_p50", tick_p50_ms)
    table.add_row("tick_p99", tick_p99_ms)
    table.add_row("recover_median", recover_ms)
    table.add_row("cold_rebuild", cold_s * 1e3)
    bench_record(
        "control_reconcile",
        theta=THETA, ticks=TICKS, kills=KILLS,
        tick_p50_ms=tick_p50_ms, tick_p99_ms=tick_p99_ms,
        recover_ms=recover_ms, cold_rebuild_ms=cold_s * 1e3,
        recover_speedup_vs_cold=speedup,
        table=table,
    )

    # Recovery must beat the cold rebuild it replaces.
    assert np.median(recover_s) < cold_s
