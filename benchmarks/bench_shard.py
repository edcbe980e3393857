"""Sharded-serving bench (our addition): 1 -> 8 shard scaling curve.

The shard layer's claim is that partitioning the RRR sketch across
workers (a) shrinks the per-worker memory footprint — the HBMax-style
memory-per-shard curve — and (b) buys selection throughput once each
shard runs on its own host.  The cluster here is in-process and serves a
scatter sequentially, so raw wall-clock *cannot* show the parallel gain;
following the simmachine philosophy we price the measured per-entry
selection cost into a modeled parallel latency instead:

    modeled_latency(S) = cost_per_entry * max_entries(S)

where ``cost_per_entry`` is the warm selection busy-time of the 1-shard
cluster divided by total sketch entries, and ``max_entries(S)`` is the
heaviest shard under the S-way plan's hashed set ownership (the straggler
that bounds a parallel scatter-gather round).  Both inputs are deterministic
under a fixed seed, so the recorded throughput curve is too.

Also recorded, without scaling assertions: the measured sequential
query throughput and p99 latency of the in-process cluster (the price
of routing itself), and the gather fan-in.

``REPRO_BENCH_SMOKE=1`` shrinks the sketch so the CI benchmark-smoke job
finishes quickly.
"""

from __future__ import annotations

import os
import time

import numpy as np

from repro.bench.report import Table
from repro.service import IMQuery
from repro.shard import ShardCluster, ShardPlan, SketchSpec, shard_fingerprint

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
THETA = 300 if SMOKE else 2000
REPEATS = 3 if SMOKE else 10
SHAPES = (1, 2, 4, 8)
K = 10
SEED = 7

SESSION_OPS = ("session_open", "session_cover")


def _instrument(cluster, busy):
    """Wrap every worker's session ops to accumulate per-worker busy time."""
    for w in cluster.workers:
        busy[w.name] = 0.0
        for op in SESSION_OPS:
            original = getattr(w, op)

            def timed(*a, _orig=original, _name=w.name, **kw):
                t0 = time.perf_counter()
                try:
                    return _orig(*a, **kw)
                finally:
                    busy[_name] += time.perf_counter() - t0

            setattr(w, op, timed)


def _measure_shape(num_shards):
    q = IMQuery(dataset="amazon", k=K, theta_cap=THETA, seed=SEED)
    busy = {}
    with ShardCluster(ShardPlan(num_shards=num_shards)) as cluster:
        _instrument(cluster, busy)
        cold = cluster.query(q)
        assert cold.status == "ok" and not cold.degraded

        spec = SketchSpec.from_query(q, THETA)
        entries, bytes_per_shard = [], []
        for shard in range(num_shards):
            w = cluster.worker(shard, 0)
            _, gfp = w.engine.resolve_graph(spec.dataset, spec.model, spec.seed)
            sub_fp = shard_fingerprint(spec.fingerprint(gfp), shard, cluster.plan)
            store = w.engine.cache.get(sub_fp).store
            entries.append(int(store.total_entries))
            bytes_per_shard.append(int(store.nbytes()))

        latencies, max_busies = [], []
        for _ in range(REPEATS):
            for name in busy:
                busy[name] = 0.0
            # Drop the router's kept selection so every repeat runs the
            # scatter selection this bench prices, not a prefix read.
            cluster.router._kept.clear()
            t0 = time.perf_counter()
            resp = cluster.query(q)
            latencies.append(time.perf_counter() - t0)
            assert resp.status == "ok" and resp.cached
            assert resp.seeds == cold.seeds
            max_busies.append(max(busy.values()))

    return {
        "num_shards": num_shards,
        "total_entries": int(sum(entries)),
        "max_entries": int(max(entries)),
        "peak_sketch_bytes": int(max(bytes_per_shard)),
        "max_busy_s": float(min(max_busies)),
        "measured_qps": float(1.0 / np.median(latencies)),
        "p99_ms": float(np.percentile(latencies, 99) * 1e3),
    }


def test_shard_scaling_curve(bench_record):
    rows = [_measure_shape(s) for s in SHAPES]

    # Price the 1-shard selection cost per entry into each shape's
    # heaviest shard: the modeled parallel latency of one query round-set.
    base = rows[0]
    cost_per_entry = base["max_busy_s"] / base["total_entries"]
    for row in rows:
        row["modeled_latency_s"] = cost_per_entry * row["max_entries"]
        row["modeled_qps"] = 1.0 / row["modeled_latency_s"]

    print(f"\n{'shards':>6} {'max_entries':>11} {'peak_bytes':>10} "
          f"{'modeled_qps':>11} {'measured_qps':>12} {'p99_ms':>8}")
    for r in rows:
        print(f"{r['num_shards']:>6} {r['max_entries']:>11} "
              f"{r['peak_sketch_bytes']:>10} {r['modeled_qps']:>11.1f} "
              f"{r['measured_qps']:>12.1f} {r['p99_ms']:>8.2f}")

    columns = [
        "num_shards", "max_entries", "peak_sketch_bytes",
        "modeled_qps", "measured_qps", "p99_ms",
    ]
    table = Table(title="Shard scaling 1 -> 8", columns=columns)
    for r in rows:
        table.add_row(*(r[c] for c in columns))
    bench_record(
        "shard_scaling",
        theta=THETA, k=K, repeats=REPEATS,
        cost_per_entry_s=cost_per_entry,
        table=table,
    )

    # Monotone modeled throughput gain 1 -> 8 shards: the heaviest shard
    # shrinks, so the parallel round-set it bounds gets faster.
    qps = [r["modeled_qps"] for r in rows]
    assert all(b >= a for a, b in zip(qps, qps[1:])), qps
    assert qps[-1] > qps[0]

    # Falling per-worker memory: each worker holds only its shard.
    peak = [r["peak_sketch_bytes"] for r in rows]
    assert all(b < a for a, b in zip(peak, peak[1:])), peak
    assert rows[-1]["peak_sketch_bytes"] * 4 < rows[0]["peak_sketch_bytes"]
