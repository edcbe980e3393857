"""Router determinism and failure handling (the tentpole acceptance tests).

The load-bearing claims: under a fixed seed, a sharded cluster of any
shape returns **byte-identical** seed sets (and coverage/spread) to the
single-node :class:`QueryEngine`; one replica killed mid-stream changes
nothing visible; a whole shard down degrades to an answer that is *exact*
over the surviving sub-sketch and flagged ``degraded:true``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import telemetry
from repro.core.parallel_sampling import parallel_generate
from repro.core.selection import CoverStep
from repro.graph.datasets import load_dataset
from repro.graph.io import graph_fingerprint
from repro.resilience.retry import RetryPolicy
from repro.runtime.backends import SerialBackend
from repro.service import EngineConfig, IMQuery, QueryEngine, sketch_fingerprint
from repro.dynamic import DynamicService
from repro.errors import ParameterError
from repro.shard import (
    Router,
    RouterConfig,
    ShardCluster,
    ShardPlan,
    shard_fingerprint,
)
from repro.service import front as front_module
from repro.shard import worker as worker_module

from conftest import make_graph, make_store
from test_selection import greedy_reference
from test_shard import THETA, small_graph, spec_for

SEED = 3


def query(k=6, **kw):
    kw.setdefault("dataset", "synth")
    kw.setdefault("theta_cap", THETA)
    kw.setdefault("seed", SEED)
    return IMQuery(k=k, **kw)


@pytest.fixture(scope="module")
def graph():
    return small_graph()


@pytest.fixture(scope="module")
def reference(graph):
    """Single-node engine answers for several k on the same sketch."""
    with QueryEngine(config=EngineConfig()) as engine:
        engine.install_graph("synth", graph)
        resps = {k: engine.query(query(k=k)) for k in (1, 4, 6)}
        batch = engine.execute([query(k=3), query(k=6), query(k=3)])
    return resps, batch


def make_cluster(graph, num_shards, replication=1, **router_kw):
    plan = ShardPlan(num_shards=num_shards, replication=replication)
    cluster = ShardCluster(
        plan, router_config=RouterConfig(**router_kw) if router_kw else None
    )
    cluster.install_graph("synth", graph)
    return cluster


# ============================================================== determinism
class TestByteIdenticalSelection:
    @pytest.mark.parametrize("num_shards,replication", [(1, 1), (2, 2), (8, 2)])
    def test_matches_single_node_engine(
        self, graph, reference, num_shards, replication
    ):
        refs, _ = reference
        with make_cluster(graph, num_shards, replication) as cluster:
            for k, ref in refs.items():
                resp = cluster.query(query(k=k))
                assert resp.status == "ok" and not resp.degraded
                assert resp.seeds == ref.seeds, f"k={k} seeds diverge"
                assert resp.coverage_fraction == ref.coverage_fraction
                assert resp.spread_estimate == ref.spread_estimate
                assert resp.num_rrrsets == ref.num_rrrsets

    def test_batch_grouping_matches_engine(self, graph, reference):
        _, ref_batch = reference
        with make_cluster(graph, 4) as cluster:
            batch = cluster.execute([query(k=3), query(k=6), query(k=3)])
            assert [r.seeds for r in batch] == [r.seeds for r in ref_batch]
            # One scatter group served all three queries (prefix property).
            assert cluster.router.stats.batches == 1
            assert batch[0].seeds == batch[1].seeds[:3]

    def test_fill_path_matches_engine(self):
        """k large enough to cover every set exercises the lowest-id fill."""
        g = make_graph([(i, (i + 1) % 8, 1.0) for i in range(8)], n=8)
        q = query(k=7, theta_cap=20)
        with QueryEngine(config=EngineConfig()) as engine:
            engine.install_graph("synth", g)
            ref = engine.query(q)
        with make_cluster(g, 3) as cluster:
            resp = cluster.query(q)
        assert resp.seeds == ref.seeds
        assert resp.coverage_fraction == ref.coverage_fraction

    def test_warm_second_query(self, graph):
        with make_cluster(graph, 2) as cluster:
            first = cluster.query(query())
            second = cluster.query(query())
            assert not first.cached and second.cached
            assert first.seeds == second.seeds

    def test_replica_cache_counts_only_lookups(self, graph):
        # Warming a slice into a replica is no cache read: after a cold
        # routed query the lookup that missed is the only one until a warm
        # repeat hits, and a new replica warmed from the published tier
        # has read nothing.
        with make_cluster(graph, 2) as cluster:
            assert cluster.query(query()).ok
            for w in cluster.workers:
                snap = w.stats_snapshot()
                assert snap["engine"]["service"]["cold_samples"] == 1
                cache = snap["engine"]["cache"]
                assert (cache["hits"], cache["misses"]) == (0, 1)
            assert cluster.query(query()).cached
            for w in cluster.workers:
                cache = w.stats_snapshot()["engine"]["cache"]
                assert (cache["hits"], cache["misses"]) == (1, 1)
            cluster.build(spec_for())
            cluster.add_replica(0)
            fresh = cluster.worker(0, 1).engine
            assert len(fresh.cache) == 1
            assert (fresh.cache.stats.hits, fresh.cache.stats.misses) == (0, 0)

    def test_replica_slices_charge_store_and_counter(self, graph):
        # Routed queries never select on a replica's own cache entry, so
        # a slice costs its replica what its arrays hold, nothing more.
        with make_cluster(graph, 2) as cluster:
            q = query()
            assert cluster.query(q).ok
            for w in cluster.workers:
                _, gfp = w.engine.resolve_graph("synth", q.model, q.seed)
                fp = sketch_fingerprint(gfp, q.model, q.epsilon, q.seed, THETA)
                entry = w.engine.cache.get(
                    shard_fingerprint(fp, w.shard_id, cluster.plan)
                )
                assert len(w.engine.cache) == 1
                assert w.engine.cache.current_bytes() == (
                    entry.store.nbytes() + entry.counter.nbytes
                )


# ======================================================= bisecting shards
AMAZON = dict(dataset="amazon", model="IC", seed=0, theta_cap=300)


@pytest.fixture(scope="module")
def amazon_reference():
    """Single-node answers on the amazon replica; k=100 is past the 56
    rounds that cover every set, so it takes the lowest-id fill path."""
    with QueryEngine(config=EngineConfig()) as engine:
        refs = {k: engine.query(IMQuery(k=k, **AMAZON)) for k in (5, 30, 100)}
    assert refs[30].coverage_fraction < 1.0 == refs[100].coverage_fraction
    return refs


@pytest.fixture
def membership_paths(monkeypatch):
    """Every membership path a shard session picks, in order."""
    seen: list[bool] = []

    class Recording(CoverStep):
        def __init__(self, store):
            super().__init__(store)
            seen.append(self.bisect)

    monkeypatch.setattr(worker_module, "CoverStep", Recording)
    return seen


class TestBisectingShards:
    """The 40-vertex graph above always scans.  On the amazon replica
    under IC at theta 300 every shard's sets are large enough that its
    cover step bisects, and the router still matches the engine."""

    @pytest.mark.parametrize("num_shards", [1, 2, 8])
    def test_matches_single_node_engine(
        self, amazon_reference, membership_paths, num_shards
    ):
        plan = ShardPlan(num_shards=num_shards, replication=1)
        with ShardCluster(plan) as cluster:
            for k, ref in amazon_reference.items():
                resp = cluster.query(IMQuery(k=k, **AMAZON))
                assert resp.status == "ok" and not resp.degraded
                assert resp.seeds == ref.seeds, f"k={k} seeds diverge"
                assert resp.coverage_fraction == ref.coverage_fraction
                assert resp.spread_estimate == ref.spread_estimate
        assert len(membership_paths) == num_shards * len(amazon_reference)
        assert all(membership_paths)

    def test_shard_lost_mid_query_restarts_exactly(self, membership_paths):
        plan = ShardPlan(num_shards=2, replication=1)
        theta = AMAZON["theta_cap"]
        with ShardCluster(plan) as cluster:
            cluster.query(IMQuery(k=5, **AMAZON))  # warm both shards
            cluster.worker(1, 0).fail_after(2)     # open, one cover, dead
            resp = cluster.query(IMQuery(k=100, **AMAZON))
            assert resp.status == "ok" and resp.degraded
            assert cluster.router.stats.resyncs == 1
        assert all(membership_paths)

        g = load_dataset("amazon", model="IC", seed=0)
        fp = sketch_fingerprint(
            graph_fingerprint(g), "IC", IMQuery(k=1, **AMAZON).epsilon, 0,
            theta,
        )
        full = parallel_generate(
            g, "IC", theta, num_workers=1, seed=0, backend=SerialBackend()
        )
        owners = plan.assign_sets(fp, theta)
        survivor = make_store(
            g.num_vertices, [full.get(i) for i in range(theta) if owners[i] == 0]
        )
        with QueryEngine(config=EngineConfig()) as engine:
            engine.warm(fp, survivor)
            ref = engine.query(IMQuery(k=100, **AMAZON))
        assert ref.cached
        assert resp.seeds == ref.seeds
        assert resp.coverage_fraction == ref.coverage_fraction
        assert resp.num_rrrsets == len(survivor)


# ================================================================= failover
class TestReplicaFailover:
    def test_replica_killed_mid_stream_is_invisible(self, graph, reference):
        refs, _ = reference
        with make_cluster(graph, 2, replication=2) as cluster:
            # Dies after 3 scatter ops: mid-selection, not at open.
            cluster.worker(0, 0).fail_after(3)
            resp = cluster.query(query(k=6))
            assert resp.status == "ok" and not resp.degraded
            assert resp.seeds == refs[6].seeds
            assert cluster.router.stats.failovers >= 1
            health = cluster.router.health_snapshot()
            # One recorded failure; the router deprioritises the replica so
            # it is never retried (and never reaches unhealthy_after=2).
            assert health["0"]["s0r0"]["consecutive_failures"] >= 1

    def test_replica_dead_at_open_is_invisible(self, graph, reference):
        refs, _ = reference
        with make_cluster(graph, 2, replication=2) as cluster:
            cluster.kill(1, 0)
            resp = cluster.query(query(k=6))
            assert resp.status == "ok" and not resp.degraded
            assert resp.seeds == refs[6].seeds

    def test_retry_policy_classification_respected(self, graph):
        """Non-retryable errors must not burn through replicas."""
        with make_cluster(graph, 1, replication=2) as cluster:
            calls = []
            worker = cluster.worker(0, 0)
            original = worker.session_open

            def boom(*a, **kw):
                calls.append(1)
                raise ParameterError("bad")

            worker.session_open = boom
            resp = cluster.query(query())
            assert resp.status == "error" and "ParameterError" in resp.error
            assert len(calls) == 1, "ParameterError must not fail over"
            worker.session_open = original

    def test_failed_replica_deprioritised_then_recovers(self, graph):
        with make_cluster(graph, 1, replication=2) as cluster:
            cluster.worker(0, 0).kill()
            cluster.query(query())
            order = cluster.router._ordered_replicas(0)
            assert order[0].name == "s0r1", "unhealthy replica tried last"
            cluster.revive(0, 0)
            assert cluster.query(query()).status == "ok"


# =============================================================== shard loss
class TestShardLoss:
    def expected_degraded(self, graph, surviving_shards, plan, k):
        """Single-node selection over only the surviving sub-sketch."""
        gfp = graph_fingerprint(graph)
        spec = spec_for()
        fp = sketch_fingerprint(gfp, "IC", spec.epsilon, SEED, THETA)
        full = parallel_generate(
            graph, "IC", THETA, num_workers=1, seed=SEED,
            backend=SerialBackend(),
        )
        owners = plan.assign_sets(fp, THETA)
        survivor = make_store(
            graph.num_vertices,
            [full.get(i) for i in range(THETA) if owners[i] in surviving_shards],
        )
        with QueryEngine(config=EngineConfig()) as engine:
            engine.install_graph("synth", graph)
            engine.warm(fp, survivor)
            return engine.query(query(k=k)), len(survivor)

    def test_whole_shard_down_degrades_exactly(self, graph):
        plan = ShardPlan(num_shards=2, replication=2)
        with ShardCluster(plan) as cluster:
            cluster.install_graph("synth", graph)
            cluster.kill(1)
            resp = cluster.query(query(k=5))
            assert resp.status == "ok" and resp.degraded
        ref, num_surviving = self.expected_degraded(graph, {0}, plan, k=5)
        assert resp.seeds == ref.seeds
        assert resp.num_rrrsets == num_surviving
        assert resp.coverage_fraction == ref.coverage_fraction

    def test_shard_lost_mid_query_degrades_exactly(self, graph):
        plan = ShardPlan(num_shards=2, replication=1)
        with ShardCluster(plan) as cluster:
            cluster.install_graph("synth", graph)
            cluster.build(spec_for())  # warm both shards first
            cluster.worker(1, 0).fail_after(2)
            resp = cluster.query(query(k=5))
            assert resp.status == "ok" and resp.degraded
            assert cluster.router.stats.resyncs == 1
        ref, _ = self.expected_degraded(graph, {0}, plan, k=5)
        assert resp.seeds == ref.seeds
        assert resp.coverage_fraction == ref.coverage_fraction

    def test_all_shards_down_is_an_error(self, graph):
        with make_cluster(graph, 2) as cluster:
            cluster.kill(0)
            cluster.kill(1)
            resp = cluster.query(query())
            assert resp.status == "error"
            assert "all shards down" in resp.error

    def test_no_degraded_config_turns_loss_into_error(self, graph):
        with make_cluster(graph, 2, allow_degraded=False) as cluster:
            cluster.kill(1)
            resp = cluster.query(query())
            assert resp.status == "error"
            assert "degraded" in resp.error

    def test_lost_shard_session_is_closed(self, graph):
        """A shard dropped mid-query must not keep its session (and with
        it the slice's cache entry) for the rest of the worker's life."""
        with make_cluster(graph, 2) as cluster:
            cluster.worker(1, 0).fail_after(2)
            assert cluster.query(query()).degraded
            cluster.revive(1)
            for _ in range(5):
                assert cluster.query(query()).ok
            assert cluster.worker(1, 0)._sessions == {}


# =========================================================== kept selections
def slice_sets(cluster, *shards):
    """The sets the first replica of each of ``shards`` serves for
    ``query()``'s sketch, shard by shard."""
    q, sets = query(), []
    for shard in shards:
        w = cluster.worker(shard, 0)
        _, gfp = w.engine.resolve_graph(q.dataset, q.model, q.seed)
        fp = sketch_fingerprint(gfp, q.model, q.epsilon, q.seed, q.theta_cap)
        sub_fp = shard_fingerprint(fp, shard, cluster.plan)
        store = w.engine.cache.peek(sub_fp).store
        sets += [store.get(i).tolist() for i in range(len(store))]
    return sets


def other_slice(graph, plan):
    """Other content for shard 0's key: the slice a sketch drawn with
    another seed cuts for shard 0."""
    full = parallel_generate(
        graph, "IC", THETA, num_workers=1, seed=SEED + 1,
        backend=SerialBackend(),
    )
    return plan.partition_store(full, "other")[0]


class TestKeptSelection:
    """The router answers a group from the longest selection it kept for
    the spec only while every shard opens over the slices it was made
    over, and only for a ``k`` no longer than it."""

    KS = (10, 4, 10, 12)

    def prefix_reads(self, cluster, make_query, graph=None):
        with QueryEngine(config=EngineConfig()) as engine:
            if graph is not None:
                engine.install_graph("synth", graph)
            refs = {k: engine.query(make_query(k)) for k in set(self.KS)}
        covers = []
        for k in self.KS:
            resp = cluster.query(make_query(k))
            assert resp.status == "ok" and not resp.degraded
            assert resp.seeds == refs[k].seeds, f"k={k} seeds diverge"
            assert resp.coverage_fraction == refs[k].coverage_fraction
            assert resp.spread_estimate == refs[k].spread_estimate
            covers.append(sum(w.stats.covers for w in cluster.workers))
        # k=4 and the second k=10 read the first k=10 pass; k=12 selects.
        assert cluster.router.stats.kept_hits == 2
        assert covers[0] == covers[1] == covers[2] < covers[3]

    def test_prefix_reads_across_groups(self, graph):
        with make_cluster(graph, 2, replication=2) as cluster:
            self.prefix_reads(cluster, lambda k: query(k=k), graph)

    def test_prefix_reads_over_bisecting_shards(self, membership_paths):
        plan = ShardPlan(num_shards=2, replication=2)
        with ShardCluster(plan) as cluster:
            self.prefix_reads(cluster, lambda k: IMQuery(k=k, **AMAZON))
        assert membership_paths and all(membership_paths)

    def test_readopted_slice_is_selected_again(self, graph):
        plan = ShardPlan(num_shards=2, replication=2)
        other = other_slice(graph, plan)
        with ShardCluster(plan) as cluster:
            cluster.install_graph("synth", graph)
            built = cluster.build(spec_for())
            first = cluster.query(query(k=6))
            sub_fp = built["shards"][0]["shard_fingerprint"]
            for w in cluster.replicas(0):
                w.adopt(sub_fp, other, spec_for().slice_meta(plan, 0))
            resp = cluster.query(query(k=6))
            assert cluster.router.stats.kept_hits == 0
            answering = slice_sets(cluster, 0, 1)
        seeds = greedy_reference(answering, graph.num_vertices, 6)
        assert seeds != first.seeds, "the new slice must change the answer"
        covered = sum(1 for s in answering if set(s) & set(seeds))
        assert resp.status == "ok" and not resp.degraded
        assert resp.seeds == seeds
        assert resp.num_rrrsets == len(answering)
        assert resp.coverage_fraction == covered / len(answering)

    def test_pass_replayed_on_another_replica_is_not_kept(self, graph):
        # Shard 0's replicas disagree and the first dies mid-pass, so the
        # pass mixes both slices.  Kept under the first replica's stamp, it
        # would be served once that replica answers alone again.
        plan = ShardPlan(num_shards=2, replication=2)
        with ShardCluster(plan) as cluster:
            cluster.install_graph("synth", graph)
            built = cluster.build(spec_for())
            cluster.worker(0, 1).adopt(
                built["shards"][0]["shard_fingerprint"],
                other_slice(graph, plan),
                spec_for().slice_meta(plan, 0),
            )
            cluster.worker(0, 0).fail_after(2)  # open, one cover, dead
            assert cluster.query(query(k=6)).ok
            cluster.revive(0, 0)
            cluster.kill(0, 1)
            resp = cluster.query(query(k=6))
            assert cluster.router.stats.kept_hits == 0
            answering = slice_sets(cluster, 0, 1)
        assert resp.status == "ok" and not resp.degraded
        assert resp.seeds == greedy_reference(answering, graph.num_vertices, 6)

    def test_degraded_pass_is_not_kept(self, graph):
        with make_cluster(graph, 2, replication=2) as cluster:
            full = cluster.query(query(k=6))
            cluster.kill(1)
            degraded = cluster.query(query(k=5))
            survivors = slice_sets(cluster, 0)
            cluster.revive(1)
            again = cluster.query(query(k=6))
            # The full selection outlived the degraded pass.
            assert cluster.router.stats.kept_hits == 1
        assert degraded.status == "ok" and degraded.degraded
        assert degraded.seeds == greedy_reference(
            survivors, graph.num_vertices, 5
        )
        assert degraded.seeds != full.seeds[:5]
        assert again.status == "ok" and not again.degraded
        assert again.seeds == full.seeds
        assert again.coverage_fraction == full.coverage_fraction

    def test_kept_selections_are_bounded(self, graph, monkeypatch):
        monkeypatch.setattr(front_module, "MAX_KEPT", 2)
        with make_cluster(graph, 2) as cluster:
            for theta in (60, 70, 80, 80, 70):
                assert cluster.query(query(k=4, theta_cap=theta)).ok
            assert cluster.router.stats.kept_hits == 2
            # Three specs through a cap of two: the first was dropped.
            assert cluster.query(query(k=4, theta_cap=60)).ok
            assert cluster.router.stats.kept_hits == 2


# ============================================================ router surface
class TestRouterSurface:
    def test_invalid_queries_isolated_in_batch(self, graph):
        with make_cluster(graph, 2) as cluster:
            responses = cluster.execute(
                [query(k=6), IMQuery(dataset="synth", k=0), query(k=9999)]
            )
            assert responses[0].status == "ok"
            assert responses[1].status == "error"
            assert responses[2].status == "error"
            assert "exceeds the vertex count" in responses[2].error

    @pytest.mark.parametrize("kind", ["engine", "cluster"])
    def test_string_deadline_errors_without_failing_the_batch(
        self, graph, kind
    ):
        bad, good = query(k=3, deadline_s="5"), query(k=3)
        if kind == "engine":
            executor = QueryEngine(config=EngineConfig())
            executor.install_graph("synth", graph)
        else:
            executor = make_cluster(graph, 2)
        with executor:
            responses = executor.execute([bad, good])
        assert [r.status for r in responses] == ["error", "ok"]
        assert "deadline_s must be a number" in responses[0].error

    def test_unknown_dataset_errors(self):
        with ShardCluster(ShardPlan(num_shards=2)) as cluster:
            resp = cluster.query(query(dataset="no-such-dataset"))
            assert resp.status == "error"

    def test_expired_deadline_times_out(self, graph):
        with make_cluster(graph, 2) as cluster:
            resp = cluster.query(query(deadline_s=0.0))
            assert resp.status == "timeout"

    def test_worker_deadline_misses_counted_but_served(self, graph):
        with make_cluster(graph, 2, worker_deadline_s=0.0) as cluster:
            resp = cluster.query(query())
            assert resp.status == "ok"
            assert cluster.router.stats.deadline_misses > 0

    def test_router_rejects_mismatched_workers(self, graph):
        with ShardCluster(ShardPlan(num_shards=2)) as cluster:
            with pytest.raises(ParameterError, match="no workers for shards"):
                Router([cluster.workers[0]])
            with pytest.raises(ParameterError):
                Router([])

    def test_retry_policy_backoff_is_used(self, graph):
        """max_attempts > 1 retries the same replica before failing over."""
        with ShardCluster(
            ShardPlan(num_shards=1, replication=1),
            router_config=RouterConfig(retry=RetryPolicy(max_attempts=3)),
        ) as cluster:
            cluster.install_graph("synth", graph)
            cluster.worker(0, 0).fail_after(0)  # first op dies, then dead
            resp = cluster.query(query())
            assert resp.status == "error"
            assert cluster.router.stats.scatter_calls >= 3

    def test_telemetry_counters_emitted(self, graph):
        with telemetry.session() as tel:
            with make_cluster(graph, 2, replication=2) as cluster:
                cluster.kill(0, 0)
                cluster.query(query())
            counters = tel.snapshot()["counters"]
            assert counters.get("shard.router.queries", 0) >= 1
            assert counters.get("shard.router.failovers", 0) >= 1
            gauges = tel.snapshot()["gauges"]
            assert "shard.stats.queries" in gauges
            assert "shard.stats.healthy_replicas" in gauges


# ======================================================== dynamic publishing
class TestDynamicFanOut:
    def test_publish_hook_keeps_cluster_in_lockstep(self, graph):
        """Every epoch the DynamicService publishes reaches the shards, and
        the cluster's answers match the service's engine exactly."""
        from repro.dynamic.delta import EdgeUpdate

        plan = ShardPlan(num_shards=2, replication=2)
        with ShardCluster(plan) as cluster, DynamicService(
            "synth", graph, num_sets=THETA, seed=SEED
        ) as service:
            service.add_publish_hook(cluster.publish)  # replays current epoch

            def compare(k=5):
                ref = service.query(k=k)
                got = cluster.query(
                    query(k=k, dataset="synth", theta_cap=THETA, seed=SEED)
                )
                assert got.status == "ok"
                assert got.seeds == ref.seeds
                assert got.coverage_fraction == ref.coverage_fraction

            compare()
            service.apply(
                [EdgeUpdate("insert", 0, graph.num_vertices - 1, 0.9)]
            )
            compare()
