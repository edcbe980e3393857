"""Tests for repro.shard: plans, workers, and the cluster pipeline.

The router's end-to-end determinism and failure handling live in
test_shard_router.py; this module covers the layers underneath — ownership
assignment (one vectorised hash), sub-sketch fingerprints and the guard
against serving a slice of another layout, the worker's cold-streaming
build (byte-identical to the partitioned full sketch), artifact
round-trips, the self-healing session protocol, and the cluster
build/publish fan-out.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.parallel_sampling import parallel_generate
from repro.errors import BackendError, ParameterError
from repro.graph.io import graph_fingerprint
from repro.runtime.backends import SerialBackend
from repro.service.artifacts import ArtifactStore, sketch_fingerprint
from repro.service.engine import EngineConfig
from repro.shard import (
    ShardCluster,
    ShardPlan,
    ShardWorker,
    SketchSpec,
    shard_fingerprint,
)
from repro.sketch.store import FlatRRRStore

from conftest import make_graph, make_store

THETA = 80  # sketch size used throughout (small => fast cold streams)


def small_graph(n=40, seed=0):
    """A connected-ish random digraph, deterministic in ``seed``."""
    rng = np.random.default_rng(seed)
    edges = [(i, (i + 1) % n, 0.6) for i in range(n)]
    for _ in range(3 * n):
        u, v = rng.integers(0, n, size=2)
        if u != v:
            edges.append((int(u), int(v), 0.4))
    return make_graph(edges, n=n)


def spec_for(dataset="synth", num_sets=THETA):
    return SketchSpec(dataset=dataset, num_sets=num_sets, seed=3)


def reference_partition(plan, store, fingerprint):
    """The per-set partition loop ``ShardPlan.partition_store`` ran before
    it cut each slice with one gather: every set, in global order, goes to
    its owner's store, and each store is then trimmed."""
    owners = plan.assign_sets(fingerprint, len(store)).tolist()
    return [
        make_store(
            store.num_vertices,
            [store.get(i) for i, owner in enumerate(owners) if owner == s],
        ).trim()
        for s in range(plan.num_shards)
    ]


@st.composite
def stores(draw, n=20):
    """A flat store of 0-25 sets over ``n`` vertices; sets may be empty."""
    sets = draw(
        st.lists(
            st.lists(st.integers(0, n - 1), max_size=8, unique=True),
            max_size=25,
        )
    )
    return make_store(n, sets)


# ===================================================================== plans
class TestShardPlan:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ShardPlan(num_shards=0)
        with pytest.raises(ParameterError):
            ShardPlan(num_shards=2, replication=0)
        with pytest.raises(ParameterError):
            ShardPlan(num_shards=2).assign_sets("fp", -1)

    def test_assignment_is_a_partition(self):
        plan = ShardPlan(num_shards=4)
        owners = plan.assign_sets("fp0", 200)
        assert owners.shape == (200,)
        assert owners.min() >= 0 and owners.max() < 4
        masks = [plan.owned_mask("fp0", 200, s) for s in range(4)]
        total = np.sum(masks, axis=0)
        assert np.all(total == 1), "every set owned by exactly one shard"

    def test_hash_assignment_deterministic_and_fingerprint_sensitive(self):
        plan = ShardPlan(num_shards=4)
        a = plan.assign_sets("fp0", 300)
        assert np.array_equal(a, ShardPlan(num_shards=4).assign_sets("fp0", 300))
        assert not np.array_equal(a, plan.assign_sets("fp1", 300))

    def test_hash_balance_is_reasonable(self):
        owners = ShardPlan(num_shards=4).assign_sets("fp", 400)
        counts = np.bincount(owners, minlength=4)
        assert counts.min() > 0
        assert counts.max() <= 3 * counts.min()

    def test_partition_store_counters_sum_exactly(self):
        g = small_graph()
        full = parallel_generate(
            g, "IC", THETA, num_workers=1, seed=3, backend=SerialBackend()
        )
        plan = ShardPlan(num_shards=3)
        parts = plan.partition_store(full, "fp")
        assert len(parts) == plan.num_shards
        assert sum(len(part) for part in parts) == len(full)
        total = np.zeros(g.num_vertices, dtype=np.int64)
        for part in parts:
            total += part.vertex_counts()
        assert np.array_equal(total, full.vertex_counts())

    def test_shard_fingerprints_distinct(self):
        p = ShardPlan(num_shards=4)
        fps = {shard_fingerprint("fp", s, p) for s in range(4)}
        assert len(fps) == 4
        other = ShardPlan(num_shards=5)
        assert shard_fingerprint("fp", 0, p) != shard_fingerprint("fp", 0, other)
        # Replicas hold identical data, so replication leaves the key alone.
        replicated = ShardPlan(num_shards=4, replication=3)
        assert shard_fingerprint("fp", 0, p) == shard_fingerprint(
            "fp", 0, replicated
        )

    def test_worker_naming_and_describe(self):
        plan = ShardPlan(num_shards=2, replication=3)
        assert plan.num_workers == 6
        assert plan.worker_name(1, 2) == "s1r2"
        d = plan.describe()
        assert d["num_shards"] == 2 and d["num_workers"] == 6


class TestPartitionReference:
    """``partition_store`` against the per-set reference loop, byte for
    byte."""

    @given(
        store=stores(),
        num_shards=st.integers(1, 8),
        fingerprint=st.text(min_size=1, max_size=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_reference(self, store, num_shards, fingerprint):
        plan = ShardPlan(num_shards=num_shards)
        got = plan.partition_store(store, fingerprint)
        want = reference_partition(plan, store, fingerprint)
        assert len(got) == len(want) == num_shards
        for part, ref in zip(got, want):
            assert part.num_vertices == store.num_vertices
            assert np.array_equal(part.offsets, ref.offsets)
            assert np.array_equal(part.vertices, ref.vertices)
            assert part.offsets.dtype == ref.offsets.dtype
            assert part.vertices.dtype == ref.vertices.dtype
            assert part.capacity_bytes() == ref.capacity_bytes()

    def test_edge_cases(self):
        empty = FlatRRRStore(6)
        hollow = make_store(6, [[]] * 3)  # only empty sets
        few = make_store(6, [[1, 4], []])  # fewer sets than shards, one empty
        for store in (empty, hollow, few):
            for num_shards in (1, 5):
                plan = ShardPlan(num_shards=num_shards)
                got = plan.partition_store(store, "fp")
                want = reference_partition(plan, store, "fp")
                assert [p.offsets.tolist() for p in got] == [
                    p.offsets.tolist() for p in want
                ]
                assert [p.vertices.tolist() for p in got] == [
                    p.vertices.tolist() for p in want
                ]
                if num_shards == 1:  # one shard holds the store itself
                    assert got[0].fingerprint() == store.fingerprint()


# =================================================================== workers
#: Per way a replica acquires its slice, the engine counters one session
#: open moves, each by one.
ACQUISITIONS = {
    "cold": ("misses", "cold_samples", "artifact_saves"),
    "artifact": ("misses", "artifact_loads"),
    "warm": ("hits",),
    "corrupt": ("misses", "artifact_corrupt", "cold_samples", "artifact_saves"),
}

#: The telemetry counter each engine counter is recorded under.
ENGINE_METRICS = {
    "hits": "service.cache.hits",
    "misses": "service.cache.misses",
    "cold_samples": "service.cold_samples",
    "artifact_loads": "service.artifacts.loads",
    "artifact_saves": "service.artifacts.saves",
    "artifact_corrupt": "service.artifacts.corrupt",
}


def _engine_counts(worker):
    """The replica engine's counters named in :data:`ENGINE_METRICS`."""
    snap = worker.engine.stats_snapshot()
    return {
        k: snap["cache" if k in ("hits", "misses") else "service"][k]
        for k in ENGINE_METRICS
    }


class TestShardWorker:
    def test_ctor_validates_ids(self):
        plan = ShardPlan(num_shards=2)
        with pytest.raises(ParameterError):
            ShardWorker(2, plan)
        with pytest.raises(ParameterError):
            ShardWorker(0, plan, replica_id=-1)
        # ``plan.replication`` is only the *initial* layout: the control
        # plane may scale a shard past it, so higher replica ids are legal.
        w = ShardWorker(0, plan, replica_id=3)
        assert w.name == "s0r3"
        w.close()

    def test_cold_build_matches_partitioned_full_sketch(self):
        """The streaming cold path derives exactly the owned slice of the
        deterministic global sampling sequence."""
        g = small_graph()
        gfp = graph_fingerprint(g)
        plan = ShardPlan(num_shards=3)
        spec = spec_for()
        full = parallel_generate(
            g, "IC", THETA, num_workers=1, seed=spec.seed,
            backend=SerialBackend(),
        )
        fp = sketch_fingerprint(gfp, "IC", spec.epsilon, spec.seed, THETA)
        parts = plan.partition_store(full, fp)
        for shard in range(3):
            with ShardWorker(shard, plan) as w:
                w.install_graph("synth", g)
                info = w.session_open("s", spec)
                assert info.fingerprint == fp
                entry = w.engine.cache.get(info.shard_fingerprint)
                expect = parts[shard]
                assert np.array_equal(entry.store.offsets, expect.offsets)
                assert np.array_equal(entry.store.vertices, expect.vertices)
                assert np.array_equal(
                    info.counter, expect.vertex_counts()
                )

    def test_artifact_round_trip(self, tmp_path):
        g = small_graph()
        plan = ShardPlan(num_shards=2)
        cfg = EngineConfig(artifact_dir=str(tmp_path))
        spec = spec_for()
        with ShardWorker(0, plan, config=cfg) as w:
            w.install_graph("synth", g)
            first = w.session_open("s", spec)
            assert not first.warm and w.engine.stats.cold_samples == 1
        with ShardWorker(0, plan, config=cfg) as w2:
            w2.install_graph("synth", g)
            again = w2.session_open("s", spec)
            assert again.warm
            assert w2.engine.stats.artifact_loads == 1
            assert w2.engine.stats.cold_samples == 0
            assert again.sketch_bytes == first.sketch_bytes

    @pytest.mark.parametrize(
        "key_of",
        [
            # The key slices had under the hash-ring layout (64 ring
            # points per shard), whose slices hold other sets.
            lambda fp, shard, plan: hashlib.sha256(
                f"{fp}:shard{shard}/{plan.num_shards}:hash:64".encode()
            ).hexdigest()[:16],
            shard_fingerprint,
        ],
        ids=["ring-layout", "own-layout"],
    )
    def test_serves_only_slices_of_its_own_layout(self, tmp_path, key_of):
        """A slice persisted under another layout's key is never served:
        the worker cold-builds its own slice beside it."""
        g = small_graph()
        plan = ShardPlan(num_shards=2)
        spec = spec_for()
        fp = sketch_fingerprint(
            graph_fingerprint(g), "IC", spec.epsilon, spec.seed, THETA
        )
        full = parallel_generate(
            g, "IC", THETA, num_workers=1, seed=spec.seed,
            backend=SerialBackend(),
        )
        own, other = plan.partition_store(full, fp)
        # Plant a slice that is not shard 0's under the layout's key.
        ArtifactStore(tmp_path).save_sketch(key_of(fp, 0, plan), other)
        cfg = EngineConfig(artifact_dir=str(tmp_path))
        with ShardWorker(0, plan, config=cfg) as w:
            w.install_graph("synth", g)
            info = w.session_open("s", spec)
        planted_served = key_of is shard_fingerprint
        assert w.engine.stats.artifact_loads == int(planted_served)
        assert w.engine.stats.cold_samples == int(not planted_served)
        served = other if planted_served else own
        assert info.num_local_sets == len(served)
        assert np.array_equal(info.counter, served.vertex_counts())

    @pytest.mark.parametrize("case", sorted(ACQUISITIONS))
    def test_acquisition_counts_each_event_once(self, tmp_path, case):
        """A replica acquires its slice through its engine's ladder: one
        session open moves each engine counter its path touches by exactly
        one (plain stats and telemetry alike) and no other.  Cold and
        corrupt-artifact opens draw the sets ``parallel_generate`` draws at
        the owned indices and (re)write the slice's artifact."""
        g = small_graph()
        plan = ShardPlan(num_shards=2)
        spec = spec_for()
        fp = sketch_fingerprint(
            graph_fingerprint(g), "IC", spec.epsilon, spec.seed, THETA
        )
        full = parallel_generate(
            g, "IC", THETA, num_workers=1, seed=spec.seed,
            backend=SerialBackend(),
        )
        want = plan.partition_store(full, fp)[1]
        sub_fp = shard_fingerprint(fp, 1, plan)
        arts = ArtifactStore(tmp_path)
        if case in ("artifact", "corrupt"):
            path = arts.save_sketch(sub_fp, want, counter=want.vertex_counts())
        if case == "corrupt":
            raw = bytearray(path.read_bytes())
            raw[len(raw) // 2] ^= 0xFF
            path.write_bytes(bytes(raw))
        cfg = EngineConfig(artifact_dir=str(tmp_path))
        with ShardWorker(1, plan, config=cfg) as w:
            w.install_graph("synth", g)
            if case == "warm":
                w.session_open("prime", spec)
            before = _engine_counts(w)
            with telemetry.session() as tel:
                info = w.session_open("s", spec)
                counters = tel.registry.snapshot()["counters"]
            moved = {k: v - before[k] for k, v in _engine_counts(w).items()}
            entry = w.engine.cache.peek(sub_fp)
        touched = ACQUISITIONS[case]
        assert moved == {k: int(k in touched) for k in moved}
        assert {
            name: counters.get(name, 0) for name in ENGINE_METRICS.values()
        } == {name: int(k in touched) for k, name in ENGINE_METRICS.items()}
        assert info.warm == (case in ("artifact", "warm"))
        assert np.array_equal(entry.store.offsets, want.offsets)
        assert np.array_equal(entry.store.vertices, want.vertices)
        assert np.array_equal(entry.counter, want.vertex_counts())
        if case in ("cold", "corrupt"):
            written, counter, _ = arts.load_sketch(sub_fp)
            assert np.array_equal(written.vertices, want.vertices)
            assert np.array_equal(counter, want.vertex_counts())

    def test_warm_hit_on_second_open(self):
        g = small_graph()
        with ShardWorker(0, ShardPlan(num_shards=1)) as w:
            w.install_graph("synth", g)
            assert not w.session_open("a", spec_for()).warm
            assert w.session_open("b", spec_for()).warm
            assert w.engine.cache.stats.hits == 1

    def test_fault_hooks(self):
        g = small_graph()
        with ShardWorker(0, ShardPlan(num_shards=1)) as w:
            w.install_graph("synth", g)
            assert w.ping() == "s0r0"
            w.kill()
            assert w.dead
            with pytest.raises(BackendError):
                w.ping()
            w.revive()
            assert w.ping() == "s0r0"
            w.fail_after(2)
            assert w.ping() == "s0r0"
            assert w.ping() == "s0r0"
            with pytest.raises(BackendError):
                w.ping()
            with pytest.raises(BackendError):
                w.ping()
            with pytest.raises(ParameterError):
                w.fail_after(-1)

    def test_session_replay_matches_live_session(self):
        """A fresh replica handed the history mid-stream gives the same
        cover results as one that participated from the start."""
        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=2)
        spec = spec_for()
        with ShardWorker(0, plan) as live, ShardWorker(
            0, plan, replica_id=1
        ) as fresh:
            live.install_graph("synth", g)
            fresh.install_graph("synth", g)
            info = live.session_open("s", spec)
            seeds = np.argsort(info.counter)[::-1][:3].tolist()
            history: list[int] = []
            for v in seeds[:2]:
                live.session_cover("s", spec, tuple(history), v)
                history.append(v)
            a = live.session_cover("s", spec, tuple(history), seeds[2])
            b = fresh.session_cover("s", spec, tuple(history), seeds[2])
            assert b.replayed and not a.replayed
            assert fresh.stats.replays == 1
            assert a.new_covered == b.new_covered
            assert np.array_equal(np.sort(a.dec), np.sort(b.dec))

    def test_session_close_forgets(self):
        g = small_graph()
        spec = spec_for()
        with ShardWorker(0, ShardPlan(num_shards=1)) as w:
            w.install_graph("synth", g)
            w.session_open("s", spec)
            w.session_close("s")
            # Covering after close triggers a replay (state was dropped).
            res = w.session_cover("s", spec, (), 0)
            assert res.replayed


# =================================================================== cluster
class TestShardCluster:
    def test_build_warms_every_replica(self, tmp_path):
        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=2)
        with ShardCluster(
            plan, engine_config=EngineConfig(artifact_dir=str(tmp_path))
        ) as cluster:
            cluster.install_graph("synth", g)
            summary = cluster.build(spec_for())
            assert len(summary["shards"]) == 2
            assert sum(s["num_sets"] for s in summary["shards"]) == THETA
            for w in cluster.workers:
                assert w.session_open("s", spec_for()).warm
                assert w.engine.stats.cold_samples == 0
            # Artifacts persisted once per shard fingerprint.
            names = {s["shard_fingerprint"] for s in summary["shards"]}
            for sub_fp in names:
                assert cluster.workers[0].engine.artifacts.has_sketch(sub_fp)

    def test_kill_and_revive_granularity(self):
        plan = ShardPlan(num_shards=2, replication=2)
        with ShardCluster(plan) as cluster:
            assert cluster.kill(0, 1) == ["s0r1"]
            assert not cluster.worker(0, 0).dead
            assert cluster.worker(0, 1).dead
            assert set(cluster.kill(1)) == {"s1r0", "s1r1"}
            cluster.revive(1)
            assert not any(w.dead for w in cluster.replicas(1))
            with pytest.raises(ParameterError):
                cluster.worker(5, 0)

    def test_stats_snapshot_shape(self):
        with ShardCluster(ShardPlan(num_shards=2)) as cluster:
            snap = cluster.stats_snapshot()
            assert snap["plan"]["num_shards"] == 2
            assert len(snap["workers"]) == 2
            assert "router" in snap and "health" in snap

    def test_revive_rewarms_from_shm_before_partition(self):
        """Regression: a revived replica whose cache was dropped must
        re-acquire its sub-sketch in the warm order — shm segment attach
        first, retained partition second — and never cold-build (a cold
        re-sample of a dynamic epoch would diverge from the maintainer's
        repaired store)."""
        import repro.shm as shm
        from repro.service.protocol import IMQuery

        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=2)
        q = IMQuery(dataset="synth", k=6, seed=3, theta_cap=THETA)
        m = shm.SegmentManager(prefix="trw")
        try:
            with ShardCluster(
                plan,
                engine_config=EngineConfig(persist=False),
                segment_manager=m,
            ) as cluster:
                cluster.install_graph("synth", g)
                summary = cluster.build(spec_for())
                expected = cluster.query(q)
                sub_fp = shard_fingerprint(summary["fingerprint"], 0, plan)
                w = cluster.worker(0, 1)
                attaches = w.stats.shm_attaches
                cluster.kill(0, 1)
                w.engine.cache.clear()  # evicted while down
                cluster.revive(0, 1)
                # The shm tier won: one new zero-copy attach, warm cache,
                # no cold build.
                assert w.stats.shm_attaches == attaches + 1
                assert w.engine.cache.get(sub_fp) is not None
                assert w.engine.stats.cold_samples == 0
                got = cluster.query(q)
                assert got.ok and not got.degraded
                assert got.seeds == expected.seeds
        finally:
            m.close()

    def test_revive_rewarms_from_retained_partition_without_shm(self):
        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=2)
        with ShardCluster(plan) as cluster:
            cluster.install_graph("synth", g)
            summary = cluster.build(spec_for())
            sub_fp = shard_fingerprint(summary["fingerprint"], 1, plan)
            w = cluster.worker(1, 0)
            cluster.kill(1, 0)
            w.engine.cache.clear()
            cluster.revive(1, 0)
            assert w.engine.cache.get(sub_fp) is not None
            assert w.stats.shm_attaches == 0
            assert w.engine.stats.cold_samples == 0

    def test_add_and_remove_replica_round_trip(self):
        """Scaling is additive on an immutable plan: the new replica reuses
        the published sub-sketch keys, answers stay byte-identical, and
        removal refuses to empty a shard."""
        from repro.service.protocol import IMQuery

        g = small_graph()
        plan = ShardPlan(num_shards=2, replication=1)
        q = IMQuery(dataset="synth", k=6, seed=3, theta_cap=THETA)
        with ShardCluster(plan) as cluster:
            cluster.install_graph("synth", g)
            cluster.build(spec_for())
            expected = cluster.query(q)
            assert cluster.add_replica(0) == "s0r1"
            assert cluster.add_replica(1) == "s1r1"
            assert len(cluster.workers) == 4
            for shard in (0, 1):
                w = cluster.worker(shard, 1)
                assert w.engine.stats.cold_samples == 0
            got = cluster.query(q)
            assert got.seeds == expected.seeds and not got.degraded
            assert cluster.remove_replica(0) == "s0r1"  # highest id default
            assert cluster.remove_replica(1, replica=1) == "s1r1"
            assert cluster.query(q).seeds == expected.seeds
            with pytest.raises(ParameterError):
                cluster.remove_replica(0)  # never empty a shard
            with pytest.raises(ParameterError):
                cluster.add_replica(9)
