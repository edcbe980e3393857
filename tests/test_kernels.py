"""Equivalence suite for :mod:`repro.kernels`.

The batched kernel's contract is *byte-identity*: the same ``(seed, set
index)`` always yields the same RRR set, no matter how sets were batched,
how many workers drew them, or which process start method launched those
workers — and it is exactly the set the independent scalar reference
(:mod:`repro.kernels.scalar`, the test oracle) draws.  These tests prove
the contract on adversarial graph shapes (disconnected components,
self-loops, zero-probability edges) and all the integration seams
(RRRSampler, parallel_generate, run_imm, the dynamic maintainer), by
re-running each seam at other batch sizes and with the oracle swapped in.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest

from repro import telemetry
from repro.core.efficientimm import EfficientIMM
from repro.core.params import IMMParams
from repro.core.parallel_sampling import parallel_generate
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.diffusion.base import get_model
from repro.errors import ParameterError
from repro.graph.builder import GraphBuilder, from_edge_array
from repro.graph.generators import erdos_renyi
from repro.graph.weights import assign_ic_weights, assign_lt_weights
from repro.kernels import (
    BatchedSampler,
    KernelSampler,
    coin_key,
    counter_uniforms,
    derive_key,
    derive_keys,
    indexed_draws,
    roots_for_indices,
    sample_batched,
    sample_scalar,
)
from repro.kernels import batched
from repro.runtime.backends import SerialBackend

BATCHES = (1, 7, 64)


@contextmanager
def kernel_mode(kernel, batch):
    """Route every sampler through the batched kernel at ``batch`` sets
    per pass under both models, or (``kernel="scalar"``) through the
    scalar oracle, still streamed ``batch`` sets at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(batched, "BATCH_SIZE", batch)
        mp.setattr(batched, "LT_BATCH_SIZE", batch)
        if kernel == "scalar":
            mp.setattr(
                BatchedSampler, "sample",
                lambda self, roots, keys: sample_scalar(self.model, roots, keys),
            )
        yield


def random_graph(model="IC", n=300, m=1200, seed=7):
    src, dst = erdos_renyi(n, m, seed=seed)
    g = from_edge_array(src, dst, num_vertices=n)
    if model == "IC":
        return assign_ic_weights(g, scheme="uniform", seed=1, scale=0.4)
    return assign_lt_weights(g, seed=1)


def disconnected_graph(model="IC"):
    """Two components plus isolated vertices 20..29."""
    edges = [(i, (i + 1) % 10, 0.7) for i in range(10)]
    edges += [(10 + i, 10 + ((i + 1) % 10), 0.3) for i in range(10)]
    src, dst, p = map(np.asarray, zip(*edges))
    g = from_edge_array(src, dst, p.astype(float), num_vertices=30)
    return g if model == "IC" else assign_lt_weights(g, seed=2)


def self_loop_graph(model="IC"):
    """A ring where every vertex also carries a self-loop."""
    b = GraphBuilder(relabel=False, drop_self_loops=False)
    for i in range(12):
        b.add_edge(i, (i + 1) % 12, 0.6)
        b.add_edge(i, i, 0.9)
    g = b.build(num_vertices=12)
    return g if model == "IC" else assign_lt_weights(g, seed=3)


def zero_prob_graph(model="IC"):
    """A chain whose middle edge can never fire (p = 0)."""
    edges = [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0), (3, 4, 0.5)]
    src, dst, p = map(np.asarray, zip(*edges))
    g = from_edge_array(src, dst, p.astype(float), num_vertices=5)
    return g if model == "IC" else g  # LT normalises rows; keep IC-only


GRAPH_MAKERS = {
    "random": random_graph,
    "disconnected": disconnected_graph,
    "self_loop": self_loop_graph,
}


def draws_for(graph, seed=11, count=150):
    indices = np.arange(count, dtype=np.int64)
    roots = roots_for_indices(seed, indices, graph.num_vertices)
    keys = derive_keys(coin_key(seed), indices)
    return roots, keys


def assert_same_draws(a, b):
    fa, sa, ea = a
    fb, sb, eb = b
    np.testing.assert_array_equal(sa, sb)
    np.testing.assert_array_equal(fa, fb)
    np.testing.assert_array_equal(ea, eb)


# ------------------------------------------------------------- RNG streams
class TestCounterStreams:
    def test_uniforms_deterministic_and_in_range(self):
        key = derive_key(42, 1)
        u1 = counter_uniforms(key, np.arange(1000))
        u2 = counter_uniforms(key, np.arange(1000))
        np.testing.assert_array_equal(u1, u2)
        assert np.all((u1 >= 0.0) & (u1 < 1.0))
        # A counter stream should not be visibly degenerate.
        assert 0.4 < u1.mean() < 0.6

    def test_keys_disjoint_across_domains_and_indices(self):
        idx = np.arange(64)
        a = derive_keys(coin_key(0), idx)
        b = derive_keys(derive_key(0, 1), idx)
        assert np.unique(a).size == idx.size
        assert not np.intersect1d(a, b).size

    def test_roots_uniform_and_in_range(self):
        roots = roots_for_indices(3, np.arange(5000), 17)
        assert roots.min() >= 0 and roots.max() < 17
        assert np.unique(roots).size == 17

    def test_seed_changes_everything(self):
        g = random_graph()
        model = get_model("IC", g)
        a = sample_batched(model, *draws_for(g, seed=1))
        b = sample_batched(model, *draws_for(g, seed=2))
        assert not (
            a[1].shape == b[1].shape
            and np.array_equal(a[1], b[1])
            and np.array_equal(a[0], b[0])
        )


# --------------------------------------------------- scalar <-> batched
class TestKernelEquivalence:
    @pytest.mark.parametrize("graph_name", sorted(GRAPH_MAKERS))
    @pytest.mark.parametrize("model_name", ("IC", "LT"))
    @pytest.mark.parametrize("batch", BATCHES)
    def test_batched_matches_scalar(self, graph_name, model_name, batch):
        g = GRAPH_MAKERS[graph_name](model_name)
        model = get_model(model_name, g)
        roots, keys = draws_for(g)
        ref = sample_scalar(get_model(model_name, g), roots, keys)
        got = sample_batched(model, roots, keys, batch_size=batch)
        assert_same_draws(ref, got)

    def test_zero_prob_edge_never_crossed(self):
        g = zero_prob_graph()
        model = get_model("IC", g)
        roots, keys = draws_for(g, count=400)
        flat, sizes, _ = sample_batched(model, roots, keys)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        for i in range(sizes.size):
            members = set(flat[offsets[i] : offsets[i + 1]].tolist())
            # Reverse BFS from roots >= 2 must stop at vertex 2: the only
            # in-edge of 2 is (1, 2) with p = 0.
            if roots[i] >= 2:
                assert not members & {0, 1}
        assert_same_draws(
            sample_scalar(get_model("IC", g), roots, keys),
            sample_batched(get_model("IC", g), roots, keys, batch_size=7),
        )

    def test_self_loops_terminate_with_unique_members(self):
        g = self_loop_graph()
        model = get_model("IC", g)
        roots, keys = draws_for(g, count=100)
        flat, sizes, _ = sample_batched(model, roots, keys)
        offsets = np.concatenate(([0], np.cumsum(sizes)))
        for i in range(sizes.size):
            members = flat[offsets[i] : offsets[i + 1]]
            assert np.unique(members).size == members.size

    def test_isolated_root_is_singleton(self):
        g = disconnected_graph()
        model = get_model("IC", g)
        roots = np.array([25, 27], dtype=np.int64)  # isolated vertices
        keys = derive_keys(coin_key(0), np.array([0, 1]))
        flat, sizes, edges = sample_batched(model, roots, keys)
        np.testing.assert_array_equal(sizes, [1, 1])
        np.testing.assert_array_equal(flat, roots.astype(np.int32))
        assert edges.sum() == 0

    def test_chunk_split_invariance(self):
        g = random_graph()
        ks = KernelSampler(get_model("IC", g))
        whole = ks.sample_indexed(5, 0, 200)
        a = ks.sample_indexed(5, 0, 90)
        b = ks.sample_indexed(5, 90, 110)
        assert_same_draws(
            whole,
            (
                np.concatenate([a[0], b[0]]),
                np.concatenate([a[1], b[1]]),
                np.concatenate([a[2], b[2]]),
            ),
        )


# ------------------------------------------------------------ LT passes
LT_PASSES = (1, 7, 64, None)  # None: the model's default pass


def ring_graph(n=300):
    """A directed ring of weight-1 edges: no slack, so every reverse walk
    goes once round and stops when it steps back onto its root."""
    src = np.arange(n)
    return from_edge_array(src, (src + 1) % n, np.ones(n), num_vertices=n)


def chain_graph(n=30):
    """A weight-1 chain ``0 -> 1 -> ...``: every walk ends at vertex 0,
    whose in-degree is 0."""
    src = np.arange(n - 1)
    return from_edge_array(src, src + 1, np.ones(n - 1), num_vertices=n)


def lt_draws(graph, batch, count, seed=11):
    """``(scalar oracle, batched at pass batch)`` draws of ``count`` sets."""
    roots, keys = draws_for(graph, seed=seed, count=count)
    ref = sample_scalar(get_model("LT", graph), roots, keys)
    got = sample_batched(get_model("LT", graph), roots, keys, batch_size=batch)
    return roots, ref, got


class TestLTPasses:
    @pytest.mark.parametrize("batch", LT_PASSES)
    def test_ring_walks_close_on_their_root(self, batch):
        roots, ref, got = lt_draws(ring_graph(), batch, count=20)
        assert_same_draws(ref, got)
        flat, sizes, _ = got
        assert (sizes == 300).all()
        # The last vertex's one in-neighbour is the root.
        np.testing.assert_array_equal((flat[np.cumsum(sizes) - 1] - 1) % 300, roots)

    @pytest.mark.parametrize("batch", LT_PASSES)
    def test_walks_stop_at_in_degree_zero(self, batch):
        roots, ref, got = lt_draws(chain_graph(), batch, count=100)
        assert_same_draws(ref, got)
        flat, sizes, _ = got
        np.testing.assert_array_equal(sizes, roots + 1)
        assert (flat[np.cumsum(sizes) - 1] == 0).all()

    @pytest.mark.parametrize("batch", LT_PASSES)
    def test_rows_with_slack(self, batch):
        g = random_graph("LT")
        model = get_model("LT", g)
        rev = model.reverse_graph
        rows = np.flatnonzero(np.diff(rev.indptr))
        assert (model._cum[rev.indptr[rows + 1] - 1] < 1.0).all()
        _, ref, got = lt_draws(g, batch, count=400)
        assert_same_draws(ref, got)

    @pytest.mark.parametrize("batch", LT_PASSES)
    def test_extend_with_pass_boundary_mid_call(self, batch):
        """The second extend starts at index 10, so its passes end at other
        indices than a one-shot draw's; the sets around every boundary are
        still the oracle's."""
        g = random_graph("LT")
        step = batch or batched.LT_BATCH_SIZE
        first, total = 10, 10 + 2 * step + 5
        two = kernel_store(g, "LT", count=first, batch=step)
        two.extend(total)
        assert two.store.fingerprint() == kernel_store(
            g, "LT", count=total, batch=step
        ).store.fingerprint()
        bounds = (first, first + step, first + 2 * step, step, 2 * step)
        window = np.unique(
            np.clip(np.add.outer(bounds, np.arange(-2, 2)).ravel(), 0, total - 1)
        )
        ref = sample_scalar(
            get_model("LT", g), *indexed_draws(9, window, g.num_vertices)
        )
        offsets = np.concatenate(([0], np.cumsum(ref[1])))
        for j, i in enumerate(window.tolist()):
            np.testing.assert_array_equal(
                two.store.get(i), np.sort(ref[0][offsets[j] : offsets[j + 1]])
            )

    def test_default_passes_and_no_lt_stamp(self):
        ic = BatchedSampler(get_model("IC", random_graph()))
        lt = BatchedSampler(get_model("LT", random_graph("LT")))
        assert (ic.batch_size, lt.batch_size) == (
            batched.BATCH_SIZE, batched.LT_BATCH_SIZE,
        )
        assert BatchedSampler(lt.model, 7).batch_size == 7
        lt.sample(*draws_for(lt.model.graph, count=300))
        assert lt._stamp.size == 0


# ----------------------------------------------------- integration seams
def kernel_store(graph, model_name, kernel="batched", count=160, seed=9, batch=64):
    with kernel_mode(kernel, batch):
        cfg = SamplingConfig.efficientimm(num_threads=1)
        sampler = RRRSampler(get_model(model_name, graph), cfg, seed=seed)
        sampler.extend(count)
    return sampler


class TestSamplerIntegration:
    @pytest.mark.parametrize("model_name", ("IC", "LT"))
    def test_rrrsampler_kernels_agree(self, model_name):
        g = random_graph(model_name)
        fps = {
            kernel_store(g, model_name, k, batch=b).store.fingerprint()
            for k, b in (("batched", 64), ("batched", 7), ("scalar", 1))
        }
        assert len(fps) == 1

    def test_incremental_extend_matches_one_shot(self):
        g = random_graph()
        a = kernel_store(g, "IC", count=150)
        b = kernel_store(g, "IC", count=60)
        b.extend(150)
        assert a.store.fingerprint() == b.store.fingerprint()
        assert a.per_set_costs == b.per_set_costs
        np.testing.assert_array_equal(a.counter, b.counter)

    def test_fused_counter_matches_store(self):
        g = random_graph()
        s = kernel_store(g, "IC")
        np.testing.assert_array_equal(s.counter, s.store.vertex_counts())

    def test_kernel_requires_integer_seed(self):
        g = random_graph()
        cfg = SamplingConfig.efficientimm(num_threads=1)
        with pytest.raises(ParameterError):
            RRRSampler(get_model("IC", g), cfg, seed=np.random.default_rng(0))

    @pytest.mark.parametrize("workers", (1, 2, 3))
    def test_parallel_generate_worker_invariance(self, workers):
        g = random_graph()
        ref = parallel_generate(
            g, "IC", 120, num_workers=1, seed=4, backend=SerialBackend(),
        )
        with kernel_mode("batched", 16):
            got = parallel_generate(
                g, "IC", 120, num_workers=workers, seed=4,
                backend=SerialBackend(),
            )
        assert ref.fingerprint() == got.fingerprint()

    def test_parallel_generate_kernels_and_processes_agree(self):
        g = random_graph()
        with kernel_mode("scalar", 1):
            serial = parallel_generate(
                g, "IC", 90, num_workers=2, seed=4, backend=SerialBackend(),
            )
        procs = parallel_generate(g, "IC", 90, num_workers=2, seed=4)
        assert serial.fingerprint() == procs.fingerprint()

    def test_parallel_generate_matches_sampler(self):
        """One stream: the worker pool and the in-process sampler hold
        the same sets at the same indices."""
        g = random_graph()
        pooled = parallel_generate(
            g, "IC", 130, num_workers=3, seed=9, backend=SerialBackend(),
        )
        assert pooled.fingerprint() == kernel_store(g, "IC", count=130).store.fingerprint()

    def test_final_selection_invariant_across_kernels(self):
        g = random_graph()
        results = []
        for k, b in (("batched", 64), ("batched", 5), ("scalar", 64)):
            with kernel_mode(k, b):
                results.append(
                    EfficientIMM(g).run(
                        IMMParams(k=5, model="IC", theta_cap=400, seed=2)
                    )
                )
        seeds = {tuple(r.seeds.tolist()) for r in results}
        assert len(seeds) == 1


# -------------------------------------------------- dynamic maintenance
def grow_reference(model, members, frontier, key, counter):
    """Per-set IC continuation in the canonical order, one set at a time:
    the oracle for :meth:`BatchedSampler.grow`."""
    rev = model.reverse_graph
    seen = set(members.tolist()) | set(frontier.tolist())
    out = sorted(set(frontier.tolist()))
    level = out
    while level:
        nbrs, probs = [], []
        for v in level:
            lo, hi = rev.indptr[v], rev.indptr[v + 1]
            nbrs.extend(rev.indices[lo:hi].tolist())
            probs.extend(rev.probs[lo:hi].tolist())
        u = counter_uniforms(key, np.arange(counter, counter + len(nbrs)))
        counter += len(nbrs)
        live = {w for w, p, x in zip(nbrs, probs, u) if x < p}
        level = sorted(live - seen)
        seen |= live
        out += level
    return np.array(out, dtype=np.int32)


def grow_inputs(members, n):
    """Two new frontier vertices per set (outside its members), with
    extension keys and starting counters."""
    rng = np.random.default_rng(5)
    frontiers = [
        np.unique(rng.choice(np.setdiff1d(np.arange(n), m), size=2))
        for m in members
    ]
    keys = derive_keys(derive_key(1, 4, 2), np.arange(len(members)))
    counters = rng.integers(0, 50, size=len(members)).astype(np.uint64)
    return frontiers, keys, counters


class TestMaintainerKernel:
    def drive(self, kernel, batch, inserts=0):
        """Replay three update batches; returns (maintainer, sets extended)."""
        from repro.dynamic import DeltaGraph, IncrementalMaintainer

        extended = 0
        with kernel_mode(kernel, batch):
            d = DeltaGraph(random_graph(n=80, m=320))
            m = IncrementalMaintainer(
                d, num_sets=150, seed=3, full_resample_threshold=1.0,
            )
            rng = np.random.default_rng(11)
            for _ in range(3):
                src, dst, _ = d.compact().edge_array()
                picks = rng.choice(src.size, size=4, replace=False)
                for j in picks:
                    u, v = int(src[j]), int(dst[j])
                    if d.has_edge(u, v):
                        d.reweight(u, v, float(rng.random()))
                for _ in range(inserts):
                    u, v = (int(x) for x in rng.integers(0, 80, size=2))
                    if u != v and not d.has_edge(u, v):
                        d.insert(u, v, float(rng.uniform(0.2, 0.9)))
                extended += m.apply(d.commit()).extended
        return m, extended

    def test_replay_byte_identical_across_kernels_and_batches(self):
        fps = {
            self.drive(k, b)[0].store.fingerprint()
            for k, b in (("batched", 64), ("batched", 7), ("scalar", 1))
        }
        assert len(fps) == 1

    def test_insert_extension_batch_invariant(self):
        runs = [self.drive("batched", b, inserts=12) for b in BATCHES]
        assert all(extended > 0 for _, extended in runs)
        assert len({m.store.fingerprint() for m, _ in runs}) == 1
        for m, _ in runs:
            np.testing.assert_array_equal(m.counter, m.store.vertex_counts())

    @pytest.mark.parametrize("batch", BATCHES)
    def test_grow_matches_reference(self, batch):
        g = random_graph(n=120, m=480)
        model = get_model("IC", g)
        flat, sizes, _ = sample_batched(model, *draws_for(g, count=40))
        members = np.split(flat, np.cumsum(sizes)[:-1])
        frontiers, keys, counters = grow_inputs(members, 120)
        added, added_sizes = BatchedSampler(model, batch).grow(
            (flat, sizes),
            (np.concatenate(frontiers), np.array([f.size for f in frontiers])),
            keys, counters,
        )
        got = np.split(added, np.cumsum(added_sizes)[:-1])
        for i in range(40):
            ref = grow_reference(
                model, members[i], frontiers[i], int(keys[i]), int(counters[i])
            )
            np.testing.assert_array_equal(got[i], ref)
            assert not np.intersect1d(got[i], members[i]).size


# ------------------------------------------------------------- telemetry
class TestKernelTelemetry:
    def test_kernels_metric_family(self):
        g = random_graph()
        with telemetry.session() as tel:
            kernel_store(g, "IC", count=100)
        snap = tel.snapshot()
        assert snap["counters"]["kernels.sets"] == 100
        assert snap["counters"]["kernels.edges"] > 0
        assert snap["counters"]["kernels.calls"] >= 1
        assert snap["counters"]["kernels.levels"] >= 1
        assert "kernels.batch_occupancy" in snap["histograms"]
        assert snap["gauges"]["kernels.sets_per_sec"] > 0

    def test_grow_is_recorded_and_leaves_no_occupancy(self):
        g = random_graph(n=120, m=480)
        ks = KernelSampler(get_model("IC", g))
        rev = ks.model.reverse_graph
        with telemetry.session() as tel:
            flat, sizes, _ = ks.sample_for_roots(*draws_for(g, count=40))
            before = tel.snapshot()["counters"]
            frontiers, keys, counters = grow_inputs(
                np.split(flat, np.cumsum(sizes)[:-1]), 120
            )
            added, _ = ks.grow(
                (flat, sizes),
                (np.concatenate(frontiers), np.array([f.size for f in frontiers])),
                keys, counters,
            )
            after = tel.snapshot()["counters"]
            assert ks._batched.occupancy == []
            levels = ks._batched.levels
            ks.sample_for_roots(*draws_for(g, seed=12, count=30))
            final = tel.snapshot()["counters"]
        assert after["kernels.calls"] == before["kernels.calls"] + 1
        # Every added vertex (frontier included) has all its in-edges
        # examined exactly once.
        examined = int((rev.indptr[added + 1] - rev.indptr[added]).sum())
        assert examined > 0
        assert after["kernels.edges"] == before["kernels.edges"] + examined
        assert after["kernels.levels"] > before["kernels.levels"]
        assert after["kernels.sets"] == before["kernels.sets"] == 40
        # The next draw records only its own levels.
        assert final["kernels.levels"] - after["kernels.levels"] == (
            ks._batched.levels - levels
        )


# ------------------------------------------------------------- validation
class TestValidation:
    def test_imm_params_validate_kernel(self):
        """There is one sampling stream: the old selector knobs are gone."""
        with pytest.raises(TypeError):
            IMMParams(k=1, kernel="batched")
        with pytest.raises(TypeError):
            IMMParams(k=1, kernel_batch=8)
