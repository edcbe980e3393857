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
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro._util import sorted_unique
from repro.core.efficientimm import EfficientIMM
from repro.core.params import IMMParams
from repro.core.parallel_sampling import parallel_generate
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.diffusion.base import get_model
from repro.errors import ParameterError
from repro.graph.builder import GraphBuilder, from_edge_array
from repro.graph.csr import CSRGraph
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
from repro.kernels import batched, rng
from repro.kernels.rng import coin_thresholds, flip_coins
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
        # Every walk goes once round the ring: each set is all 300 vertices.
        np.testing.assert_array_equal(flat, np.tile(np.arange(300), roots.size))

    @pytest.mark.parametrize("batch", LT_PASSES)
    def test_walks_stop_at_in_degree_zero(self, batch):
        roots, ref, got = lt_draws(chain_graph(), batch, count=100)
        assert_same_draws(ref, got)
        flat, sizes, _ = got
        np.testing.assert_array_equal(sizes, roots + 1)
        np.testing.assert_array_equal(
            flat, np.concatenate([np.arange(r + 1) for r in roots])
        )

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


# ------------------------------ reference: the mask-and-float IC loop
def reference_ic_levels(model, fslot, fvert, keys, counters, edges, stamp, epoch, b):
    """The IC level loop written with boolean masks, two repeats per level
    and a float coin ``counter_uniforms(...) < p`` per edge: the reference
    :meth:`BatchedSampler._ic_levels` must match byte for byte, counters
    and edge counts included."""
    rev = model.reverse_graph
    n = model.graph.num_vertices
    indptr = rev.indptr
    pairs = []
    while fslot.size:
        starts = indptr[fvert].astype(np.int64)
        lengths = indptr[fvert + 1] - starts
        total = int(lengths.sum())
        if total == 0:
            break
        ends = np.cumsum(lengths)
        flat_idx = np.arange(total, dtype=np.int64) + np.repeat(
            starts - (ends - lengths), lengths
        )
        nbrs = rev.indices[flat_idx]
        probs = rev.probs[flat_idx]
        eslot = np.repeat(fslot, lengths)
        counts = np.bincount(eslot, minlength=b)
        run_start = (np.cumsum(counts) - counts).astype(np.uint64)
        shift = counters - run_start
        base = np.arange(total, dtype=np.uint64) + shift[eslot]
        u = counter_uniforms(keys[eslot], base)
        counters += counts.astype(np.uint64)
        edges += counts
        live = u < probs
        pk = eslot[live] * n + nbrs[live].astype(np.int64)
        fresh = sorted_unique(pk[stamp[pk] != epoch])
        if fresh.size == 0:
            break
        stamp[fresh] = epoch
        pairs.append(fresh)
        fslot, fvert = np.divmod(fresh, n)
    return pairs


def reference_split(pairs, b, n):
    slots, verts = np.divmod(np.sort(pairs), n)
    return verts.astype(np.int32), np.bincount(slots, minlength=b)


def reference_ic_batch(model, roots, keys, batch):
    """Sets drawn ``batch`` at a time through :func:`reference_ic_levels`."""
    n = model.graph.num_vertices
    out = []
    for lo in range(0, roots.size, batch):
        r, k = roots[lo : lo + batch], keys[lo : lo + batch]
        b = r.size
        stamp = np.zeros(b * n, dtype=np.int32)
        level0 = np.arange(b, dtype=np.int64) * n + r
        stamp[level0] = 1
        edges = np.zeros(b, dtype=np.int64)
        pairs = [level0] + reference_ic_levels(
            model, np.arange(b, dtype=np.int64), r, k,
            np.zeros(b, dtype=np.uint64), edges, stamp, 1, b,
        )
        out.append((*reference_split(np.concatenate(pairs), b, n), edges))
    return tuple(np.concatenate(col) for col in zip(*out))


def reference_ic_grow(model, members, frontier, keys, counters, batch):
    """:meth:`BatchedSampler._grow` through :func:`reference_ic_levels`."""
    (m_flat, m_sizes), (f_flat, f_sizes) = members, frontier
    m_off = np.concatenate(([0], np.cumsum(m_sizes)))
    f_off = np.concatenate(([0], np.cumsum(f_sizes)))
    n = model.graph.num_vertices
    out = []
    for lo in range(0, keys.size, batch):
        hi = min(lo + batch, keys.size)
        b = hi - lo
        stamp = np.zeros(b * n, dtype=np.int32)
        slot = np.arange(b, dtype=np.int64)
        mv = m_flat[m_off[lo] : m_off[hi]].astype(np.int64)
        stamp[np.repeat(slot, m_sizes[lo:hi]) * n + mv] = 1
        fv = f_flat[f_off[lo] : f_off[hi]].astype(np.int64)
        seed = sorted_unique(np.repeat(slot, f_sizes[lo:hi]) * n + fv)
        stamp[seed] = 1
        fslot, fvert = np.divmod(seed, n)
        edges = np.zeros(b, dtype=np.int64)
        pairs = [seed] + reference_ic_levels(
            model, fslot, fvert, keys[lo:hi], counters[lo:hi].copy(),
            edges, stamp, 1, b,
        )
        out.append((*reference_split(np.concatenate(pairs), b, n), edges))
    return tuple(np.concatenate(col) for col in zip(*out))


def csr_from_edges(n, edges):
    """A CSR graph straight from ``(u, v, p)`` triples: parallel edges and
    self-loops kept, each row in list order."""
    edges = sorted(edges, key=lambda e: e[0])
    src = np.array([u for u, _, _ in edges], dtype=np.int64)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n))))
    return CSRGraph(
        n, indptr,
        np.array([v for _, v, _ in edges], dtype=np.int64),
        np.array([p for _, _, p in edges], dtype=np.float64),
    )


COIN_PROBS = st.one_of(
    st.sampled_from([0.0, 1.0, 0.5, 1.0 - 2.0**-53, 2.0**-53]),
    st.floats(0.0, 1.0),
)


@st.composite
def small_ic_graphs(draw):
    """Up to 10 vertices and 30 edges drawn with repetition, so self-loops
    and parallel edges are common; no edge enters the last vertex, so
    frontiers at in-degree 0 occur too."""
    n = draw(st.integers(2, 10))
    edge = st.tuples(st.integers(0, n - 1), st.integers(0, n - 2), COIN_PROBS)
    return csr_from_edges(n, draw(st.lists(edge, max_size=30)))


def near_wrap_counters(count, seed):
    """Start counters within 40 of 2**64, so draws wrap to 0 mid-set."""
    back = np.random.default_rng(seed).integers(0, 40, size=count)
    return np.uint64(2**64 - 1) - back.astype(np.uint64)


@st.composite
def small_lt_graphs(draw):
    """:func:`small_ic_graphs` with LT weights: each vertex's in-weights
    sum to below 1, so walks can stop at any step."""
    return assign_lt_weights(
        draw(small_ic_graphs()), seed=draw(st.integers(0, 2**16))
    )


def assert_ascending(flat, sizes):
    """Every set of the CSR ``(flat, sizes)`` is strictly ascending."""
    for one in np.split(flat, np.cumsum(sizes)[:-1]):
        assert (np.diff(one) > 0).all(), one


class TestAscendingSets:
    """Every set leaves the kernel strictly ascending: the layout the flat
    store keeps, so it copies each pass without sorting."""

    @pytest.mark.parametrize("batch", BATCHES)
    @settings(max_examples=30, deadline=None)
    @given(
        graph=small_ic_graphs(), seed=st.integers(0, 2**32), count=st.integers(1, 150)
    )
    def test_ic_sample_stream_and_grow(self, batch, graph, seed, count):
        model = get_model("IC", graph)
        n = graph.num_vertices
        roots, keys = indexed_draws(seed, np.arange(count), n)
        flat, sizes, _ = BatchedSampler(model, batch).sample(roots, keys)
        assert_ascending(flat, sizes)
        with kernel_mode("batched", batch):
            for f, s, _ in KernelSampler(model).stream(roots, keys):
                assert_ascending(f, s)
        members = np.split(flat, np.cumsum(sizes)[:-1])
        rng_ = np.random.default_rng(seed)
        frontiers = [
            np.unique(rng_.choice(rest, size=min(3, rest.size)))
            for rest in (np.setdiff1d(np.arange(n), m) for m in members)
        ]
        added, added_sizes = BatchedSampler(model, batch).grow(
            (flat, sizes),
            (np.concatenate(frontiers), np.array([f.size for f in frontiers])),
            derive_keys(derive_key(seed, 4), np.arange(count)),
            near_wrap_counters(count, seed),
        )
        assert_ascending(added, added_sizes)

    @pytest.mark.parametrize("batch", LT_PASSES)
    @settings(max_examples=30, deadline=None)
    @given(
        graph=small_lt_graphs(), seed=st.integers(0, 2**32), count=st.integers(1, 150)
    )
    def test_lt_sample_and_stream(self, batch, graph, seed, count):
        model = get_model("LT", graph)
        roots, keys = indexed_draws(seed, np.arange(count), graph.num_vertices)
        flat, sizes, _ = BatchedSampler(model, batch).sample(roots, keys)
        assert_ascending(flat, sizes)
        with pytest.MonkeyPatch.context() as mp:
            if batch is not None:
                mp.setattr(batched, "LT_BATCH_SIZE", batch)
            for f, s, _ in KernelSampler(model).stream(roots, keys):
                assert_ascending(f, s)


class TestICLoopReference:
    @pytest.mark.parametrize("batch", BATCHES)
    @settings(max_examples=40, deadline=None)
    @given(
        graph=small_ic_graphs(), seed=st.integers(0, 2**32), count=st.integers(1, 150)
    )
    def test_sample_matches_reference(self, batch, graph, seed, count):
        model = get_model("IC", graph)
        roots, keys = indexed_draws(seed, np.arange(count), graph.num_vertices)
        assert_same_draws(
            reference_ic_batch(model, roots, keys, batch),
            BatchedSampler(model, batch).sample(roots, keys),
        )

    @settings(max_examples=60, deadline=None)
    @given(graph=small_ic_graphs(), seed=st.integers(0, 2**32), b=st.integers(1, 9))
    def test_levels_leave_same_counters(self, graph, seed, b):
        """From a multi-vertex frontier per set, counters near 2**64."""
        model = get_model("IC", graph)
        n = graph.num_vertices
        pick = np.random.default_rng(seed).random((b, n)) < 0.4
        fslot, fvert = np.nonzero(pick)  # slot-major, vertex-ascending
        keys = derive_keys(coin_key(seed), np.arange(b))
        sides = []
        for levels in (
            BatchedSampler(model, b)._ic_levels,
            lambda *a: reference_ic_levels(model, *a),
        ):
            counters = near_wrap_counters(b, seed)
            edges = np.zeros(b, dtype=np.int64)
            stamp = np.zeros(b * n, dtype=np.int32)
            stamp[fslot * n + fvert] = 1
            pairs = levels(fslot, fvert, keys, counters, edges, stamp, 1, b)
            sides.append((pairs, counters, edges, stamp))
        (pa, ca, ea, sa), (pb, cb, eb, sb) = sides
        assert len(pa) == len(pb)
        for x, y in zip(pa, pb):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(ca, cb)
        np.testing.assert_array_equal(ea, eb)
        np.testing.assert_array_equal(sa, sb)

    @pytest.mark.parametrize("batch", BATCHES)
    @settings(max_examples=40, deadline=None)
    @given(
        graph=small_ic_graphs(), seed=st.integers(0, 2**32), count=st.integers(1, 40)
    )
    def test_grow_matches_reference(self, batch, graph, seed, count):
        model = get_model("IC", graph)
        n = graph.num_vertices
        flat, sizes, _ = sample_batched(
            model, *indexed_draws(seed, np.arange(count), n)
        )
        members = np.split(flat, np.cumsum(sizes)[:-1])
        rng_ = np.random.default_rng(seed)
        frontiers = [
            np.unique(rng_.choice(rest, size=min(2, rest.size)))
            for rest in (np.setdiff1d(np.arange(n), m) for m in members)
        ]
        frontier = (
            np.concatenate(frontiers).astype(np.int32),
            np.array([f.size for f in frontiers]),
        )
        keys = derive_keys(derive_key(seed, 4), np.arange(count))
        counters = near_wrap_counters(count, seed)
        assert_same_draws(
            reference_ic_grow(model, (flat, sizes), frontier, keys, counters, batch),
            BatchedSampler(model, batch)._grow((flat, sizes), frontier, keys, counters),
        )

    def test_replica_matches_reference(self):
        """An edge-bound cell: 300 sets of the half-scale amazon replica."""
        from repro.graph.datasets import load_dataset

        g = load_dataset("amazon", model="IC", seed=0, scale=0.5)
        model = get_model("IC", g)
        roots, keys = indexed_draws(3, np.arange(300), g.num_vertices)
        assert_same_draws(
            reference_ic_batch(model, roots, keys, 64),
            BatchedSampler(model).sample(roots, keys),
        )


# ------------------------------------------------------------ integer coins
_MOD = 1 << 64


def _unshift(y, s):
    """Invert ``x ^ (x >> s)`` on a 64-bit integer."""
    x = y
    for _ in range(64 // s + 1):
        x = y ^ (x >> s)
    return x


def counter_hashing_to(bits, key):
    """The draw counter whose hash under ``key`` is the 64-bit ``bits``:
    the splitmix64 steps of :func:`counter_uniforms`, undone one by one."""
    x = _unshift(bits, 31)
    x = x * pow(int(rng._M2), -1, _MOD) % _MOD
    x = _unshift(x, 27)
    x = x * pow(int(rng._M1), -1, _MOD) % _MOD
    x = _unshift(x, 30)
    return (x ^ key) * pow(int(rng._GAMMA), -1, _MOD) % _MOD


def grid_probs():
    """Probabilities at the edges of the coin's resolution."""
    out = [0.0, 1.0, 1.0 - 2.0**-53, 5e-324, 0.5]
    for k in (1, 2, 3, 12345, 2**40 + 7, 2**52, 2**53 - 2, 2**53 - 1):
        p = k * 2.0**-53
        out += [p, np.nextafter(p, 0.0), np.nextafter(p, 1.0)]
    out += np.random.default_rng(0).random(40).tolist()
    return np.clip(np.array(out), 0.0, 1.0)


class TestIntegerCoins:
    def test_integer_coin_equals_float_coin_at_its_threshold(self):
        """For each p, draws whose top 53 bits sit at T(p) - 1, T(p) and
        T(p) + 1 (random low bits) flip the same way under both coins."""
        rand = np.random.default_rng(1)
        probs = grid_probs()
        rows, tops, keys, ctrs = [], [], [], []
        for i, c in enumerate(coin_thresholds(probs).tolist()):
            for top in (c - 1, c, c + 1):
                if 0 <= top < 2**53:
                    key = int(rand.integers(0, 2**64, dtype=np.uint64))
                    low = int(rand.integers(0, 2**11))
                    rows.append(i)
                    tops.append(top)
                    keys.append(key)
                    ctrs.append(counter_hashing_to(top << 11 | low, key))
        p = probs[rows]
        keys = np.array(keys, dtype=np.uint64)
        ctrs = np.array(ctrs, dtype=np.uint64)
        u = counter_uniforms(keys, ctrs)
        np.testing.assert_array_equal(u * 2.0**53, np.array(tops, dtype=np.float64))
        got = flip_coins(ctrs.copy(), keys, coin_thresholds(p))
        np.testing.assert_array_equal(got, u < p)
        np.testing.assert_array_equal(
            got, np.array(tops, dtype=np.uint64) < coin_thresholds(p)
        )
        assert got.any() and not got.all()


# ------------------------------------------------------------ stamp epochs
class TestEpochWrap:
    def test_epoch_restarts_below_int32_limit(self):
        """A sampler one epoch below the int32 limit wraps its stamp and
        draws the bytes a fresh one does, for draws and for grow."""
        g = random_graph(n=120, m=480)
        model = get_model("IC", g)
        roots, keys = draws_for(g, count=150)
        # Other sets size the stamp, so a wrap that kept their stamps
        # would hide vertices from the sets drawn after it.
        other = draws_for(g, seed=12, count=64)
        worn = BatchedSampler(model, 64)
        worn.sample(*other)
        worn._epoch = np.iinfo(np.int32).max - 1
        assert_same_draws(
            worn.sample(roots, keys), BatchedSampler(model, 64).sample(roots, keys)
        )
        assert worn._epoch < 10

        flat, sizes, _ = sample_batched(model, roots[:40], keys[:40])
        frontiers, gkeys, counters = grow_inputs(
            np.split(flat, np.cumsum(sizes)[:-1]), 120
        )
        frontier = (np.concatenate(frontiers), np.array([f.size for f in frontiers]))
        worn = BatchedSampler(model, 7)
        worn.sample(other[0][:7], other[1][:7])
        worn._epoch = np.iinfo(np.int32).max - 1
        assert_same_draws(
            worn._grow((flat, sizes), frontier, gkeys, counters),
            BatchedSampler(model, 7)._grow((flat, sizes), frontier, gkeys, counters),
        )
        assert worn._epoch < 10


# ----------------------------------------------------- integration seams
def kernel_store(graph, model_name, kernel="batched", count=160, seed=9, batch=64):
    with kernel_mode(kernel, batch):
        cfg = SamplingConfig.efficientimm()
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
        np.testing.assert_array_equal(a.costs(), b.costs())
        np.testing.assert_array_equal(a.counter, b.counter)

    def test_fused_counter_matches_store(self):
        g = random_graph()
        s = kernel_store(g, "IC")
        np.testing.assert_array_equal(s.counter, s.store.vertex_counts())

    def test_kernel_requires_integer_seed(self):
        g = random_graph()
        cfg = SamplingConfig.efficientimm()
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
    return np.array(sorted(out), dtype=np.int32)


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
