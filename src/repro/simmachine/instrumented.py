"""Instrumented kernels: replay the algorithms as per-thread memory traces.

Table IV (cache misses) and Table II (NUMA placement) need the kernels'
*address streams*, not just their operation counts.  Each selection replay
runs :func:`~repro.core.selection.greedy_cover` with a cover step that
emits the access streams, feeding each emulated thread's accesses through
its private :class:`~repro.simmachine.cache.CacheHierarchy` and the NUMA
placement model.

Address-stream construction rules (one per access class):

- flat RRR entries: sequential 4-byte reads within each set's slice;
- counter updates: 8-byte scatter at ``counter_base + 8 * vertex``;
- membership probes: the bisection midpoint sequence inside the probed
  set's slice (lists) or a single bitmap-byte probe (adaptive bitmaps);
- reduction scans: sequential 8-byte reads over the thread's counter slice.

EfficientIMM's *counting* pass is fused into ``Generate_RRRsets``
(Algorithm 3), so — exactly like the paper's per-kernel measurement — it is
not charged to ``Find_Most_Influential_Set`` here; Ripples' counting pass is
part of its selection kernel and is charged to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import telemetry
from repro.core.selection import CoverStep, _check_select_args, greedy_cover
from repro.diffusion.base import get_model
from repro.kernels.dispatch import indexed_draws
from repro.kernels.scalar import ic_levels, lt_steps
from repro.runtime.partition import block_partition
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.store import FlatRRRStore
from repro.simmachine.cache import AccessCounts, CacheHierarchy
from repro.simmachine.layout import MemoryLayout, NumaPlacement
from repro.simmachine.topology import MachineTopology

__all__ = [
    "SelectionTraceResult",
    "SamplingTraceResult",
    "trace_efficient_selection",
    "trace_ripples_selection",
    "trace_sampling",
    "bitmap_check_shares",
]


@dataclass
class SelectionTraceResult:
    """Cache behaviour of one selection-kernel execution."""

    framework: str
    num_threads: int
    per_thread: list[AccessCounts]
    seeds: np.ndarray
    dram_ns: float = 0.0

    @property
    def total(self) -> AccessCounts:
        out = AccessCounts()
        for c in self.per_thread:
            out.merge(AccessCounts(c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses))
        return out

    @property
    def total_misses(self) -> int:
        return self.total.total_misses


def _bisect_probe_addrs(base: int, lo: int, size: int) -> np.ndarray:
    """Byte addresses of the bisection midpoints a binary search for a
    random key walks inside a sorted slice of ``size`` 4-byte entries."""
    probes = []
    a, b = 0, size
    while a < b:
        mid = (a + b) >> 1
        probes.append(base + (lo + mid) * 4)
        # Walk one side; the side choice does not change the depth or the
        # locality class, so fix it deterministically.
        a = mid + 1
    return np.asarray(probes, dtype=np.int64)


def _seq_addrs(base: int, lo: int, count: int, itemsize: int) -> np.ndarray:
    return base + (lo + np.arange(count, dtype=np.int64)) * itemsize


def trace_efficient_selection(
    store: FlatRRRStore,
    k: int,
    num_threads: int,
    topology: MachineTopology,
    *,
    adaptive_policy: AdaptivePolicy | None = None,
    adaptive_update: bool = True,
) -> SelectionTraceResult:
    """Replay EfficientIMM's selection, simulating each thread's caches."""
    _check_select_args(store, k, num_threads)
    n = store.num_vertices
    num_sets = len(store)
    policy = adaptive_policy or AdaptivePolicy()
    sizes = store.sizes()
    offsets = store.offsets
    verts = store.vertices
    is_bitmap = sizes > policy.threshold(n)

    layout = MemoryLayout()
    rrr_base = layout.allocate("rrr", store.total_entries * 4, policy="local")
    ctr_base = layout.allocate("counter", n * 8, policy="interleave")
    bmp_base = layout.allocate(
        "bitmaps", int(is_bitmap.sum()) * ((n + 7) // 8), policy="local"
    )
    bitmap_slot = np.cumsum(is_bitmap) - 1  # dense index per bitmap set

    caches = [
        CacheHierarchy(topology.l1, topology.l2) for _ in range(num_threads)
    ]
    set_bounds = block_partition(num_sets, num_threads)
    vertex_bounds = block_partition(n, num_threads)
    owner = np.zeros(num_sets, dtype=np.int64)
    for w, (s_lo, s_hi) in enumerate(set_bounds):
        owner[s_lo:s_hi] = w

    step = CoverStep(store)
    active = np.ones(num_sets, dtype=bool)
    remaining_entries = store.total_entries

    def cover(v: int, counts: np.ndarray) -> int:
        nonlocal remaining_entries
        # Reduction scan: each thread reads its counter slice sequentially.
        for w, (v_lo, v_hi) in enumerate(vertex_bounds):
            caches[w].access(_seq_addrs(ctr_base, v_lo, v_hi - v_lo, 8))

        # Membership probes, thread-local partitions only.
        for w in range(num_threads):
            probe_chunks = []
            for s in np.flatnonzero(active & (owner == w)).tolist():
                if is_bitmap[s]:
                    probe_chunks.append(
                        np.array(
                            [bmp_base + int(bitmap_slot[s]) * ((n + 7) // 8) + (v >> 3)],
                            dtype=np.int64,
                        )
                    )
                else:
                    probe_chunks.append(
                        _bisect_probe_addrs(rrr_base, int(offsets[s]), int(sizes[s]))
                    )
            if probe_chunks:
                caches[w].access(np.concatenate(probe_chunks))

        new_sets = step.retire(v, active)
        new_entry_count = int(sizes[new_sets].sum())
        remaining_entries -= new_entry_count
        use_rebuild = adaptive_update and new_entry_count > remaining_entries

        touch_sets = (
            np.flatnonzero(active) if use_rebuild else new_sets
        )
        for w in range(num_threads):
            mine = touch_sets[owner[touch_sets] == w]
            streams = []
            for s in mine.tolist():
                lo, sz = int(offsets[s]), int(sizes[s])
                streams.append(_seq_addrs(rrr_base, lo, sz, 4))  # read set
                streams.append(ctr_base + verts[lo : lo + sz].astype(np.int64) * 8)
            if streams:
                caches[w].access(np.concatenate(streams))
        # Maintain the real counter so seeds match the real kernel.
        if use_rebuild:
            counts[:] = np.bincount(step.entries(touch_sets), minlength=n)
        else:
            np.subtract.at(counts, step.entries(new_sets), 1)
        return int(new_sets.size)

    seeds, _ = greedy_cover(store.vertex_counts(), k, num_sets, cover)
    return _record_selection_trace(
        SelectionTraceResult(
            framework="EfficientIMM",
            num_threads=num_threads,
            per_thread=[c.counts for c in caches],
            seeds=seeds,
        )
    )


def _record_selection_trace(res: SelectionTraceResult) -> SelectionTraceResult:
    """Surface a trace's cache counters through the unified registry, under
    the same ``cache.<kernel>.*`` names a real run would use (the Table IV
    numbers become readable from telemetry output)."""
    tel = telemetry.get()
    if tel.enabled:
        telemetry.record_access_counts(
            tel.registry, f"{res.framework}.selection", res.total
        )
    return res


def trace_ripples_selection(
    store: FlatRRRStore,
    k: int,
    num_threads: int,
    topology: MachineTopology,
) -> SelectionTraceResult:
    """Replay Ripples' selection: every thread traverses every set."""
    _check_select_args(store, k, num_threads)
    n = store.num_vertices
    num_sets = len(store)
    sizes = store.sizes()
    offsets = store.offsets
    verts = store.vertices

    layout = MemoryLayout()
    rrr_base = layout.allocate("rrr", store.total_entries * 4, policy="bind")
    ctr_bases = [
        layout.allocate(f"counter{w}", (n // num_threads + 1) * 8, policy="local")
        for w in range(num_threads)
    ]

    caches = [
        CacheHierarchy(topology.l1, topology.l2) for _ in range(num_threads)
    ]
    vertex_bounds = block_partition(n, num_threads)

    # Counting pass: every thread streams the entire store and writes the
    # occurrences landing in its own vertex range to its private counter.
    verts64 = verts.astype(np.int64)
    for w, (v_lo, v_hi) in enumerate(vertex_bounds):
        read_stream = _seq_addrs(rrr_base, 0, store.total_entries, 4)
        mine = verts64[(verts64 >= v_lo) & (verts64 < v_hi)]
        write_stream = ctr_bases[w] + (mine - v_lo) * 8
        caches[w].access(read_stream)
        caches[w].access(write_stream)

    step = CoverStep(store)
    active = np.ones(num_sets, dtype=bool)

    def cover(v: int, counts: np.ndarray) -> int:
        for w, (v_lo, v_hi) in enumerate(vertex_bounds):
            caches[w].access(_seq_addrs(ctr_bases[w], 0, v_hi - v_lo, 8))

        # Every thread probes every remaining set.
        probe_chunks = [
            _bisect_probe_addrs(rrr_base, int(offsets[s]), int(sizes[s]))
            for s in np.flatnonzero(active).tolist()
        ]
        probes = (
            np.concatenate(probe_chunks) if probe_chunks
            else np.empty(0, dtype=np.int64)
        )
        new_sets = step.retire(v, active)

        # Every thread replays the probe stream and re-reads every covered
        # set, writing only the occurrences in its own vertex range.
        for w, (v_lo, v_hi) in enumerate(vertex_bounds):
            caches[w].access(probes)
            streams = []
            for s in new_sets.tolist():
                lo, sz = int(offsets[s]), int(sizes[s])
                streams.append(_seq_addrs(rrr_base, lo, sz, 4))  # full re-read
                seg = verts64[lo : lo + sz]
                mine = seg[(seg >= v_lo) & (seg < v_hi)]
                streams.append(ctr_bases[w] + (mine - v_lo) * 8)
            if streams:
                caches[w].access(np.concatenate(streams))
        # Maintain the real counter once (semantics, not traffic).
        np.subtract.at(counts, step.entries(new_sets), 1)
        return int(new_sets.size)

    seeds, _ = greedy_cover(store.vertex_counts(), k, num_sets, cover)
    return _record_selection_trace(
        SelectionTraceResult(
            framework="Ripples",
            num_threads=num_threads,
            per_thread=[c.counts for c in caches],
            seeds=seeds,
        )
    )


# ================================================== sampling-kernel trace
@dataclass
class SamplingTraceResult:
    """Cache + NUMA behaviour of one Generate_RRRsets execution."""

    num_threads: int
    num_sets: int
    per_thread: list[AccessCounts]
    dram_ns_local: float  # DRAM time under NUMA-aware (local) placement
    dram_ns_bind: float  # DRAM time with everything homed on node 0

    @property
    def total(self) -> AccessCounts:
        out = AccessCounts()
        for c in self.per_thread:
            out.merge(AccessCounts(c.l1_hits, c.l1_misses, c.l2_hits, c.l2_misses))
        return out

    @property
    def numa_benefit(self) -> float:
        """DRAM-time ratio bind/local (>1: NUMA-aware placement wins)."""
        return self.dram_ns_bind / max(self.dram_ns_local, 1e-12)


def trace_sampling(
    graph,
    num_sets: int,
    num_threads: int,
    topology: MachineTopology,
    *,
    model: str = "IC",
    fused: bool = True,
    seed: int = 0,
) -> SamplingTraceResult:
    """Replay Generate_RRRsets (Algorithm 3) as exact memory traces.

    Traces the sets the program draws: set ``i`` has the root and stream
    ``indexed_draws(seed, i)`` and is walked by the per-set reference
    traversal (:func:`repro.kernels.scalar.ic_levels` or
    :func:`~repro.kernels.scalar.lt_steps`), so the traced sets are
    exactly ``KernelSampler(get_model(model, graph)).sample_indexed(seed,
    0, num_sets)``.  Every access of each set is recorded:

    - CSR row reads of the transposed graph (sequential within a row);
    - visited-bitmap probes, one per examined in-edge (line 8);
    - RRR-buffer writes (sequential);
    - fused counter updates at ``counter_base + 8 * v`` for every member
      ``v`` of the set, when ``fused``.

    Each emulated thread owns a contiguous block of the sets and its own
    cache hierarchy; DRAM time for the cache-missing accesses is priced
    twice — once with worker-local placement (the NUMA-aware design) and
    once with everything first-touched on node 0 — giving the same
    comparison as Table II but from exact traces.
    """
    dm = get_model(model, graph)
    rev = dm.reverse_graph
    n = graph.num_vertices
    roots, keys = indexed_draws(seed, np.arange(num_sets), n)
    walk = _traced_ic_bfs if dm.name == "IC" else _traced_lt_walk

    layout = MemoryLayout()
    g_base = layout.allocate("rev_indices", rev.indices.nbytes, policy="interleave")
    p_base = layout.allocate("rev_probs", rev.probs.nbytes, policy="interleave")
    v_base = layout.allocate("visited", (n + 7) // 8, policy="local")
    r_base = layout.allocate("rrr", 4 * n, policy="local")
    c_base = layout.allocate("counter", 8 * n, policy="interleave")
    placement = NumaPlacement(layout, topology)

    caches = [CacheHierarchy(topology.l1, topology.l2) for _ in range(num_threads)]
    set_bounds = block_partition(num_sets, num_threads)
    dram_local = 0.0
    dram_bind = 0.0
    # In the bind arm every worker's misses funnel through node 0's memory
    # controller; apply the same queueing multiplier as the Table II model.
    worker_cores = [
        w * topology.cores_per_numa % topology.num_cores
        for w in range(num_threads)
    ]
    active_nodes = len({topology.node_of_core(c) for c in worker_cores})
    bind_contention = 1.0 + 0.45 * (active_nodes - 1)

    for w, (lo, hi) in enumerate(set_bounds):
        core = worker_cores[w]
        for i in range(lo, hi):
            streams: list[np.ndarray] = []
            members = walk(
                dm, int(roots[i]), int(keys[i]),
                g_base, p_base, v_base, r_base, streams,
            )
            if fused:
                streams.append(c_base + members * 8)
            addrs = np.concatenate(streams)
            got = caches[w].access(addrs)
            # Price the misses under both placements.  Missing addresses
            # are a uniform thinning of the stream; sample them.
            miss_count = got.l2_misses
            if miss_count and addrs.size:
                sample = addrs[:: max(addrs.size // max(miss_count, 1), 1)][
                    :miss_count
                ]
                dram_local += float(
                    placement.dram_latencies_ns(sample, core).sum()
                )
                dram_bind += (
                    miss_count
                    * topology.access_latency_ns(core, 0)
                    * bind_contention
                )

    res = SamplingTraceResult(
        num_threads=num_threads,
        num_sets=num_sets,
        per_thread=[c.counts for c in caches],
        dram_ns_local=dram_local,
        dram_ns_bind=dram_bind,
    )
    tel = telemetry.get()
    if tel.enabled:
        telemetry.record_access_counts(tel.registry, "sampling", res.total)
        tel.registry.gauge("numa.dram_ns_local").set(res.dram_ns_local)
        tel.registry.gauge("numa.dram_ns_bind").set(res.dram_ns_bind)
        tel.registry.gauge("numa.benefit").set(res.numa_benefit)
    return res


def _traced_ic_bfs(
    dm, root, key, g_base, p_base, v_base, r_base, streams
) -> np.ndarray:
    """Append the exact address stream of one IC set to ``streams``.

    Returns the RRR set's members (int64, in visit order), level by level
    from :func:`~repro.kernels.scalar.ic_levels`.
    """
    indptr = dm.reverse_graph.indptr
    members = [np.array([root], dtype=np.int64)]
    size = 1
    streams.append(np.array([r_base], dtype=np.int64))  # root write
    for frontier, examined, fresh in ic_levels(dm, root, key):
        # CSR row reads: indices + probs, sequential within each row.
        for u in frontier.tolist():
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            if hi > lo:
                streams.append(g_base + np.arange(lo, hi, dtype=np.int64) * 4)
                streams.append(p_base + np.arange(lo, hi, dtype=np.int64) * 8)
        # Visited-bitmap probe per examined edge (Algorithm 3 line 8).
        streams.append(v_base + (examined.astype(np.int64) >> 3))
        # Bitmap writes + RRR appends for the fresh vertices.
        fresh = fresh.astype(np.int64)
        streams.append(v_base + (fresh >> 3))
        streams.append(
            r_base + (size + np.arange(fresh.size, dtype=np.int64)) * 4
        )
        size += fresh.size
        members.append(fresh)
    return np.concatenate(members)


def _traced_lt_walk(
    dm, root, key, g_base, p_base, v_base, r_base, streams
) -> np.ndarray:
    """Append the exact address stream of one LT walk to ``streams``: one
    binary search over the current vertex's cumulative in-weight row per
    step of :func:`~repro.kernels.scalar.lt_steps`.

    Returns the RRR set's members (int64, in walk order)."""
    indptr = dm.reverse_graph.indptr
    members = [root]
    streams.append(np.array([r_base], dtype=np.int64))  # root write
    for v, u, fresh in lt_steps(dm, root, key):
        lo, hi = int(indptr[v]), int(indptr[v + 1])
        # Bisection probes over the cumulative-weight row (8-byte floats):
        # rescale the 4-byte probe offsets to the float64 element size.
        streams.append(p_base + _bisect_probe_addrs(0, lo, hi - lo) * 2)
        if u < 0:
            break
        # Neighbour-id load + visited probe; a fresh step adds its bitmap
        # write + RRR append.
        streams.append(
            np.array([g_base + lo * 4, v_base + (u >> 3)], dtype=np.int64)
        )
        if fresh:
            streams.append(np.array(
                [v_base + (u >> 3), r_base + len(members) * 4], dtype=np.int64
            ))
            members.append(u)
    return np.asarray(members, dtype=np.int64)


# ======================================================== Table II driver
@dataclass
class BitmapShareResult:
    """Core-time share of the visited-bitmap check under one placement."""

    placement: str
    bitmap_ns: float
    other_ns: float

    @property
    def share(self) -> float:
        total = self.bitmap_ns + self.other_ns
        return self.bitmap_ns / total if total > 0 else 0.0


def bitmap_check_shares(
    probes_per_sample: float,
    set_size_per_sample: float,
    topology: MachineTopology,
    *,
    bits_per_line_cluster: int = 64,
) -> dict[str, BitmapShareResult]:
    """Table II's experiment: share of Generate_RRRsets core time spent on
    the visited-bitmap check (Algorithm 3 line 8), under the original
    placement versus the NUMA-aware placement.

    Inputs are measured on the replicas by really sampling RRR sets:
    ``probes_per_sample`` is the mean number of in-edges examined per BFS
    (each examines ``visited[v]``), ``set_size_per_sample`` the mean number
    of distinct vertices activated (each dirties a fresh bitmap region —
    the miss/ownership traffic).  Both ratios are scale-invariant, so the
    replica measurements stand in for the paper-scale graphs directly.

    The two arms price the identical probe stream; only the placement-
    controlled constants differ (the paper's own variable):

    - **original** — bitmap pages first-touched on node 0: a probe that
      misses cache is served remotely, through a controller contended by
      every other node's workers; cache hits come from L2 (no locality
      management).
    - **numa_aware** — ``mbind``-local pages plus the "cache key structures
      closer to the processor" placement of §IV-B: hits are L1-resident,
      misses are local-DRAM.
    """
    # Fresh bitmap lines touched per sample: activations cluster within
    # cache lines (sorted BFS frontiers), ~bits_per_line_cluster bits each.
    touched_lines = max(set_size_per_sample / bits_per_line_cluster, 1.0)
    miss_rate = min(touched_lines / max(probes_per_sample, 1.0), 1.0)
    # Queueing multiplier when every node's workers hammer node 0.
    contention = 1.0 + 0.45 * (topology.num_numa_nodes - 1)
    # Non-bitmap work per probe (identical in both arms): amortised
    # sequential CSR line fetches, the coin flip, the probability load.
    other_per_probe_ns = (
        topology.dram_local_ns / 8.0
        + 2.0 / topology.clock_ghz
        + topology.l1_hit_ns
    )
    # Even mbind-local bitmaps exceed L1 capacity at paper scale, so the
    # NUMA-aware arm's hits split between L1 and L2; the original arm's
    # unmanaged placement keeps every hit at L2 distance.
    aware_hit_ns = 0.5 * (topology.l1_hit_ns + topology.l2_hit_ns)
    arms = {
        "original": topology.l2_hit_ns
        + miss_rate * topology.cross_socket_ns * contention,
        "numa_aware": aware_hit_ns + miss_rate * topology.dram_local_ns,
    }
    return {
        name: BitmapShareResult(
            name,
            bitmap_ns=probes_per_sample * per_probe_ns,
            other_ns=probes_per_sample * other_per_probe_ns,
        )
        for name, per_probe_ns in arms.items()
    }
