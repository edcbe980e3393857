"""``Find_Most_Influential_Set``: greedy max-cover in both designs.

Given theta RRR sets, both kernels pick k seeds greedily: repeatedly take the
vertex occurring in the most *uncovered* sets, then mark every set containing
it as covered.  They return **identical seed sets** (same tie-breaking:
lowest vertex id); what differs — and what this module reproduces — is the
memory-traversal structure:

**RipplesSelection** (§II-B, the baseline): the *vertex space* is block-
partitioned over p threads; every thread traverses **all** RRR sets, binary-
searching each sorted set for its range boundaries, to maintain its private
counter slice; after each pick, every thread again traverses every covered
set.  Total traffic grows with p (the paper's Challenge 1), which this
implementation reproduces with *real* redundant passes — the Ripples kernel
here genuinely reads the set store p times per counting pass, so wall-clock
comparisons are meaningful.

**EfficientSelection** (§IV, the contribution): the *RRR sets* are block-
partitioned; one shared global counter receives fine-grained atomic
updates; the seed is found by a two-step parallel reduction; and counter
maintenance is adaptive — decrement newly covered sets when they are the
minority, rebuild from uncovered sets when they dominate (§IV-C, Figure 5's
knob, exposed as ``adaptive_update``).

:func:`greedy_cover` is the only greedy loop.  ``efficient_select``,
``ripples_select``, the Table IV trace replays
(:mod:`repro.simmachine.instrumented`), the simulated-cluster ranks
(:mod:`repro.distributed.dimm`) and the shard router
(:mod:`repro.shard.router`) all run it, each with its own cover step.
Greedy is prefix-consistent (round ``i`` never depends on later rounds),
so the query front both executors share (:mod:`repro.service.front`)
keeps each sketch's longest answer — the engine's ``efficient_select``
over one cache entry, the shard router's scatter ``greedy_cover`` over
one exact set of slice instances — and serves every shorter ``k`` from
its first ``k`` rounds.

Membership ("which uncovered sets contain v") costs what it covers.
:class:`CoverStep` finds it one of two ways, fixed once per call (or per
shard session) by a rule on the store's shape: one scan of the flat vertex
array for ``v``, or a segmented binary search over the uncovered sets
(every flat store keeps its sets ascending) when they are large enough
that bisecting beats scanning.  Only ``ripples_select`` still bisects
physically, for its wall-clock bench; the modelled charges never depended
on the path.  EfficientIMM's stats charge the per-set O(log s) probe both
codes perform (adaptive bitmap sets O(1)) whichever path ran, settled once
per call: a set pays once for every round up to and including the one
that covers it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import telemetry
from repro.core.params import KernelStats
from repro.errors import ParameterError
from repro.runtime.partition import block_partition
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.store import FlatRRRStore, gather_rows

__all__ = [
    "CoverStep",
    "SelectionResult",
    "efficient_select",
    "greedy_cover",
    "ripples_select",
    "segmented_membership",
]

#: The cost of one bisection step over one set, counted in scanned flat
#: entries: the exchange rate of the membership rule (:func:`_bisects`).
#: One :func:`segmented_membership` round over every set measured 43-61
#: entries per set-step on a 2-core x86 host, and a whole selection pays
#: less, since it only bisects the sets still uncovered.  Real sketches sit
#: far from the line, and the rule picks the faster path on each replica
#: measured: LT sketches hold ~0.4 entries per set-step (scan), IC sketches
#: 87-620 (bisect), skitter's IC sketch 7.0 (scan).
_BISECT_STEP_ENTRIES = 32


@dataclass
class SelectionResult:
    """Seeds plus the per-round accounting both evaluations consume."""

    seeds: np.ndarray
    coverage_fraction: float
    stats: KernelStats
    rounds: list[dict] = field(default_factory=list)

    @property
    def num_rounds(self) -> int:
        return len(self.rounds)


def segmented_membership(
    store: FlatRRRStore, v: int, active: np.ndarray
) -> np.ndarray:
    """Indices of active sets containing ``v`` via vectorised per-set
    binary search (sets must be internally sorted).

    Runs the classic bisection loop simultaneously on every active set:
    ``ceil(log2(max_size))`` rounds of array-wide probes — the exact probe
    count a per-set ``std::binary_search`` performs.
    """
    sets = np.flatnonzero(active)
    if sets.size == 0:
        return sets
    offsets = store.offsets
    verts = store.vertices
    lo = offsets[sets].astype(np.int64)
    end = offsets[sets + 1].astype(np.int64)
    hi = end.copy()
    target = np.int32(v)
    # Array-wide lower-bound bisection: every iteration halves every open
    # interval, exactly log2(max set size) rounds.
    while True:
        open_mask = lo < hi
        if not np.any(open_mask):
            break
        mid = (lo + hi) >> 1
        probe = verts[np.where(open_mask, mid, 0)]
        less = open_mask & (probe < target)
        lo = np.where(less, mid + 1, lo)
        hi = np.where(open_mask & ~less, mid, hi)
    if verts.size == 0:
        return sets[:0]
    safe = np.minimum(lo, verts.size - 1)
    found = (lo < end) & (verts[safe] == target)
    return sets[found]


def _bisects(store: FlatRRRStore) -> bool:
    """The membership rule, on the store's shape alone: bisect when the
    flat scan costs more than one bisection over every set.

    A scan reads ``total_entries``; bisecting reads ``num_sets`` sets for
    ``ceil(log2(max_size + 1))`` steps, each worth
    ``_BISECT_STEP_ENTRIES`` scanned entries.
    """
    if len(store) == 0:
        return False
    depth = int(store.sizes().max()).bit_length()  # ceil(log2(max + 1))
    return store.total_entries > _BISECT_STEP_ENTRIES * len(store) * depth


class CoverStep:
    """One greedy round's cover over one store: retire the uncovered sets
    holding a vertex, then gather their entries with one index.

    Membership takes one of two paths, fixed when the step is built
    (:func:`_bisects`):

    - **scan**: one pass ``vertices == v``; each hit's set is
      ``searchsorted(offsets, hit, side="right") - 1``, and covered sets
      are dropped.  Correct for empty sets too.
    - **bisection**: :func:`segmented_membership` over the uncovered sets,
      which the store keeps ascending.
    """

    def __init__(self, store: FlatRRRStore):
        self.store = store
        self.bisect = _bisects(store)

    def retire(self, v: int, active: np.ndarray) -> np.ndarray:
        """Ids (ascending) of the active sets holding ``v``, which are
        marked inactive in ``active``."""
        if self.bisect:
            sets = segmented_membership(self.store, v, active)
        else:
            hits = np.flatnonzero(self.store.vertices == v)
            sets = np.searchsorted(self.store.offsets, hits, side="right") - 1
            sets = sets[active[sets]]
        active[sets] = False
        return sets

    def entries(self, sets: np.ndarray) -> np.ndarray:
        """The entries of ``sets``, concatenated in order."""
        return gather_rows(self.store.offsets, self.store.vertices, sets)[0]


def greedy_cover(
    counts: np.ndarray,
    k: int,
    num_sets: int,
    cover: Callable[[int, np.ndarray], int],
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy max-cover: the loop every exact selection runs (the callers
    are listed in the module docstring).

    Each round picks ``v = argmax(counts)`` (ties go to the lowest id),
    calls ``cover(v, counts)`` — which retires the uncovered sets holding
    ``v``, takes their entries off ``counts`` in place and returns how many
    sets it retired — and marks every chosen vertex ``-1``.  Once all
    ``num_sets`` sets are covered, the remaining seeds are the lowest
    unchosen ids.  ``k`` must not exceed ``counts.size``.

    Returns the seeds and the sets each round newly covered (0 on fill
    rounds); ``counts`` is consumed.
    """
    seeds = np.empty(k, dtype=np.int64)
    newly = np.zeros(k, dtype=np.int64)
    covered = 0
    for rnd in range(k):
        v = int(np.argmax(counts))
        seeds[rnd] = v
        newly[rnd] = cover(v, counts)
        covered += int(newly[rnd])
        counts[seeds[: rnd + 1]] = -1
        if covered >= num_sets and rnd + 1 < k:
            free = np.ones(counts.size, dtype=bool)
            free[seeds[: rnd + 1]] = False
            seeds[rnd + 1 :] = np.flatnonzero(free)[: k - rnd - 1]
            break
    return seeds, newly


# ===================================================================== IMM
def efficient_select(
    store: FlatRRRStore,
    k: int,
    num_threads: int = 1,
    *,
    initial_counter: np.ndarray | None = None,
    adaptive_update: bool = True,
    adaptive_policy: AdaptivePolicy | None = None,
) -> SelectionResult:
    """EfficientIMM's RRR-partitioned selection (Algorithm 2 + §IV-C).

    Parameters
    ----------
    initial_counter:
        The fused counter produced by Algorithm 3's in-place updates; when
        provided the initialisation pass is skipped (kernel fusion).  When
        ``None`` the kernel builds it with one pass (charged as atomic adds
        by the set owners).
    adaptive_update:
        The §IV-C optimisation: *incrementally* maintain the counter,
        decrementing newly covered sets when they are the minority and
        rebuilding from the uncovered remainder when they dominate.

        ``False`` reproduces Figure 5's "w/o adaptive update" arm: the
        counter is re-derived every round by re-counting all theta sets and
        re-subtracting every set containing any already-selected seed —
        i.e. each round "reduc[es] counts in every identified RRRset"
        (§IV-C's wording).  Per round that costs the whole store plus the
        cumulatively covered entries, which is the only reading consistent
        with the 11.6x-60.9x speedups Figure 5 reports at 128 cores (an
        incremental decrement baseline would differ from the adaptive arm
        by barely 2-3x).  Seeds are identical either way.
    adaptive_policy:
        Representation policy used to *charge* membership probes (bitmap
        sets cost O(1), list sets O(log s)).  Defaults to EfficientIMM's
        standard policy.
    """
    n = store.num_vertices
    num_sets = len(store)
    _check_select_args(store, k, num_threads)
    policy = adaptive_policy if adaptive_policy is not None else AdaptivePolicy()
    stats = KernelStats(num_threads)
    sizes = store.sizes()
    set_entries = sizes.astype(np.float64)
    # RRRset partitioning: contiguous blocks of sets per thread (§IV-A).
    owner = np.zeros(num_sets, dtype=np.int64)
    for w, (s_lo, s_hi) in enumerate(block_partition(num_sets, num_threads)):
        owner[s_lo:s_hi] = w
    vertex_bounds = block_partition(n, num_threads)

    # Per-set membership-probe charge under the adaptive representation.
    is_bitmap = sizes > policy.threshold(n)
    probe_cost = np.where(is_bitmap, 1.0, np.log2(np.maximum(sizes, 2)))

    counts = (
        initial_counter.astype(np.int64, copy=True)
        if initial_counter is not None
        else None
    )
    if counts is None:
        counts = store.vertex_counts()
        per_thread = np.bincount(
            owner, weights=set_entries, minlength=num_threads
        )
        stats.loads += per_thread
        stats.atomics += per_thread
        stats.sync_barriers += 1

    step = CoverStep(store)
    verts = store.vertices
    active = np.ones(num_sets, dtype=bool)
    covered_in = np.full(num_sets, k, dtype=np.int64)  # round covering each set
    uncovered = store.total_entries
    rounds: list[dict] = []

    def cover(v: int, counts: np.ndarray) -> int:
        nonlocal uncovered
        new_sets = step.retire(v, active)
        covered_in[new_sets] = len(rounds)
        new_entries = int(sizes[new_sets].sum())
        uncovered -= new_entries
        if not adaptive_update:
            # Figure 5's baseline arm: re-derive the counter from scratch —
            # count every set, then subtract every covered set again.
            method = "recount"
            counts[:] = store.vertex_counts()
            counts -= np.bincount(verts[np.repeat(~active, sizes)], minlength=n)
            charge = np.bincount(
                owner, weights=set_entries, minlength=num_threads
            ) + np.bincount(
                owner[~active], weights=set_entries[~active],
                minlength=num_threads,
            )
        elif new_entries > uncovered:
            # Recount from the uncovered sets alone: fewer entries than the
            # decrement would touch, which is what chose this branch.
            method = "rebuild"
            counts[:] = np.bincount(
                step.entries(np.flatnonzero(active)), minlength=n
            )
            charge = np.bincount(
                owner[active], weights=set_entries[active],
                minlength=num_threads,
            )
        else:
            method = "decrement"
            np.subtract.at(counts, step.entries(new_sets), 1)
            charge = np.bincount(
                owner[new_sets], weights=set_entries[new_sets],
                minlength=num_threads,
            )
        stats.loads += charge
        stats.atomics += charge
        rounds.append(
            {
                "seed": v,
                "new_covered_sets": int(new_sets.size),
                "covered_entries": new_entries,
                "method": method,
            }
        )
        return int(new_sets.size)

    seeds, newly = greedy_cover(counts, k, num_sets, cover)

    # Settle the per-round charges once: every greedy round pays the
    # two-step reduction (n/p loads + p serial ops) and a membership probe
    # of each set still uncovered when it starts; two barriers per round.
    greedy = len(rounds)
    widths = np.array([hi - lo for lo, hi in vertex_bounds], dtype=np.float64)
    stats.loads += greedy * widths
    stats.loads += np.bincount(
        owner,
        weights=probe_cost * np.minimum(covered_in + 1, greedy),
        minlength=num_threads,
    )
    stats.serial_ops += greedy * num_threads
    stats.sync_barriers += 2 * greedy
    rounds.extend(
        {"seed": fv, "new_covered_sets": 0, "covered_entries": 0,
         "method": "fill"}
        for fv in seeds[greedy:].tolist()
    )

    coverage = int(newly.sum()) / num_sets
    _record_selection_telemetry(rounds)
    return SelectionResult(
        seeds=seeds, coverage_fraction=coverage, stats=stats, rounds=rounds
    )


def _record_selection_telemetry(rounds: list[dict]) -> None:
    """One guarded block per kernel call: round counts by update method
    (`selection.*`, docs/observability.md) — the §IV-C adaptive-update
    decisions Figure 5 ablates, now observable on any run."""
    tel = telemetry.get()
    if not tel.enabled:
        return
    reg = tel.registry
    reg.counter("selection.rounds").inc(len(rounds))
    for r in rounds:
        reg.counter(f"selection.method.{r['method']}").inc()
        reg.counter("selection.covered_entries").inc(r["covered_entries"])


# ================================================================= Ripples
def ripples_select(
    store: FlatRRRStore,
    k: int,
    num_threads: int = 1,
) -> SelectionResult:
    """Ripples' vertex-partitioned selection (the baseline of §II-B/§III).

    Every thread owns a contiguous vertex range and its private counter
    slice.  Counting and every post-pick update require each thread to
    traverse **all** (remaining) sets — executed here as real redundant
    passes over the flat store, one per thread, so the p-fold traffic the
    paper measures is physically present.  Both the range clipping and the
    membership probes binary-search the store's ascending sets.
    """
    n = store.num_vertices
    num_sets = len(store)
    _check_select_args(store, k, num_threads)
    stats = KernelStats(num_threads)
    verts = store.vertices
    vertex_bounds = block_partition(n, num_threads)
    widths = np.array([hi - lo for lo, hi in vertex_bounds], dtype=np.float64)
    log_sizes = np.log2(np.maximum(store.sizes(), 2))

    # ---- initial counting: p real passes over the whole store ------------
    counts = np.zeros(n, dtype=np.int64)
    for w, (v_lo, v_hi) in enumerate(vertex_bounds):
        in_range = (verts >= v_lo) & (verts < v_hi)  # thread w reads all sets
        counts += np.bincount(verts[in_range], minlength=n)
        # Charge: binary-search bounds in every set + its in-range entries.
        stats.loads[w] += float(log_sizes.sum() + in_range.sum())
        stats.stores[w] += float(in_range.sum())
    stats.sync_barriers += 1

    step = CoverStep(store)
    active = np.ones(num_sets, dtype=bool)
    rounds: list[dict] = []

    def cover(v: int, counts: np.ndarray) -> int:
        # Thread-local maxima then serial merge (the reduction Ripples does).
        stats.loads += widths
        stats.serial_ops += num_threads
        # Every thread probes every remaining set for v (log s each).
        active_count = int(active.sum())
        stats.loads += float(log_sizes[active].sum())  # per thread
        stats.sync_barriers += 1
        new_sets = segmented_membership(store, v, active)
        active[new_sets] = False
        covered = step.entries(new_sets)

        # Decrement: each thread re-reads every covered set, updates its
        # own slice — p real passes over the covered entries.
        for w, (v_lo, v_hi) in enumerate(vertex_bounds):
            mine = covered[(covered >= v_lo) & (covered < v_hi)]
            np.subtract.at(counts, mine, 1)
            stats.loads[w] += float(covered.size + log_sizes[new_sets].sum())
            stats.stores[w] += float(mine.size)
        stats.sync_barriers += 1

        rounds.append(
            {
                "seed": v,
                "new_covered_sets": int(new_sets.size),
                "covered_entries": int(covered.size),
                "method": "decrement",
                "active_sets_scanned": active_count,
            }
        )
        return int(new_sets.size)

    seeds, newly = greedy_cover(counts, k, num_sets, cover)
    rounds.extend(
        {"seed": fv, "new_covered_sets": 0, "covered_entries": 0,
         "method": "fill"}
        for fv in seeds[len(rounds):].tolist()
    )

    coverage = int(newly.sum()) / num_sets
    _record_selection_telemetry(rounds)
    return SelectionResult(
        seeds=seeds, coverage_fraction=coverage, stats=stats, rounds=rounds
    )


def _check_select_args(store: FlatRRRStore, k: int, num_threads: int) -> None:
    if k <= 0:
        raise ParameterError(f"k must be positive, got {k}")
    if k > store.num_vertices:
        raise ParameterError(
            f"k={k} exceeds the vertex count {store.num_vertices}"
        )
    if num_threads <= 0:
        raise ParameterError(f"num_threads must be positive, got {num_threads}")
    if len(store) == 0:
        raise ParameterError("cannot select seeds from an empty RRR store")
