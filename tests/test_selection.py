"""Tests for both Find_Most_Influential_Set kernels.

The crucial contract: EfficientIMM's and Ripples' selections are different
*executions* of the same greedy max-cover, so their seeds must be identical
on every input, and both must match a brute-force greedy reference.
"""

import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import selection
from repro.core.params import KernelStats
from repro.errors import ParameterError
from repro.runtime.partition import block_partition
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.store import FlatRRRStore
from repro.core.selection import (
    CoverStep,
    efficient_select,
    ripples_select,
    segmented_membership,
)

from conftest import make_store


def greedy_reference(sets, n, k):
    """Brute-force greedy max-cover with lowest-id tie-breaking."""
    sets = [set(x) for x in sets]
    covered = [False] * len(sets)
    seeds = []
    for _ in range(k):
        counts = np.zeros(n, dtype=np.int64)
        for flag, s in zip(covered, sets):
            if not flag:
                for v in s:
                    counts[v] += 1
        counts[np.asarray(seeds, dtype=np.int64)] = -1 if seeds else counts[[]]
        v = int(np.argmax(counts))
        if counts[v] <= 0:
            # All covered: fill with the lowest unchosen ids.
            for u in range(n):
                if u not in seeds:
                    seeds.append(u)
                    break
            continue
        seeds.append(v)
        for i, s in enumerate(sets):
            if v in s:
                covered[i] = True
    return seeds


def reference_select(store, k, num_threads=1, *, initial_counter=None,
                     adaptive_update=True):
    """The per-round ``efficient_select`` loop from before the shared
    ``greedy_cover``: every round it bisects every active set, charges
    their probes, re-sums a per-entry mask to size the rebuild-vs-decrement
    decision and retires sets one slice at a time.  Kept as the oracle the
    sub-linear loop must match round for round (sets must be sorted)."""
    n = store.num_vertices
    num_sets = len(store)
    policy = AdaptivePolicy()
    stats = KernelStats(num_threads)
    sizes = store.sizes()
    owner = np.zeros(num_sets, dtype=np.int64)
    for w, (s_lo, s_hi) in enumerate(block_partition(num_sets, num_threads)):
        owner[s_lo:s_hi] = w
    vertex_bounds = block_partition(n, num_threads)
    is_bitmap = sizes > policy.threshold(n)
    probe_cost = np.where(is_bitmap, 1.0, np.log2(np.maximum(sizes, 2)))

    if initial_counter is not None:
        counts = initial_counter.astype(np.int64, copy=True)
    else:
        counts = store.vertex_counts()
        per_thread = np.bincount(
            owner, weights=sizes.astype(np.float64), minlength=num_threads
        )
        stats.loads += per_thread
        stats.atomics += per_thread
        stats.sync_barriers += 1

    offsets, verts = store.offsets, store.vertices
    active_sets = np.ones(num_sets, dtype=bool)
    active_entries = np.ones(store.total_entries, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    seeds = np.empty(k, dtype=np.int64)
    covered_total = 0
    rounds = []

    def retire(set_list):
        chunks = []
        for s in set_list.tolist():
            lo, hi = int(offsets[s]), int(offsets[s + 1])
            active_entries[lo:hi] = False
            chunks.append(verts[lo:hi])
        if chunks:
            return np.concatenate(chunks)
        return np.empty(0, dtype=verts.dtype)

    for rnd in range(k):
        v = int(np.argmax(counts))
        stats.loads += np.array(
            [hi - lo for lo, hi in vertex_bounds], dtype=np.float64
        )
        stats.serial_ops += num_threads
        seeds[rnd] = v
        chosen[v] = True

        new_sets = segmented_membership(store, v, active_sets)
        stats.loads += np.bincount(
            owner[active_sets], weights=probe_cost[active_sets],
            minlength=num_threads,
        )
        stats.sync_barriers += 1

        new_entry_count = int(sizes[new_sets].sum())
        uncovered_entry_count = int(active_entries.sum()) - new_entry_count
        use_rebuild = adaptive_update and new_entry_count > uncovered_entry_count
        active_sets[new_sets] = False
        dec = retire(new_sets)
        covered_total += new_sets.size

        per_set_w = sizes.astype(np.float64)
        if not adaptive_update:
            counts = store.vertex_counts()
            np.subtract.at(counts, verts[~active_entries], 1)
            charge = np.bincount(
                owner, weights=per_set_w, minlength=num_threads
            ) + np.bincount(
                owner[~active_sets], weights=per_set_w[~active_sets],
                minlength=num_threads,
            )
        elif use_rebuild:
            counts = np.bincount(
                verts[active_entries], minlength=n
            ).astype(np.int64)
            charge = np.bincount(
                owner[active_sets], weights=per_set_w[active_sets],
                minlength=num_threads,
            )
        else:
            np.subtract.at(counts, dec, 1)
            charge = np.bincount(
                owner[new_sets], weights=per_set_w[new_sets],
                minlength=num_threads,
            )
        stats.loads += charge
        stats.atomics += charge
        counts[chosen] = -1
        stats.sync_barriers += 1

        rounds.append(
            {
                "seed": v,
                "new_covered_sets": int(new_sets.size),
                "covered_entries": new_entry_count,
                "method": (
                    "recount" if not adaptive_update
                    else "rebuild" if use_rebuild
                    else "decrement"
                ),
            }
        )
        if covered_total >= num_sets and rnd + 1 < k:
            fill = np.flatnonzero(~chosen)[: k - rnd - 1]
            seeds[rnd + 1 : rnd + 1 + fill.size] = fill
            for fv in fill:
                chosen[fv] = True
                rounds.append(
                    {"seed": int(fv), "new_covered_sets": 0,
                     "covered_entries": 0, "method": "fill"}
                )
            break

    coverage = covered_total / num_sets if num_sets else 0.0
    return seeds, coverage, stats, rounds


def reference_ripples_select(store, k, num_threads=1):
    """The per-round ``ripples_select`` loop from before the shared
    ``greedy_cover``: p counting passes, then every round a reduction, a
    probe charge over every active set, a bisection, a per-set gather of
    the covered entries and p decrement passes.  Kept as the oracle the
    shared loop must match byte for byte, charges included."""
    n = store.num_vertices
    num_sets = len(store)
    stats = KernelStats(num_threads)
    sizes = store.sizes()
    offsets = store.offsets
    verts = store.vertices
    vertex_bounds = block_partition(n, num_threads)
    log_sizes = np.log2(np.maximum(sizes, 2))

    counts = np.zeros(n, dtype=np.int64)
    for w, (v_lo, v_hi) in enumerate(vertex_bounds):
        in_range = (verts >= v_lo) & (verts < v_hi)
        counts += np.bincount(verts[in_range], minlength=n)
        stats.loads[w] += float(log_sizes.sum() + in_range.sum())
        stats.stores[w] += float(in_range.sum())
    stats.sync_barriers += 1

    active_sets = np.ones(num_sets, dtype=bool)
    chosen = np.zeros(n, dtype=bool)
    seeds = np.empty(k, dtype=np.int64)
    covered_total = 0
    rounds = []

    for rnd in range(k):
        v = int(np.argmax(counts))
        stats.loads += np.array(
            [hi - lo for lo, hi in vertex_bounds], dtype=np.float64
        )
        stats.serial_ops += num_threads
        seeds[rnd] = v
        chosen[v] = True

        new_sets = segmented_membership(store, v, active_sets)
        active_count = int(active_sets.sum())
        stats.loads += float(log_sizes[active_sets].sum())
        stats.sync_barriers += 1

        active_sets[new_sets] = False
        covered_total += new_sets.size
        dec_chunks = [
            verts[offsets[s] : offsets[s + 1]] for s in new_sets.tolist()
        ]
        dec_all = (
            np.concatenate(dec_chunks) if dec_chunks
            else np.empty(0, dtype=verts.dtype)
        )
        for w, (v_lo, v_hi) in enumerate(vertex_bounds):
            mine = dec_all[(dec_all >= v_lo) & (dec_all < v_hi)]
            np.subtract.at(counts, mine, 1)
            stats.loads[w] += float(dec_all.size + log_sizes[new_sets].sum())
            stats.stores[w] += float(mine.size)
        counts[chosen] = -1
        stats.sync_barriers += 1

        rounds.append(
            {
                "seed": v,
                "new_covered_sets": int(new_sets.size),
                "covered_entries": int(sizes[new_sets].sum()),
                "method": "decrement",
                "active_sets_scanned": active_count,
            }
        )
        if covered_total >= num_sets and rnd + 1 < k:
            fill = np.flatnonzero(~chosen)[: k - rnd - 1]
            seeds[rnd + 1 : rnd + 1 + fill.size] = fill
            for fv in fill:
                chosen[fv] = True
                rounds.append(
                    {"seed": int(fv), "new_covered_sets": 0,
                     "covered_entries": 0, "method": "fill"}
                )
            break

    coverage = covered_total / num_sets if num_sets else 0.0
    return seeds, coverage, stats, rounds


def membership_side(bisect):
    """Force the membership rule to one side: a zero exchange rate bisects
    every sorted, non-empty store; an unreachable one always scans."""
    return mock.patch.object(
        selection, "_BISECT_STEP_ENTRIES", 0 if bisect else 10**18
    )


class TestSegmentedMembership:
    def test_finds_containing_sets(self):
        s = make_store(10, [[1, 5, 9], [2, 5], [0, 3]])
        active = np.ones(3, dtype=bool)
        assert segmented_membership(s, 5, active).tolist() == [0, 1]

    def test_respects_active_mask(self):
        s = make_store(10, [[1, 5], [5], [5, 7]])
        active = np.array([True, False, True])
        assert segmented_membership(s, 5, active).tolist() == [0, 2]

    def test_absent_vertex(self):
        s = make_store(10, [[1, 2], [3]])
        assert segmented_membership(s, 9, np.ones(2, dtype=bool)).size == 0

    def test_empty_sets_handled(self):
        s = make_store(10, [[], [4], []])
        assert segmented_membership(s, 4, np.ones(3, dtype=bool)).tolist() == [1]

    def test_no_active_sets(self):
        s = make_store(10, [[1]])
        assert segmented_membership(s, 1, np.zeros(1, dtype=bool)).size == 0

    def test_boundary_vertices(self):
        s = make_store(10, [[0, 9]])
        active = np.ones(1, dtype=bool)
        assert segmented_membership(s, 0, active).tolist() == [0]
        assert segmented_membership(s, 9, active).tolist() == [0]

    @given(
        st.lists(
            st.lists(st.integers(0, 19), min_size=0, max_size=15, unique=True),
            min_size=1, max_size=25,
        ),
        st.integers(0, 19),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_naive(self, sets, v):
        s = make_store(20, sets)
        active = np.ones(len(sets), dtype=bool)
        got = set(segmented_membership(s, v, active).tolist())
        expected = {i for i, x in enumerate(sets) if v in x}
        assert got == expected


class TestEfficientSelect:
    def test_obvious_winner(self):
        s = make_store(5, [[0, 1], [0, 2], [0, 3], [4]])
        res = efficient_select(s, 1)
        assert res.seeds.tolist() == [0]
        assert res.coverage_fraction == 0.75

    def test_two_seeds_cover_all(self):
        s = make_store(5, [[0, 1], [0, 2], [3], [3, 4]])
        res = efficient_select(s, 2)
        assert res.seeds.tolist() == [0, 3]
        assert res.coverage_fraction == 1.0

    def test_tie_breaks_to_lowest_id(self):
        s = make_store(5, [[2], [4]])
        res = efficient_select(s, 1)
        assert res.seeds[0] == 2

    def test_fill_after_full_coverage(self):
        s = make_store(5, [[3]])
        res = efficient_select(s, 3)
        assert res.seeds.tolist() == [3, 0, 1]  # fill picks lowest unchosen

    def test_seeds_unique(self):
        s = make_store(6, [[0, 1, 2], [0, 1], [2, 3]])
        res = efficient_select(s, 4)
        assert len(set(res.seeds.tolist())) == 4

    def test_initial_counter_shortcut_same_result(self):
        s = make_store(4, [[0, 1], [1, 2], [2]])
        counter = s.vertex_counts()
        a = efficient_select(s, 2)
        b = efficient_select(s, 2, initial_counter=counter)
        assert np.array_equal(a.seeds, b.seeds)

    def test_initial_counter_not_mutated(self):
        s = make_store(4, [[0, 1], [1, 2]])
        counter = s.vertex_counts()
        before = counter.copy()
        efficient_select(s, 2, initial_counter=counter)
        assert np.array_equal(counter, before)

    def test_adaptive_off_same_seeds(self):
        s = make_store(6, [[0, 1, 2], [0, 3], [1, 2], [4]])
        a = efficient_select(s, 3, adaptive_update=True)
        b = efficient_select(s, 3, adaptive_update=False)
        assert np.array_equal(a.seeds, b.seeds)

    def test_adaptive_off_costs_more(self, amazon_ic):
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model

        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=0
        )
        sampler.extend(120)
        on = efficient_select(sampler.store, 10, adaptive_update=True)
        off = efficient_select(sampler.store, 10, adaptive_update=False)
        assert np.array_equal(on.seeds, off.seeds)
        assert (
            off.stats.total_memory_ops > 3.0 * on.stats.total_memory_ops
        )

    def test_round_records(self):
        s = make_store(5, [[0, 1], [0, 2], [3]])
        res = efficient_select(s, 2)
        assert res.rounds[0]["seed"] == 0
        assert res.rounds[0]["new_covered_sets"] == 2
        assert res.rounds[0]["method"] in ("rebuild", "decrement")

    def test_multithread_same_seeds(self):
        rng = np.random.default_rng(0)
        sets = [
            np.unique(rng.integers(0, 50, size=rng.integers(1, 20)))
            for _ in range(60)
        ]
        s = make_store(50, sets)
        base = efficient_select(s, 8, num_threads=1).seeds
        for p in (2, 3, 7, 16):
            assert np.array_equal(efficient_select(s, 8, num_threads=p).seeds, base)

    def test_rejects_empty_store(self):
        with pytest.raises(ParameterError):
            efficient_select(FlatRRRStore(5), 1)

    def test_rejects_k_above_n(self):
        s = make_store(2, [[0]])
        with pytest.raises(ParameterError):
            efficient_select(s, 3)

    def test_rejects_bad_threads(self):
        s = make_store(2, [[0]])
        with pytest.raises(ParameterError):
            efficient_select(s, 1, num_threads=0)


class TestRipplesSelect:
    def test_same_result_as_efficient(self):
        s = make_store(5, [[0, 1], [0, 2], [0, 3], [4]])
        assert ripples_select(s, 2).seeds.tolist() == efficient_select(
            s, 2
        ).seeds.tolist()

    def test_multithread_same_seeds(self):
        rng = np.random.default_rng(1)
        sets = [
            np.unique(rng.integers(0, 40, size=rng.integers(1, 15)))
            for _ in range(50)
        ]
        s = make_store(40, sets)
        base = ripples_select(s, 6, num_threads=1).seeds
        for p in (2, 5, 8):
            assert np.array_equal(ripples_select(s, 6, num_threads=p).seeds, base)

    def test_work_scales_with_threads(self):
        rng = np.random.default_rng(2)
        sets = [np.unique(rng.integers(0, 100, size=20)) for _ in range(80)]
        s = make_store(100, sets)
        w1 = ripples_select(s, 5, num_threads=1).stats.total_memory_ops
        w4 = ripples_select(s, 5, num_threads=4).stats.total_memory_ops
        # The paper's Challenge 1: total traffic grows with threads.
        assert w4 > 2.0 * w1

    def test_efficient_work_does_not_scale_with_threads(self):
        rng = np.random.default_rng(3)
        sets = [np.unique(rng.integers(0, 100, size=20)) for _ in range(80)]
        s = make_store(100, sets)
        w1 = efficient_select(s, 5, num_threads=1).stats.total_memory_ops
        w8 = efficient_select(s, 5, num_threads=8).stats.total_memory_ops
        assert w8 < 1.5 * w1  # work-efficient: only reduction scans grow


class TestKernelEquivalence:
    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=0, max_size=12, unique=True),
            min_size=1, max_size=30,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=60, deadline=None)
    def test_three_way_agreement(self, sets, k):
        n = 25
        s = make_store(n, sets)
        ref = greedy_reference(sets, n, k)
        eff = efficient_select(s, k, num_threads=3).seeds.tolist()
        rip = ripples_select(s, k, num_threads=2).seeds.tolist()
        assert eff == ref
        assert rip == ref

    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=0, max_size=12, unique=True),
            min_size=1, max_size=30,
        ),
        st.integers(1, 6),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_replays_and_ranks_agree(self, sets, k, ranks, data):
        """The Table IV replays and both distributed selections, with the
        sets dealt across 1-4 rank stores, pick the reference's seeds."""
        from types import SimpleNamespace

        from conftest import make_graph
        from repro.distributed import (
            DistributedIMM,
            DistributedRipples,
            SimulatedComm,
            perlmutter_cluster,
        )
        from repro.simmachine.instrumented import (
            trace_efficient_selection,
            trace_ripples_selection,
        )
        from repro.simmachine.topology import perlmutter

        n = 25
        s = make_store(n, sets)
        ref = greedy_reference(sets, n, k)
        topo = perlmutter()
        assert trace_efficient_selection(s, k, 3, topo).seeds.tolist() == ref
        assert trace_ripples_selection(s, k, 2, topo).seeds.tolist() == ref

        deal = data.draw(st.lists(
            st.integers(0, ranks - 1), min_size=len(sets), max_size=len(sets)
        ))
        rank_sets = [[x for x, r in zip(sets, deal) if r == rank]
                     for rank in range(ranks)]
        samplers = []
        for part in rank_sets:
            local = make_store(n, part)
            samplers.append(
                SimpleNamespace(store=local, counter=local.vertex_counts())
            )
        covered = sum(bool(set(ref) & set(x)) for x in sets) / len(sets)
        cluster = perlmutter_cluster(ranks)
        for cls in (DistributedIMM, DistributedRipples):
            driver = cls(make_graph([], n=n), cluster, threads_per_rank=2)
            seeds, coverage, _ = driver._select(
                samplers, k, SimulatedComm(cluster)
            )
            assert seeds.tolist() == ref
            assert coverage == pytest.approx(covered)

    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=1, max_size=12, unique=True),
            min_size=1, max_size=30,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_coverage_fraction_correct(self, sets):
        n, k = 25, 3
        s = make_store(n, sets)
        res = efficient_select(s, k)
        seeds = set(res.seeds.tolist()[:k])
        expected = sum(bool(seeds & set(x)) for x in sets) / len(sets)
        assert res.coverage_fraction == pytest.approx(expected)


class TestPrefixConsistency:
    """Greedy is prefix-consistent: ``efficient_select`` at any k1 <= k2
    returns the first k1 rounds of the run at k2 — the same seeds, the
    same sets newly covered each round, the same §IV-C update decisions.
    The query engine keeps each sketch's longest selection and answers
    every shorter k from its prefix on this property.  Both membership
    paths, stores with empty sets and k past full coverage (the fill
    path)."""

    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=0, max_size=12, unique=True),
            min_size=1, max_size=30,
        ),
        st.lists(st.integers(1, 25), min_size=1, max_size=5),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @example([[], [1, 2], [], [3]], [1, 2, 5], True, True, False)
    @example([[], [1, 2], [], [3]], [1, 2, 5], False, True, True)
    @settings(max_examples=200, deadline=None)
    def test_shorter_k_is_a_prefix(self, sets, ks, bisect, adaptive, fused):
        n = 25
        s = make_store(n, sets)
        ks = sorted(ks)
        counter = s.vertex_counts() if fused else None
        with membership_side(bisect):
            runs = [
                efficient_select(
                    s, k, initial_counter=counter, adaptive_update=adaptive
                )
                for k in ks
            ]
        longest = runs[-1]
        assert longest.seeds.tolist() == greedy_reference(sets, n, ks[-1])
        for k, run in zip(ks, runs):
            assert run.seeds.tolist() == longest.seeds[:k].tolist()
            assert run.rounds == longest.rounds[:k]
        if counter is not None:
            assert np.array_equal(counter, s.vertex_counts())

    def test_fill_path_prefixes(self):
        # Two rounds cover both sets; later rounds take the lowest
        # unchosen ids, so every k past full coverage is a prefix too.
        s = make_store(6, [[1, 2], [3]])
        longest = efficient_select(s, 6)
        assert longest.seeds.tolist() == [1, 3, 0, 2, 4, 5]
        assert [r["new_covered_sets"] for r in longest.rounds] == [
            1, 1, 0, 0, 0, 0
        ]
        for k in (2, 4):
            assert efficient_select(s, k).rounds == longest.rounds[:k]


class TestApproximationGuarantee:
    """Greedy max-cover's (1 - 1/e) guarantee, the bound IMM rests on,
    checked against the brute-force optimum over every k-subset."""

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_within_greedy_bound_of_optimum(self, data):
        n = data.draw(st.integers(1, 12))
        sets = data.draw(st.lists(
            st.lists(st.integers(0, n - 1), max_size=n, unique=True),
            min_size=1, max_size=20,
        ))
        k = data.draw(st.integers(1, min(4, n)))
        res = efficient_select(make_store(n, sets), k)

        masks = np.array([sum(1 << v for v in x) for x in sets])

        def covered(seeds):
            mask = sum(1 << int(v) for v in seeds)
            return int(np.count_nonzero(masks & mask))

        opt = max(covered(c) for c in itertools.combinations(range(n), k))
        got = covered(res.seeds)
        assert got == round(res.coverage_fraction * len(sets))
        assert (1 - 1 / math.e) * opt <= got <= opt

    def test_counts_follow_coverage(self):
        # Vertices 0 and 1 always appear together, so ranking by the
        # initial counts picks 0 then 1 and covers 5 of 9 sets, below
        # (1 - 1/e) x 9.  The greedy must re-count after the first pick.
        sets = [[0, 1]] * 5 + [[2, 5, 6]] * 4
        res = efficient_select(make_store(7, sets), 2)
        assert res.seeds.tolist() == [0, 2]
        assert res.coverage_fraction == 1.0


class TestReferenceLoop:
    """The shared loop matches the per-round loop it replaced on both
    sides of the membership rule: same seeds, coverage and round records;
    the same modelled charges up to float summation order."""

    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=0, max_size=12, unique=True),
            min_size=1, max_size=30,
        ),
        st.integers(1, 8),
        st.sampled_from([1, 3]),
        st.booleans(),
        st.booleans(),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(
        self, sets, k, threads, adaptive, fused, bisect
    ):
        n = 25
        s = make_store(n, sets)
        counter = s.vertex_counts() if fused else None
        seeds, coverage, stats, rounds = reference_select(
            s, k, threads, initial_counter=counter, adaptive_update=adaptive
        )
        with membership_side(bisect):
            assert CoverStep(s).bisect == (bisect and s.total_entries > 0)
            res = efficient_select(
                s, k, threads, initial_counter=counter,
                adaptive_update=adaptive,
            )
        assert res.seeds.tolist() == seeds.tolist()
        assert res.coverage_fraction == coverage
        assert res.rounds == rounds
        np.testing.assert_allclose(res.stats.loads, stats.loads, rtol=1e-12)
        np.testing.assert_allclose(
            res.stats.atomics, stats.atomics, rtol=1e-12
        )
        assert res.stats.serial_ops == stats.serial_ops
        assert res.stats.sync_barriers == stats.sync_barriers

    def test_real_sketch_matches_reference(self, amazon_ic):
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model

        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=0
        )
        sampler.extend(120)
        store = sampler.store
        seeds, coverage, stats, rounds = reference_select(
            store, 20, 2, initial_counter=sampler.counter
        )
        for bisect in (False, True):
            with membership_side(bisect):
                res = efficient_select(
                    store, 20, 2, initial_counter=sampler.counter
                )
            assert res.seeds.tolist() == seeds.tolist()
            assert res.rounds == rounds
            assert res.coverage_fraction == coverage
            np.testing.assert_allclose(
                res.stats.loads, stats.loads, rtol=1e-12
            )
            assert np.array_equal(res.stats.atomics, stats.atomics)


class TestRipplesReference:
    """``ripples_select`` matches its per-round loop byte for byte: seeds,
    coverage, round records and every ``KernelStats`` field."""

    @staticmethod
    def assert_matches(store, k, threads):
        seeds, coverage, stats, rounds = reference_ripples_select(
            store, k, threads
        )
        res = ripples_select(store, k, threads)
        assert res.seeds.dtype == seeds.dtype
        assert res.seeds.tobytes() == seeds.tobytes()
        assert res.coverage_fraction == coverage
        assert res.rounds == rounds
        for name in ("loads", "stores", "atomics", "compute"):
            got, want = getattr(res.stats, name), getattr(stats, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name
        assert res.stats.num_threads == stats.num_threads
        assert repr(res.stats.serial_ops) == repr(stats.serial_ops)
        assert res.stats.sync_barriers == stats.sync_barriers

    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=0, max_size=12, unique=True),
            min_size=1, max_size=30,
        ),
        st.integers(1, 8),
        st.sampled_from([1, 2, 5]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, sets, k, threads):
        self.assert_matches(make_store(25, sets), k, threads)

    @pytest.mark.parametrize("threads", [1, 2, 5])
    @pytest.mark.parametrize(
        "model,count,k", [("IC", 120, 25), ("LT", 2000, 25)]
    )
    def test_real_sketch_matches_reference(
        self, model, count, k, threads, amazon_ic, amazon_lt
    ):
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model

        graph = amazon_ic if model == "IC" else amazon_lt
        sampler = RRRSampler(
            get_model(model, graph), SamplingConfig.efficientimm(), seed=0
        )
        sampler.extend(count)
        self.assert_matches(sampler.store, k, threads)


class TestUnsortedStores:
    """Sets handed to a store in any order are stored ascending, so
    selection over them matches the greedy reference."""

    @given(
        st.lists(
            st.lists(st.integers(0, 24), min_size=0, max_size=12, unique=True),
            min_size=1, max_size=30,
        ),
        st.integers(1, 6),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_greedy_reference(self, sets, k):
        n = 25
        s = make_store(n, sets)
        res = efficient_select(s, k, num_threads=2)
        assert res.seeds.tolist() == greedy_reference(sets, n, k)
        expected = sum(
            bool(set(res.seeds.tolist()) & set(x)) for x in sets
        ) / len(sets)
        assert res.coverage_fraction == pytest.approx(expected)

    def test_engine_serves_warmed_unsorted_store(self, amazon_ic):
        from repro.graph.io import graph_fingerprint
        from repro.service import (
            EngineConfig, IMQuery, QueryEngine, sketch_fingerprint,
        )

        rng = np.random.default_rng(5)
        n = amazon_ic.num_vertices
        sets = [
            rng.choice(n, size=int(rng.integers(1, 40)), replace=False)
            for _ in range(200)
        ]
        store = make_store(n, sets)
        q = IMQuery(dataset="amazon", k=5, theta_cap=len(sets))
        fp = sketch_fingerprint(
            graph_fingerprint(amazon_ic), q.model, q.epsilon, q.seed,
            len(sets),
        )
        with QueryEngine(config=EngineConfig()) as engine:
            engine.install_graph("amazon", amazon_ic)
            engine.warm(fp, store)
            resp = engine.query(q)
        assert resp.cached
        assert resp.seeds == greedy_reference(
            [x.tolist() for x in sets], n, 5
        )


class TestCoverStep:
    """Scan and bisection retire the same sets and gather the same
    entries; the rule picks bisection only for large sorted sets."""

    @staticmethod
    def both(store):
        steps = []
        for bisect in (False, True):
            with membership_side(bisect):
                steps.append(CoverStep(store))
        return steps

    def check(self, sets, n, v, active):
        s = make_store(n, sets)
        scan, bis = self.both(s)
        got = []
        for step in (scan, bis):
            mask = active.copy()
            retired = step.retire(v, mask)
            got.append((retired.tolist(), step.entries(retired).tolist(), mask))
        (sets_a, ent_a, mask_a), (sets_b, ent_b, mask_b) = got
        assert sets_a == sets_b
        assert ent_a == ent_b
        assert np.array_equal(mask_a, mask_b)
        expected = [
            i for i, x in enumerate(sets) if active[i] and v in x
        ]
        assert sets_a == expected
        assert ent_a == [u for i in expected for u in sorted(sets[i])]
        assert not mask_a[expected].any()
        return sets_a

    def test_empty_sets(self):
        assert self.check(
            [[], [4], [], [1, 4], []], 10, 4, np.ones(5, dtype=bool)
        ) == [1, 3]

    def test_vertex_held_by_no_set(self):
        assert self.check(
            [[1, 2], [3], []], 10, 9, np.ones(3, dtype=bool)
        ) == []

    def test_no_active_sets(self):
        assert self.check(
            [[1], [1, 2]], 10, 1, np.zeros(2, dtype=bool)
        ) == []

    def test_respects_active_mask(self):
        assert self.check(
            [[1, 5], [5], [5, 7]], 10, 5, np.array([True, False, True])
        ) == [0, 2]

    def test_empty_store(self):
        s = FlatRRRStore(4)
        for step in self.both(s):
            out = step.retire(2, np.zeros(0, dtype=bool))
            assert out.size == 0 and step.entries(out).size == 0

    @given(
        st.lists(
            st.lists(st.integers(0, 19), min_size=0, max_size=15, unique=True),
            min_size=1, max_size=25,
        ),
        st.integers(0, 19),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_paths_agree(self, sets, v, data):
        active = np.array(
            data.draw(st.lists(
                st.booleans(), min_size=len(sets), max_size=len(sets)
            )),
            dtype=bool,
        )
        self.check(sets, 20, v, active)

    def test_rule_sides(self):
        # 3 sets of 400 entries: depth 9, 400 > 32 x 9 entries per set.
        big = [list(range(i, 400 + i)) for i in range(3)]
        assert CoverStep(make_store(403, big)).bisect
        # Sets of 200 entries: 200 <= 32 x 8, so a scan is cheaper.
        small = [list(range(i, 200 + i)) for i in range(3)]
        assert not CoverStep(make_store(203, small)).bisect
        assert not CoverStep(FlatRRRStore(3)).bisect

    def test_large_sets_select_like_reference(self):
        rng = np.random.default_rng(11)
        n = 900
        sets = [
            rng.choice(n, size=int(rng.integers(380, 600)), replace=False)
            for _ in range(12)
        ] + [rng.choice(n, size=3, replace=False) for _ in range(4)]
        s = make_store(n, sets)
        assert CoverStep(s).bisect
        seeds, coverage, _, rounds = reference_select(s, 10, 3)
        res = efficient_select(s, 10, 3)
        assert res.seeds.tolist() == seeds.tolist()
        assert res.rounds == rounds
        assert res.coverage_fraction == coverage
