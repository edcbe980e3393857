"""Tests for the RRR stores (flat, adaptive/budgeted, partitioned)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfMemoryModelError, ParameterError
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.store import AdaptiveRRRStore, FlatRRRStore, PartitionedRRRStore


class TestFlatRRRStore:
    def test_append_and_get(self):
        s = FlatRRRStore(10)
        s.append(np.array([3, 1, 2]))
        s.append(np.array([7]))
        assert len(s) == 2
        assert s.get(0).tolist() == [1, 2, 3]
        assert s.get(1).tolist() == [7]

    def test_sorted_mode(self):
        s = FlatRRRStore(10)
        s.append(np.array([3, 1, 2]))
        assert s.get(0).tolist() == [1, 2, 3]

    def test_growth_preserves_data(self):
        s = FlatRRRStore(1000)
        rng = np.random.default_rng(0)
        sets = [rng.integers(0, 1000, size=rng.integers(1, 50)) for _ in range(200)]
        for x in sets:
            s.append(x)
        for i, x in enumerate(sets):
            assert np.array_equal(s.get(i), np.sort(x).astype(np.int32))

    def test_sizes(self):
        s = FlatRRRStore(10)
        s.extend([np.array([1]), np.array([2, 3]), np.array([], dtype=np.int32)])
        assert s.sizes().tolist() == [1, 2, 0]

    def test_vertex_counts(self):
        s = FlatRRRStore(5)
        s.extend([np.array([0, 1]), np.array([1, 2]), np.array([1])])
        assert s.vertex_counts().tolist() == [1, 3, 1, 0, 0]

    def test_sets_containing(self):
        s = FlatRRRStore(5)
        s.extend([np.array([0, 1]), np.array([2]), np.array([1, 2])])
        assert s.sets_containing(1).tolist() == [0, 2]
        assert s.sets_containing(4).tolist() == []

    def test_index_error(self):
        s = FlatRRRStore(5)
        with pytest.raises(IndexError):
            s.get(0)

    def test_iteration(self):
        s = FlatRRRStore(5)
        s.extend([np.array([0]), np.array([1])])
        assert [x.tolist() for x in s] == [[0], [1]]

    def test_nbytes_logical(self):
        s = FlatRRRStore(5)
        s.append(np.array([0, 1, 2]))
        assert s.nbytes() == 3 * 4 + 2 * 8

    def test_empty_set_append(self):
        s = FlatRRRStore(5)
        s.append(np.array([], dtype=np.int32))
        assert len(s) == 1 and s.get(0).size == 0


    @pytest.mark.parametrize("ascending_input", (False, True))
    def test_append_csr_matches_per_set_appends(self, ascending_input):
        rng = np.random.default_rng(4)
        sets = [
            rng.permutation(50)[: rng.integers(0, 9)].astype(np.int32)
            for _ in range(40)
        ]
        if ascending_input:
            sets = [np.sort(s) for s in sets]
        one = FlatRRRStore(50)
        one.extend(sets)  # the per-set path sorts what it is given
        bulk = FlatRRRStore(50)
        for lo in range(0, 40, 13):  # uneven batches across growth steps
            chunk = sets[lo : lo + 13]
            sizes = np.array([s.size for s in chunk])
            if not ascending_input:
                with pytest.raises(ParameterError, match="strictly ascending"):
                    bulk.append_csr(np.concatenate(chunk), sizes)
            bulk.append_csr(np.concatenate([np.sort(s) for s in chunk]), sizes)
        assert bulk.fingerprint() == one.fingerprint()
        np.testing.assert_array_equal(bulk.offsets, one.offsets)

    @pytest.mark.parametrize(
        "vertices",
        [
            [1, 4, 9, 2, 6, 7, 8, 5],  # one descending pair in the third set
            [1, 4, 9, 2, 6, 7, 7, 8],  # one duplicated pair in the third set
            [1, 4, 9, 6, 2, 7, 8, 9],  # ... at the third set's start
        ],
    )
    def test_append_csr_rejects_unordered_pair(self, vertices):
        s = FlatRRRStore(10)
        s.append(np.array([3]))
        with pytest.raises(ParameterError, match="strictly ascending"):
            s.append_csr(np.array(vertices), np.array([2, 1, 5]))
        assert len(s) == 1 and s.total_entries == 1  # nothing was added

    def test_append_csr_allows_descent_across_sets(self):
        s = FlatRRRStore(10)
        s.append_csr(np.array([4, 9, 2, 0, 5, 7]), np.array([2, 1, 0, 3]))
        assert [x.tolist() for x in s] == [[4, 9], [2], [], [0, 5, 7]]

    def test_append_csr_rejects_size_mismatch(self):
        with pytest.raises(ParameterError, match="sizes sum"):
            FlatRRRStore(5).append_csr(np.array([1, 2]), np.array([3]))


class TestAdaptiveRRRStore:
    def test_ripples_mode_all_lists(self):
        s = AdaptiveRRRStore(100, policy=None)
        s.append(np.arange(90))  # dense, but policy=None forces a list
        assert s.representation_histogram() == {"list": 1}

    def test_adaptive_mode_switches(self):
        s = AdaptiveRRRStore(320, policy=AdaptivePolicy())
        s.append(np.arange(5))
        s.append(np.arange(200))
        assert s.representation_histogram() == {"list": 1, "bitmap": 1}

    def test_budget_enforced(self):
        s = AdaptiveRRRStore(1000, policy=None, budget_bytes=100)
        s.append(np.arange(20))  # 80 bytes
        with pytest.raises(OutOfMemoryModelError) as exc:
            s.append(np.arange(20))
        assert exc.value.budget_bytes == 100
        assert exc.value.required_bytes > 100

    def test_adaptive_fits_where_lists_oom(self):
        # The Table III Twitter7 mechanism at miniature scale: dense sets as
        # bitmaps fit a budget that sorted vectors exceed.
        n, dense = 4096, np.arange(3000)
        budget = 8 * (n // 8 + 1)  # room for ~8 bitmaps
        ripples = AdaptiveRRRStore(n, policy=None, budget_bytes=budget)
        eimm = AdaptiveRRRStore(n, policy=AdaptivePolicy(), budget_bytes=budget)
        with pytest.raises(OutOfMemoryModelError):
            for _ in range(8):
                ripples.append(dense)
        for _ in range(8):
            eimm.append(dense)
        assert len(eimm) == 8

    def test_to_flat_roundtrip(self):
        s = AdaptiveRRRStore(320)
        s.append(np.array([5, 2, 9]))
        s.append(np.arange(150))
        flat = s.to_flat()
        assert len(flat) == 2
        assert sorted(flat.get(0).tolist()) == [2, 5, 9]
        assert flat.get(1).size == 150

    def test_nbytes_accumulates(self):
        s = AdaptiveRRRStore(1000, policy=None)
        s.append(np.arange(10))
        s.append(np.arange(20))
        assert s.nbytes() == 40 + 80

    def test_getitem_and_iter(self):
        s = AdaptiveRRRStore(100)
        s.append(np.array([1]))
        assert s[0].size == 1
        assert len(list(s)) == 1


class TestPartitionedRRRStore:
    def test_append_routes_to_worker(self):
        s = PartitionedRRRStore(10, 3)
        s.append(0, np.array([1]))
        s.append(2, np.array([2, 3]))
        assert len(s.parts[0]) == 1
        assert len(s.parts[1]) == 0
        assert len(s.parts[2]) == 1
        assert len(s) == 2

    def test_total_entries(self):
        s = PartitionedRRRStore(10, 2)
        s.append(0, np.array([1, 2]))
        s.append(1, np.array([3]))
        assert s.total_entries == 3

    def test_merge_gathers_everything(self):
        s = PartitionedRRRStore(10, 2)
        s.append(0, np.array([1, 2]))
        s.append(1, np.array([3]))
        merged = s.merge()
        assert len(merged) == 2
        assert merged.total_entries == 3

    def test_vertex_counts_match_merged(self):
        s = PartitionedRRRStore(6, 3)
        rng = np.random.default_rng(1)
        for i in range(12):
            s.append(i % 3, rng.integers(0, 6, size=4))
        assert np.array_equal(s.vertex_counts(), s.merge().vertex_counts())

    def test_rejects_zero_workers(self):
        with pytest.raises(ParameterError):
            PartitionedRRRStore(10, 0)

    def test_len_iter_get_agree_with_merge(self):
        """len/iteration/get use worker-concatenated order — merge()'s order."""
        s = PartitionedRRRStore(10, 3)
        rng = np.random.default_rng(5)
        for i in range(11):
            s.append(i % 3, rng.integers(0, 10, size=rng.integers(1, 5)))
        merged = s.merge()
        assert len(s) == len(merged)
        assert len(list(s)) == len(s)
        for i, (mine, via_iter) in enumerate(zip(range(len(s)), s)):
            assert np.array_equal(s.get(i), merged.get(i))
            assert np.array_equal(via_iter, merged.get(i))
        assert s.sizes().tolist() == merged.sizes().tolist()

    def test_append_out_of_range_worker_raises(self):
        s = PartitionedRRRStore(10, 3)
        with pytest.raises(IndexError, match="out of range"):
            s.append(3, np.array([1]))
        with pytest.raises(IndexError, match="out of range"):
            s.append(-1, np.array([1]))
        assert len(s) == 0, "failed append must not land anywhere"

    def test_merge_with_empty_partitions(self):
        """Workers that produced nothing must not shift merged ordering."""
        s = PartitionedRRRStore(10, 4)
        s.append(1, np.array([5]))
        s.append(3, np.array([6, 7]))
        merged = s.merge()
        assert len(merged) == 2
        assert merged.get(0).tolist() == [5]
        assert merged.get(1).tolist() == [6, 7]
        assert s.sizes().tolist() == [1, 2]

    def test_all_empty_round_trip(self):
        s = PartitionedRRRStore(10, 3)
        assert len(s) == 0 and s.total_entries == 0
        assert list(s) == []
        assert s.sizes().tolist() == []
        assert len(s.merge()) == 0
        with pytest.raises(IndexError):
            s.get(0)

    def test_single_partition_degenerate_plan(self):
        """num_workers=1 must behave exactly like a flat store."""
        s = PartitionedRRRStore(10, 1)
        flat = FlatRRRStore(10)
        rng = np.random.default_rng(7)
        for _ in range(9):
            verts = rng.integers(0, 10, size=rng.integers(1, 5))
            s.append(0, verts)
            flat.append(verts)
        assert len(s) == len(flat)
        for i in range(len(s)):
            assert np.array_equal(s.get(i), flat.get(i))
        assert [v.tolist() for v in s] == [v.tolist() for v in flat]
        assert s.sizes().tolist() == flat.sizes().tolist()
        assert np.array_equal(s.merge().vertices, flat.vertices[: flat.total_entries])

    def test_trim_and_capacity_bytes(self):
        s = PartitionedRRRStore(10, 2)
        s.append(0, np.array([1, 2]))
        s.append(1, np.array([3]))
        before = s.capacity_bytes()
        assert s.trim() is s
        after = s.capacity_bytes()
        assert after <= before
        assert after >= s.nbytes() or s.nbytes() == 0
        assert len(s) == 2 and s.total_entries == 3


class TestFlatStoreAccessors:
    def test_trim_releases_slack(self):
        s = FlatRRRStore(100)
        for _ in range(50):
            s.append(np.arange(7))
        assert s.capacity_bytes() > s.nbytes()  # amortised growth left slack
        before = [s.get(i).copy() for i in range(len(s))]
        assert s.trim() is s
        assert s.capacity_bytes() == s.nbytes()
        for i, x in enumerate(before):
            assert np.array_equal(s.get(i), x)
        s.append(np.array([1, 2]))  # still appendable after trim
        assert len(s) == 51

    def test_from_arrays_roundtrip(self):
        s = FlatRRRStore(10)
        s.extend([np.array([3, 1]), np.array([5])])
        s2 = FlatRRRStore.from_arrays(10, s.offsets, s.vertices)
        assert len(s2) == len(s)
        assert np.array_equal(s2.vertices, s.vertices)
        # from_arrays copies: mutating the source store must not alias.
        s.append(np.array([9]))
        assert len(s2) == 2

    @pytest.mark.parametrize(
        "offsets",
        [
            [1, 2],          # does not start at 0
            [0, 3, 2],       # decreasing
            [0, 1],          # does not end at len(vertices)
        ],
    )
    def test_from_arrays_rejects_bad_offsets(self, offsets):
        with pytest.raises(ParameterError):
            FlatRRRStore.from_arrays(
                10,
                np.asarray(offsets, dtype=np.int64),
                np.array([1, 2], dtype=np.int32),
            )

    @pytest.mark.parametrize(
        "vertices,match",
        [
            ([1, 7, 7, 7], "strictly ascending"),  # a duplicated vertex
            ([3, 1, 2, 4], "strictly ascending"),  # a set out of order
            ([1, 2, 4, 5], r"\[0, 5\)"),           # an id past num_vertices
            ([-1, 2, 3, 4], r"\[0, 5\)"),          # a negative id
        ],
    )
    def test_from_arrays_rejects_bad_sets(self, vertices, match):
        with pytest.raises(ParameterError, match=match):
            FlatRRRStore.from_arrays(
                5, np.array([0, 2, 4]), np.array(vertices, dtype=np.int32)
            )


class TestInvertedIndex:
    def make_random(self, seed=0, n=50, sets=60):
        s = FlatRRRStore(n)
        rng = np.random.default_rng(seed)
        for _ in range(sets):
            size = int(rng.integers(0, 12))
            s.append(rng.choice(n, size=size, replace=False))
        return s

    def test_index_matches_linear_scan(self):
        s = self.make_random()
        for v in range(s.num_vertices):
            assert np.array_equal(
                s.sets_containing(v),
                s.sets_containing(v, use_index=False),
            )

    def test_index_built_lazily_and_reused(self):
        s = self.make_random()
        assert s._index is None
        s.sets_containing(0)
        assert s._index is not None
        idx = s._index
        s.sets_containing(3)
        assert s._index is idx  # no rebuild between queries

    def test_out_of_range_vertex_empty(self):
        s = self.make_random()
        assert s.sets_containing(-1).size == 0
        assert s.sets_containing(s.num_vertices).size == 0

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.append(np.array([1, 2])),
            lambda s: s.extend([np.array([3])]),
            lambda s: s.trim(),
            lambda s: s.replace_sets(np.array([0]), [np.array([4])]),
        ],
    )
    def test_mutation_invalidates_index(self, mutate):
        s = self.make_random()
        s.sets_containing(0)
        mutate(s)
        assert s._index is None
        # And the rebuilt index answers correctly post-mutation.
        for v in range(s.num_vertices):
            assert np.array_equal(
                s.sets_containing(v), s.sets_containing(v, use_index=False)
            )

    def test_empty_store(self):
        s = FlatRRRStore(10)
        assert s.sets_containing(3).size == 0


class TestReplaceSets:
    def test_same_size_replacement(self):
        s = FlatRRRStore(10)
        s.extend([np.array([0, 1]), np.array([2, 3]), np.array([4, 5])])
        s.replace_sets(np.array([1]), [np.array([7, 8])])
        assert s.get(0).tolist() == [0, 1]
        assert s.get(1).tolist() == [7, 8]
        assert s.get(2).tolist() == [4, 5]

    def test_size_changing_replacement(self):
        s = FlatRRRStore(10)
        s.extend([np.array([0, 1]), np.array([2, 3]), np.array([4, 5])])
        s.replace_sets(
            np.array([0, 2]), [np.array([9]), np.array([6, 7, 8])]
        )
        assert s.get(0).tolist() == [9]
        assert s.get(1).tolist() == [2, 3]
        assert s.get(2).tolist() == [6, 7, 8]
        assert s.total_entries == 6
        assert s.offsets.tolist() == [0, 1, 3, 6]

    def test_empty_replacement_set(self):
        s = FlatRRRStore(10)
        s.extend([np.array([0, 1]), np.array([2])])
        s.replace_sets(np.array([0]), [np.array([], dtype=np.int32)])
        assert s.get(0).size == 0
        assert s.get(1).tolist() == [2]

    def test_sorts_replacement_sets(self):
        s = FlatRRRStore(10)
        s.append(np.array([1, 2]))
        s.replace_sets(np.array([0]), [np.array([9, 3, 7])])
        assert s.get(0).tolist() == [3, 7, 9]

    def test_no_indices_is_noop(self):
        s = FlatRRRStore(10)
        s.append(np.array([1]))
        assert s.replace_sets(np.array([], dtype=np.int64), []) is s
        assert s.get(0).tolist() == [1]

    def test_vertex_counts_consistent_after_replace(self):
        s = FlatRRRStore(10)
        rng = np.random.default_rng(3)
        for _ in range(20):
            s.append(rng.choice(10, size=4, replace=False))
        s.replace_sets(
            np.array([2, 5, 19]),
            [rng.choice(10, size=k, replace=False) for k in (1, 6, 3)],
        )
        manual = np.bincount(s.vertices, minlength=10)
        assert np.array_equal(s.vertex_counts(), manual)

    @pytest.mark.parametrize(
        "indices,sets",
        [
            (np.array([1, 1]), [np.array([1]), np.array([2])]),  # not increasing
            (np.array([2, 1]), [np.array([1]), np.array([2])]),  # decreasing
            (np.array([5]), [np.array([1])]),                    # out of range
            (np.array([-1]), [np.array([1])]),                   # negative
            (np.array([0]), []),                                 # length mismatch
        ],
    )
    def test_validation(self, indices, sets):
        s = FlatRRRStore(10)
        s.extend([np.array([0]), np.array([1]), np.array([2])])
        with pytest.raises(ParameterError):
            s.replace_sets(indices, sets)

    def test_appendable_after_replace(self):
        s = FlatRRRStore(10)
        s.extend([np.array([0]), np.array([1])])
        s.replace_sets(np.array([0]), [np.array([5, 6])])
        s.append(np.array([7]))
        assert len(s) == 3
        assert s.get(2).tolist() == [7]


class TestStoreProperties:
    @given(
        st.lists(
            st.lists(st.integers(0, 49), min_size=0, max_size=30),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_flat_store_preserves_multiset(self, sets):
        s = FlatRRRStore(50)
        for x in sets:
            s.append(np.asarray(x, dtype=np.int32))
        manual = np.zeros(50, dtype=np.int64)
        for x in sets:
            for v in x:
                manual[v] += 1
        assert np.array_equal(s.vertex_counts(), manual)

    @given(
        st.lists(
            st.lists(st.integers(0, 49), min_size=0, max_size=30),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_offsets_consistent(self, sets):
        s = FlatRRRStore(50)
        for x in sets:
            s.append(np.asarray(x, dtype=np.int32))
        assert s.offsets[-1] == s.total_entries
        assert np.array_equal(np.diff(s.offsets), [len(x) for x in sets])

    @given(
        st.lists(
            st.lists(st.integers(0, 49), min_size=0, max_size=30, unique=True),
            min_size=1, max_size=20,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=50, deadline=None)
    def test_per_set_paths_ignore_input_order(self, sets, rnd):
        """``append`` and ``replace_sets`` fed any permutation of each set
        store the same bytes as when fed it ascending."""

        def shuffled(x):
            return rnd.sample(x, len(x))

        ascending = FlatRRRStore(50)
        ascending.append_csr(
            np.array([v for x in sets for v in sorted(x)], dtype=np.int32),
            np.array([len(x) for x in sets]),
        )
        appended = FlatRRRStore(50)
        for x in sets:
            appended.append(np.array(shuffled(x), dtype=np.int32))
        replaced = FlatRRRStore(50)
        replaced.extend([np.array([0])] * len(sets))
        replaced.replace_sets(
            np.arange(len(sets)),
            [np.array(shuffled(x), dtype=np.int32) for x in sets],
        )
        assert appended.fingerprint() == ascending.fingerprint()
        assert replaced.fingerprint() == ascending.fingerprint()
        np.testing.assert_array_equal(replaced.offsets, ascending.offsets)
