"""Tests for the flat RRR store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sketch.store import FlatRRRStore

from conftest import membership_oracle


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


class TestTake:
    """``take`` cuts a new store with one gather; per-set ``get`` is the
    reference."""

    @given(
        st.lists(
            st.lists(st.integers(0, 29), min_size=0, max_size=12, unique=True),
            min_size=0, max_size=25,
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_per_set_get(self, sets, data):
        s = FlatRRRStore(30)
        s.extend([np.asarray(x, dtype=np.int32) for x in sets])
        idx = data.draw(
            st.lists(st.integers(0, len(sets) - 1), max_size=30)
            if sets else st.just([])
        )
        got = s.take(np.asarray(idx, dtype=np.int64))
        assert len(got) == len(idx)
        assert got.num_vertices == s.num_vertices
        for j, i in enumerate(idx):
            assert np.array_equal(got.get(j), s.get(i))
        assert got.offsets.dtype == np.int64 and got.vertices.dtype == np.int32
        assert got.capacity_bytes() == got.nbytes()  # no growth slack
        expect = FlatRRRStore(30)
        expect.extend([s.get(i) for i in idx])
        assert got.fingerprint() == expect.fingerprint()

    def test_empty_indices(self):
        s = FlatRRRStore(10)
        s.extend([np.array([1, 2]), np.array([3])])
        for idx in (np.array([], dtype=np.int64), []):
            got = s.take(idx)
            assert len(got) == 0 and got.total_entries == 0
            assert got.offsets.tolist() == [0]
        assert len(FlatRRRStore(10).take(np.array([], dtype=np.int64))) == 0

    def test_copy_does_not_alias(self):
        s = FlatRRRStore(10)
        s.extend([np.array([1, 2]), np.array([3])])
        got = s.take(np.array([1, 0]))
        s.replace_sets(np.array([0]), [np.array([7])])
        assert [x.tolist() for x in got] == [[3], [1, 2]]
        got.append(np.array([5]))  # the cut store grows like any other
        assert len(got) == 3 and len(s) == 2

    @pytest.mark.parametrize("bad", [[-1], [0, -2], [2], [0, 3]])
    def test_rejects_out_of_range(self, bad):
        s = FlatRRRStore(10)
        s.extend([np.array([1, 2]), np.array([3])])
        with pytest.raises(IndexError, match=r"\[0, 2\)"):
            s.take(np.array(bad))


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


def _random_store(seed=0, n=50, sets=60):
    s = FlatRRRStore(n)
    rng = np.random.default_rng(seed)
    for _ in range(sets):
        size = int(rng.integers(0, 12))
        s.append(rng.choice(n, size=size, replace=False))
    return s


def _assert_membership(store, queries):
    """``membership_pairs`` and ``sets_containing`` answer ``queries``
    exactly as :func:`membership_oracle` does."""
    got = store.membership_pairs(np.asarray(queries, dtype=np.int64))
    want = membership_oracle(store, queries)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    for v in queries:
        np.testing.assert_array_equal(
            store.sets_containing(int(v)), membership_oracle(store, [v])[0]
        )


class TestMembershipOracle:
    """The store's membership answers against a pure-Python loop over
    ``store.get(i)``, which shares no code with the store's scan."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_pure_python_loop(self, data):
        n = data.draw(st.integers(0, 20), label="n")
        vertex = st.integers(0, n - 1) if n else st.nothing()
        sets = data.draw(
            st.lists(st.lists(vertex, unique=True), max_size=12), label="sets"
        )
        queries = data.draw(
            st.lists(st.integers(-3, n + 3), max_size=12), label="queries"
        )
        store = FlatRRRStore(n)
        store.extend([np.array(x, dtype=np.int32) for x in sets])
        _assert_membership(store, queries)

    def test_duplicate_negative_and_out_of_range_vertices(self):
        s = _random_store()
        _assert_membership(s, [3, -1, 3, s.num_vertices, 7, -50, 10**6, 7])
        assert s.sets_containing(-1).size == 0
        assert s.sets_containing(s.num_vertices).size == 0

    def test_empty_store(self):
        _assert_membership(FlatRRRStore(10), [3, 0, 9, -1])
        assert FlatRRRStore(10).sets_containing(3).size == 0
        only_empty = FlatRRRStore(10)
        only_empty.extend([np.array([], dtype=np.int32)] * 3)
        _assert_membership(only_empty, [0, 3])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.append(np.array([1, 2])),
            lambda s: s.extend([np.array([3])]),
            lambda s: s.trim(),
            lambda s: s.replace_sets(np.array([0]), [np.array([4])]),
        ],
        ids=["append", "extend", "trim", "replace_sets"],
    )
    def test_answers_after_mutation(self, mutate):
        s = _random_store()
        # Ask first: nothing kept from this answer may outlive the mutation.
        s.membership_pairs(np.arange(s.num_vertices))
        mutate(s)
        _assert_membership(s, range(s.num_vertices))


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
