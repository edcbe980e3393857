"""Tests for the flat RRR store."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sketch.store import FlatRRRStore, content_fingerprint

from conftest import csr_sets, make_store, membership_oracle


class TestFlatRRRStore:
    def test_append_and_get(self):
        s = FlatRRRStore(10)
        s.append_csr(np.array([1, 2, 3]), np.array([3]))
        s.append_csr(np.array([7]), np.array([1]))
        assert len(s) == 2
        assert s.get(0).tolist() == [1, 2, 3]
        assert s.get(1).tolist() == [7]

    def test_sorted_mode(self):
        """The store holds sets ascending by refusing any other order; it
        never sorts what it is given."""
        s = make_store(10, [[4, 8]])
        with pytest.raises(ParameterError, match="strictly ascending"):
            s.append_csr(np.array([3, 1, 2]), np.array([3]))
        assert [x.tolist() for x in s] == [[4, 8]]

    def test_growth_preserves_data(self):
        s = FlatRRRStore(1000)
        rng = np.random.default_rng(0)
        sets = [
            np.unique(rng.integers(0, 1000, size=rng.integers(1, 50)))
            for _ in range(200)
        ]
        for x in sets:  # one call per set, so the arrays grow many times
            s.append_csr(x, [x.size])
        for i, x in enumerate(sets):
            assert np.array_equal(s.get(i), x.astype(np.int32))

    def test_sizes(self):
        s = make_store(10, [[1], [2, 3], []])
        assert s.sizes().tolist() == [1, 2, 0]

    def test_vertex_counts(self):
        s = make_store(5, [[0, 1], [1, 2], [1]])
        assert s.vertex_counts().tolist() == [1, 3, 1, 0, 0]

    def test_sets_containing(self):
        s = make_store(5, [[0, 1], [2], [1, 2]])
        assert s.sets_containing(1).tolist() == [0, 2]
        assert s.sets_containing(4).tolist() == []

    def test_index_error(self):
        s = FlatRRRStore(5)
        with pytest.raises(IndexError):
            s.get(0)

    def test_iteration(self):
        s = make_store(5, [[0], [1]])
        assert [x.tolist() for x in s] == [[0], [1]]

    def test_nbytes_logical(self):
        s = make_store(5, [[0, 1, 2]])
        assert s.nbytes() == 3 * 4 + 2 * 8

    def test_empty_set_append(self):
        s = FlatRRRStore(5)
        s.append_csr(np.array([], dtype=np.int32), np.array([0]))
        assert len(s) == 1 and s.get(0).size == 0

    @pytest.mark.parametrize("ascending_input", (False, True))
    def test_append_csr_matches_per_set_appends(self, ascending_input):
        """Batches of ``append_csr`` against a model that appends each set
        to a list; a batch out of order is refused whole first."""
        rng = np.random.default_rng(4)
        sets = [
            rng.permutation(50)[: rng.integers(0, 9)].astype(np.int32)
            for _ in range(40)
        ]
        if ascending_input:
            sets = [np.sort(s) for s in sets]
        model: list[list[int]] = []
        bulk = FlatRRRStore(50)
        for lo in range(0, 40, 13):  # uneven batches across growth steps
            chunk = sets[lo : lo + 13]
            sizes = np.array([s.size for s in chunk])
            if not ascending_input:
                with pytest.raises(ParameterError, match="strictly ascending"):
                    bulk.append_csr(np.concatenate(chunk), sizes)
                assert len(bulk) == len(model)  # the refused batch left nothing
            bulk.append_csr(np.concatenate([np.sort(s) for s in chunk]), sizes)
            model.extend(sorted(s.tolist()) for s in chunk)
        _assert_matches_model(bulk, model)

    @pytest.mark.parametrize(
        "vertices",
        [
            [1, 4, 9, 2, 6, 7, 8, 5],  # one descending pair in the third set
            [1, 4, 9, 2, 6, 7, 7, 8],  # one duplicated pair in the third set
            [1, 4, 9, 6, 2, 7, 8, 9],  # ... at the third set's start
        ],
    )
    def test_append_csr_rejects_unordered_pair(self, vertices):
        s = make_store(10, [[3]])
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


def _assert_matches_model(store, model):
    """``store`` holds exactly ``model``, a list of ascending vertex lists:
    its offsets, entries, fingerprint and vertex counts, each worked out
    from the lists."""
    sizes = [len(x) for x in model]
    flat = [v for x in model for v in x]
    assert store.offsets.tolist() == np.cumsum([0] + sizes).tolist()
    assert store.vertices.tolist() == flat
    assert store.offsets.dtype == np.int64 and store.vertices.dtype == np.int32
    assert store.fingerprint() == content_fingerprint(
        store.num_vertices,
        np.array(sizes, dtype=np.int64),
        np.array(flat, dtype=np.int32),
    )
    counts = [0] * store.num_vertices
    for v in flat:
        counts[v] += 1
    assert store.vertex_counts().tolist() == counts


#: Malformed CSR sets for a 5-vertex store, as ``(vertices, sizes)``.
MALFORMED = {
    "negative-size": ([1, 2], [3, -1]),
    "size-sum": ([1, 2], [3]),
    "out-of-range-id": ([1, 9], [2]),
    "repeated-id": ([1, 1], [2]),
    "out-of-order-id": ([3, 1], [2]),
    "wide-id": ([2**32 + 1], [1]),  # 1 once cast to int32
}

#: Each way a caller writes sets into a flat store.
WRITERS = {
    "append_csr": lambda s, v, z: s.append_csr(v, z),
    "replace_sets": lambda s, v, z: s.replace_sets(np.arange(len(z)), v, z),
    "from_arrays": lambda s, v, z: FlatRRRStore.from_arrays(
        s.num_vertices, np.cumsum([0] + z), v
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_writers_reject_malformed_sets(writer, case):
    """Every writer runs the one check before it writes: a malformed set
    raises and leaves the store byte-identical."""
    s = make_store(5, [[0, 2], [1], [3, 4]])
    before = (s._offsets.copy(), s._verts.copy(), len(s), s.total_entries)
    vertices, sizes = MALFORMED[case]
    with pytest.raises(ParameterError):
        WRITERS[writer](s, np.array(vertices), sizes)
    np.testing.assert_array_equal(s._offsets, before[0])
    np.testing.assert_array_equal(s._verts, before[1])
    assert (len(s), s.total_entries) == before[2:]
    assert s.vertex_counts().tolist() == [1, 1, 1, 1, 1]


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
        s = make_store(30, sets)
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
        expect = make_store(30, [s.get(i) for i in idx])
        assert got.fingerprint() == expect.fingerprint()

    def test_empty_indices(self):
        s = make_store(10, [[1, 2], [3]])
        for idx in (np.array([], dtype=np.int64), []):
            got = s.take(idx)
            assert len(got) == 0 and got.total_entries == 0
            assert got.offsets.tolist() == [0]
        assert len(FlatRRRStore(10).take(np.array([], dtype=np.int64))) == 0

    def test_copy_does_not_alias(self):
        s = make_store(10, [[1, 2], [3]])
        got = s.take(np.array([1, 0]))
        s.replace_sets(np.array([0]), np.array([7]), np.array([1]))
        assert [x.tolist() for x in got] == [[3], [1, 2]]
        got.append_csr(np.array([5]), np.array([1]))  # the cut store grows
        assert len(got) == 3 and len(s) == 2

    @pytest.mark.parametrize("bad", [[-1], [0, -2], [2], [0, 3]])
    def test_rejects_out_of_range(self, bad):
        s = make_store(10, [[1, 2], [3]])
        with pytest.raises(IndexError, match=r"\[0, 2\)"):
            s.take(np.array(bad))


class TestFlatStoreAccessors:
    def test_trim_releases_slack(self):
        s = FlatRRRStore(100)
        for _ in range(50):
            s.append_csr(np.arange(7), np.array([7]))
        assert s.capacity_bytes() > s.nbytes()  # amortised growth left slack
        before = [s.get(i).copy() for i in range(len(s))]
        assert s.trim() is s
        assert s.capacity_bytes() == s.nbytes()
        for i, x in enumerate(before):
            assert np.array_equal(s.get(i), x)
        s.append_csr(np.array([1, 2]), np.array([2]))  # still appendable
        assert len(s) == 51

    def test_from_arrays_roundtrip(self):
        s = make_store(10, [[1, 3], [5]])
        s2 = FlatRRRStore.from_arrays(10, s.offsets, s.vertices)
        assert len(s2) == len(s)
        assert np.array_equal(s2.vertices, s.vertices)
        # from_arrays copies: mutating the source store must not alias.
        s.append_csr(np.array([9]), np.array([1]))
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
    rng = np.random.default_rng(seed)
    return make_store(
        n,
        [rng.choice(n, size=int(rng.integers(0, 12)), replace=False)
         for _ in range(sets)],
    )


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
        _assert_membership(make_store(n, sets), queries)

    def test_duplicate_negative_and_out_of_range_vertices(self):
        s = _random_store()
        _assert_membership(s, [3, -1, 3, s.num_vertices, 7, -50, 10**6, 7])
        assert s.sets_containing(-1).size == 0
        assert s.sets_containing(s.num_vertices).size == 0

    def test_empty_store(self):
        _assert_membership(FlatRRRStore(10), [3, 0, 9, -1])
        assert FlatRRRStore(10).sets_containing(3).size == 0
        _assert_membership(make_store(10, [[]] * 3), [0, 3])

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.append_csr(np.array([1, 2]), np.array([2])),
            lambda s: s.append_csr(np.array([3, 0, 4]), np.array([1, 2])),
            lambda s: s.trim(),
            lambda s: s.replace_sets(np.array([0]), np.array([4]), np.array([1])),
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
        s = make_store(10, [[0, 1], [2, 3], [4, 5]])
        s.replace_sets(np.array([1]), np.array([7, 8]), np.array([2]))
        assert s.get(0).tolist() == [0, 1]
        assert s.get(1).tolist() == [7, 8]
        assert s.get(2).tolist() == [4, 5]

    def test_size_changing_replacement(self):
        s = make_store(10, [[0, 1], [2, 3], [4, 5]])
        s.replace_sets(np.array([0, 2]), np.array([9, 6, 7, 8]), np.array([1, 3]))
        assert s.get(0).tolist() == [9]
        assert s.get(1).tolist() == [2, 3]
        assert s.get(2).tolist() == [6, 7, 8]
        assert s.total_entries == 6
        assert s.offsets.tolist() == [0, 1, 3, 6]

    def test_empty_replacement_set(self):
        s = make_store(10, [[0, 1], [2]])
        s.replace_sets(np.array([0]), np.array([], dtype=np.int32), np.array([0]))
        assert s.get(0).size == 0
        assert s.get(1).tolist() == [2]

    def test_rejects_unsorted_replacement_set(self):
        s = make_store(10, [[1, 2]])
        with pytest.raises(ParameterError, match="strictly ascending"):
            s.replace_sets(np.array([0]), np.array([9, 3, 7]), np.array([3]))
        assert [x.tolist() for x in s] == [[1, 2]]

    def test_no_indices_is_noop(self):
        s = make_store(10, [[1]])
        empty = np.array([], dtype=np.int64)
        assert s.replace_sets(empty, empty, empty) is s
        assert s.get(0).tolist() == [1]

    def test_vertex_counts_consistent_after_replace(self):
        rng = np.random.default_rng(3)
        s = make_store(10, [rng.choice(10, size=4, replace=False) for _ in range(20)])
        s.replace_sets(
            np.array([2, 5, 19]),
            *csr_sets([rng.choice(10, size=k, replace=False) for k in (1, 6, 3)]),
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
        s = make_store(10, [[0], [1], [2]])
        with pytest.raises(ParameterError):
            s.replace_sets(indices, *csr_sets(sets))

    def test_appendable_after_replace(self):
        s = make_store(10, [[0], [1]])
        s.replace_sets(np.array([0]), np.array([5, 6]), np.array([2]))
        s.append_csr(np.array([7]), np.array([1]))
        assert len(s) == 3
        assert s.get(2).tolist() == [7]

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_list_model(self, data):
        """The splice against a list of sorted lists: random stores (empty
        sets included), index subsets that take the first, the last, all
        or any of the sets, and replacements of 0 to n vertices."""
        n = data.draw(st.integers(1, 12), label="n")
        vertex_set = st.lists(st.integers(0, n - 1), unique=True).map(sorted)
        model = data.draw(st.lists(vertex_set, min_size=1, max_size=10), label="sets")
        m = len(model)
        idx = data.draw(
            st.one_of(
                st.just([0]),
                st.just([m - 1]),
                st.just(list(range(m))),
                st.sets(st.integers(0, m - 1)).map(sorted),
            ),
            label="indices",
        )
        new = data.draw(
            st.lists(vertex_set, min_size=len(idx), max_size=len(idx)), label="new"
        )
        s = make_store(n, model)
        vertices = np.array([v for x in new for v in x], dtype=np.int32)
        assert s.replace_sets(np.array(idx), vertices, [len(x) for x in new]) is s
        for i, x in zip(idx, new):
            model[i] = x
        _assert_matches_model(s, model)


class TestStoreProperties:
    @given(
        st.lists(
            st.lists(st.integers(0, 49), min_size=0, max_size=30, unique=True),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_flat_store_preserves_multiset(self, sets):
        s = make_store(50, sets)
        manual = np.zeros(50, dtype=np.int64)
        for x in sets:
            for v in x:
                manual[v] += 1
        assert np.array_equal(s.vertex_counts(), manual)

    @given(
        st.lists(
            st.lists(st.integers(0, 49), min_size=0, max_size=30, unique=True),
            min_size=1, max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_offsets_consistent(self, sets):
        s = make_store(50, sets)
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
    def test_writers_refuse_unsorted_sets(self, sets, rnd):
        """``append_csr``, ``replace_sets`` and ``from_arrays`` fed any
        permutation of each set refuse it unless every set is ascending,
        and then store the same bytes as when fed the sets ascending."""
        shuffled = [rnd.sample(x, len(x)) for x in sets]
        vertices = np.array([v for x in shuffled for v in x], dtype=np.int32)
        sizes = np.array([len(x) for x in sets])
        ascending = make_store(50, sets)
        replaced = make_store(50, [[0]] * len(sets))
        if any(x != sorted(x) for x in shuffled):
            for write in (
                lambda: FlatRRRStore(50).append_csr(vertices, sizes),
                lambda: replaced.replace_sets(np.arange(len(sets)), vertices, sizes),
                lambda: FlatRRRStore.from_arrays(50, ascending.offsets, vertices),
            ):
                with pytest.raises(ParameterError, match="strictly ascending"):
                    write()
        else:
            replaced.replace_sets(np.arange(len(sets)), vertices, sizes)
            assert replaced.fingerprint() == ascending.fingerprint()
            np.testing.assert_array_equal(replaced.offsets, ascending.offsets)
