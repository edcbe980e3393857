"""Tests for RRR-set representations and the adaptive policy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.sketch.rrr import AdaptivePolicy, BitmapRRR, ListRRR, make_rrr


class TestListRRR:
    def test_sorts_input(self):
        r = ListRRR(np.array([5, 1, 3]), 10)
        assert r.vertices().tolist() == [1, 3, 5]

    def test_contains(self):
        r = ListRRR(np.array([2, 4, 6]), 10)
        assert r.contains(4)
        assert not r.contains(5)
        assert not r.contains(9)

    def test_contains_many(self):
        r = ListRRR(np.array([2, 4, 6]), 10)
        got = r.contains_many(np.array([0, 2, 5, 6, 9]))
        assert got.tolist() == [False, True, False, True, False]

    def test_empty(self):
        r = ListRRR(np.array([], dtype=np.int32), 10)
        assert r.size == 0
        assert not r.contains(0)
        assert not r.contains_many(np.array([0, 1])).any()

    def test_nbytes(self):
        assert ListRRR(np.arange(100), 1000).nbytes() == 400

    def test_coverage(self):
        assert ListRRR(np.arange(25), 100).coverage == 0.25


class TestBitmapRRR:
    def test_contains(self):
        r = BitmapRRR(np.array([0, 7, 63]), 64)
        assert r.contains(0) and r.contains(7) and r.contains(63)
        assert not r.contains(1)

    def test_out_of_universe_contains_false(self):
        r = BitmapRRR(np.array([1]), 8)
        assert not r.contains(-1)
        assert not r.contains(8)

    def test_vertices_sorted(self):
        r = BitmapRRR(np.array([9, 3, 7]), 16)
        assert r.vertices().tolist() == [3, 7, 9]

    def test_contains_many(self):
        r = BitmapRRR(np.array([1, 5]), 8)
        assert r.contains_many(np.array([0, 1, 5, 7])).tolist() == [
            False, True, True, False,
        ]

    def test_duplicates_collapse(self):
        r = BitmapRRR(np.array([3, 3, 3]), 8)
        assert r.size == 1

    def test_nbytes_independent_of_size(self):
        a = BitmapRRR(np.array([1]), 1024)
        b = BitmapRRR(np.arange(1000), 1024)
        assert a.nbytes() == b.nbytes() == 128

    def test_rejects_out_of_range(self):
        with pytest.raises(ParameterError):
            BitmapRRR(np.array([8]), 8)


class TestAdaptivePolicy:
    def test_default_threshold_is_memory_crossover(self):
        # 4-byte ids vs n/8-byte bitmap: crossover at n/32.
        p = AdaptivePolicy()
        assert p.threshold(3200) == 100

    def test_choose(self):
        p = AdaptivePolicy(bitmap_fraction=0.1)
        assert p.choose(5, 100) == "list"
        assert p.choose(11, 100) == "bitmap"

    def test_rejects_bad_fraction(self):
        with pytest.raises(ParameterError):
            AdaptivePolicy(bitmap_fraction=0.0)
        with pytest.raises(ParameterError):
            AdaptivePolicy(bitmap_fraction=1.5)

    def test_make_rrr_adaptive_small(self):
        r = make_rrr(np.arange(3), 1000)
        assert r.kind == "list"

    def test_make_rrr_adaptive_dense(self):
        r = make_rrr(np.arange(500), 1000)
        assert r.kind == "bitmap"

    def test_make_rrr_forced_kind(self):
        r = make_rrr(np.arange(500), 1000, kind="list")
        assert r.kind == "list"

    def test_make_rrr_unknown_kind(self):
        with pytest.raises(ParameterError):
            make_rrr(np.arange(3), 10, kind="roaring")

    def test_adaptive_picks_smaller_representation(self):
        # At the threshold the two must cost the same order; beyond it the
        # bitmap must be no larger than the list it replaced.
        n = 3200
        big = make_rrr(np.arange(200), n)
        assert big.kind == "bitmap"
        assert big.nbytes() <= ListRRR(np.arange(200), n).nbytes()


@st.composite
def vertex_sets(draw):
    n = draw(st.integers(8, 200))
    verts = draw(
        st.lists(st.integers(0, n - 1), min_size=0, max_size=n, unique=True)
    )
    return n, np.asarray(verts, dtype=np.int32)


class TestRepresentationEquivalence:
    """Both representations must be observationally identical."""

    @given(vertex_sets())
    @settings(max_examples=80, deadline=None)
    def test_same_vertices(self, data):
        n, verts = data
        lst, bmp = ListRRR(verts, n), BitmapRRR(verts, n)
        assert np.array_equal(lst.vertices(), bmp.vertices())
        assert lst.size == bmp.size

    @given(vertex_sets())
    @settings(max_examples=80, deadline=None)
    def test_same_membership(self, data):
        n, verts = data
        lst, bmp = ListRRR(verts, n), BitmapRRR(verts, n)
        probes = np.arange(n)
        assert np.array_equal(
            lst.contains_many(probes), bmp.contains_many(probes)
        )

    @given(vertex_sets())
    @settings(max_examples=40, deadline=None)
    def test_adaptive_matches_either(self, data):
        n, verts = data
        adaptive = make_rrr(verts, n)
        reference = ListRRR(verts, n)
        assert np.array_equal(adaptive.vertices(), reference.vertices())
