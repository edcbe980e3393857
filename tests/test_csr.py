"""Unit + property tests for the CSR graph core."""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphConstructionError
from repro.graph.csr import CSRGraph
from repro.graph.builder import from_edge_array

from conftest import make_graph


class TestConstruction:
    def test_basic_shape(self, line_graph):
        assert line_graph.num_vertices == 5
        assert line_graph.num_edges == 4

    def test_empty_graph(self, empty_graph):
        assert empty_graph.num_vertices == 0
        assert empty_graph.num_edges == 0

    def test_isolated_vertices(self, isolated_graph):
        assert isolated_graph.num_vertices == 5
        assert isolated_graph.num_edges == 0
        assert np.all(isolated_graph.out_degree() == 0)

    def test_rejects_bad_indptr_shape(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(3, np.array([0, 1]), np.array([0]), np.array([1.0]))

    def test_rejects_decreasing_indptr(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(
                2, np.array([0, 2, 1]), np.array([0, 1]), np.array([1.0, 1.0])
            )

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(2, np.array([0, 1, 2]), np.array([0, 5]), np.ones(2))

    def test_rejects_probability_above_one(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(2, np.array([0, 1, 2]), np.array([1, 0]), np.array([0.5, 1.5]))

    def test_rejects_negative_probability(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(2, np.array([0, 1, 2]), np.array([1, 0]), np.array([0.5, -0.1]))

    @pytest.mark.parametrize("bad", (np.nan, -np.nan, np.inf, -np.inf))
    def test_rejects_non_finite_probability(self, bad):
        with pytest.raises(GraphConstructionError):
            CSRGraph(3, np.array([0, 1, 2, 2]), np.array([1, 2]), np.array([bad, 0.5]))

    def test_rejects_probs_length_mismatch(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(2, np.array([0, 1, 2]), np.array([1, 0]), np.ones(3))

    def test_rejects_edges_in_empty_graph(self):
        with pytest.raises(GraphConstructionError):
            CSRGraph(0, np.array([0]), np.array([0]), np.array([1.0]))

    def test_dtypes_canonicalised(self, line_graph):
        assert line_graph.indptr.dtype == np.int64
        assert line_graph.indices.dtype == np.int32
        assert line_graph.probs.dtype == np.float64


class TestAccessors:
    def test_out_degree_vector(self, star_graph):
        degs = star_graph.out_degree()
        assert degs[0] == 8
        assert np.all(degs[1:] == 0)

    def test_out_degree_scalar(self, star_graph):
        assert star_graph.out_degree(0) == 8
        assert star_graph.out_degree(3) == 0

    def test_neighbors_view_no_copy(self, star_graph):
        nbrs = star_graph.neighbors(0)
        assert nbrs.base is star_graph.indices

    def test_neighbors_content(self, line_graph):
        assert list(line_graph.neighbors(2)) == [3]
        assert list(line_graph.neighbors(4)) == []

    def test_edge_probs_aligned(self, diamond_graph):
        nbrs = diamond_graph.neighbors(0)
        probs = diamond_graph.edge_probs(0)
        got = dict(zip(nbrs.tolist(), probs.tolist()))
        assert got == {1: 1.0, 2: 0.5}

    def test_iter_edges_roundtrip(self, diamond_graph):
        edges = set(diamond_graph.iter_edges())
        assert (0, 2, 0.5) in edges
        assert len(edges) == 4

    def test_edge_array_shapes(self, diamond_graph):
        src, dst, p = diamond_graph.edge_array()
        assert src.shape == dst.shape == p.shape == (4,)
        assert list(src) == [0, 0, 1, 2]

    def test_nbytes_positive(self, line_graph):
        assert line_graph.nbytes() > 0

    def test_equality(self, line_graph):
        other = make_graph([(i, i + 1, 1.0) for i in range(4)], n=5)
        assert line_graph == other

    def test_inequality_on_probs(self, line_graph):
        other = make_graph([(i, i + 1, 0.5) for i in range(4)], n=5)
        assert line_graph != other


class TestTranspose:
    def test_transpose_reverses_edges(self, line_graph):
        rev = line_graph.transpose()
        assert list(rev.neighbors(1)) == [0]
        assert list(rev.neighbors(0)) == []

    def test_transpose_preserves_probs(self, diamond_graph):
        rev = diamond_graph.transpose()
        # Edge (0, 2, 0.5) becomes (2, 0, 0.5).
        idx = list(rev.neighbors(2)).index(0)
        assert rev.edge_probs(2)[idx] == 0.5

    def test_transpose_cached(self, line_graph):
        assert line_graph.transpose() is line_graph.transpose()

    def test_double_transpose_equals_original(self, diamond_graph):
        """The transpose of the transpose equals the graph, and a reverse
        graph keeps no reference to its source, so the source is freed
        without the cycle collector once nothing else holds it."""
        g = CSRGraph(
            diamond_graph.num_vertices, diamond_graph.indptr,
            diamond_graph.indices, diamond_graph.probs,
        )
        rev = g.transpose()
        assert rev.transpose() == g
        source = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert source() is None
        finally:
            gc.enable()
        assert rev.transpose() == diamond_graph

    def test_transpose_degree_sums(self, two_triangles):
        rev = two_triangles.transpose()
        assert rev.num_edges == two_triangles.num_edges
        assert (
            np.asarray(rev.out_degree()).sum()
            == np.asarray(two_triangles.out_degree()).sum()
        )


class TestWithProbs:
    def test_shares_topology(self, line_graph):
        g2 = line_graph.with_probs(np.full(4, 0.3))
        assert g2.indices is not None
        assert np.array_equal(g2.indices, line_graph.indices)
        assert np.all(g2.probs == 0.3)

    def test_rejects_wrong_length(self, line_graph):
        with pytest.raises(GraphConstructionError):
            line_graph.with_probs(np.ones(3))


@st.composite
def random_edge_arrays(draw):
    n = draw(st.integers(min_value=1, max_value=30))
    m = draw(st.integers(min_value=0, max_value=120))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)


class TestPropertyBased:
    @given(random_edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_csr_roundtrips_edges(self, data):
        n, src, dst = data
        g = from_edge_array(src, dst, num_vertices=n)
        back = {(u, v) for u, v, _ in g.iter_edges()}
        expected = {(int(u), int(v)) for u, v in zip(src, dst) if u != v}
        assert back == expected

    @given(random_edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_indptr_invariants(self, data):
        n, src, dst = data
        g = from_edge_array(src, dst, num_vertices=n)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.num_edges
        assert np.all(np.diff(g.indptr) >= 0)

    @given(random_edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_transpose_involution(self, data):
        n, src, dst = data
        g = from_edge_array(src, dst, num_vertices=n)
        gtt = g.transpose().transpose()
        assert {(u, v) for u, v, _ in g.iter_edges()} == {
            (u, v) for u, v, _ in gtt.iter_edges()
        }

    @given(random_edge_arrays())
    @settings(max_examples=60, deadline=None)
    def test_degree_conservation_under_transpose(self, data):
        n, src, dst = data
        g = from_edge_array(src, dst, num_vertices=n)
        rev = g.transpose()
        indeg = np.bincount(g.indices, minlength=n)
        assert np.array_equal(np.asarray(rev.out_degree()), indeg)
