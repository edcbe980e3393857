"""Tests for the Independent Cascade model: forward cascades, and reverse
sets as the kernel draws them over the model's transpose."""

import numpy as np

from repro.diffusion.ic import ICModel, gather_frontier_edges
from repro.kernels import KernelSampler, coin_key, derive_keys, roots_for_indices

from conftest import kernel_sets, make_graph


class TestGatherFrontierEdges:
    def test_single_vertex(self, star_graph):
        nbrs, probs = gather_frontier_edges(star_graph, np.array([0]))
        assert sorted(nbrs.tolist()) == list(range(1, 9))
        assert np.all(probs == 1.0)

    def test_multiple_vertices_concatenate(self, line_graph):
        nbrs, _ = gather_frontier_edges(line_graph, np.array([0, 2]))
        assert sorted(nbrs.tolist()) == [1, 3]

    def test_empty_frontier(self, line_graph):
        nbrs, probs = gather_frontier_edges(line_graph, np.empty(0, dtype=np.int64))
        assert nbrs.size == 0 and probs.size == 0

    def test_leaf_frontier(self, line_graph):
        nbrs, _ = gather_frontier_edges(line_graph, np.array([4]))
        assert nbrs.size == 0

    def test_probs_aligned(self, diamond_graph):
        nbrs, probs = gather_frontier_edges(diamond_graph, np.array([0]))
        got = dict(zip(nbrs.tolist(), probs.tolist()))
        assert got == {1: 1.0, 2: 0.5}

    def test_duplicate_frontier_entries_duplicate_edges(self, star_graph):
        nbrs, _ = gather_frontier_edges(star_graph, np.array([0, 0]))
        assert nbrs.size == 16


class TestReverseSample:
    """Reverse sampling under IC: the kernel's BFS over the model's
    transpose."""

    def test_deterministic_line(self, line_graph):
        # All probabilities 1: reverse reach of vertex 4 is everything.
        [rrr] = kernel_sets(ICModel(line_graph), [4])
        assert rrr.tolist() == [0, 1, 2, 3, 4]

    def test_root_always_included(self, line_graph):
        [rrr] = kernel_sets(ICModel(line_graph), [0])
        assert rrr.tolist() == [0]  # vertex 0 has no in-edges

    def test_zero_probability_blocks(self):
        g = make_graph([(0, 1, 0.0)], n=2)
        assert [s.tolist() for s in kernel_sets(ICModel(g), [1] * 20)] == [[1]] * 20

    def test_no_duplicates(self, cycle_graph):
        for rrr in kernel_sets(ICModel(cycle_graph), range(6)):
            assert np.unique(rrr).size == rrr.size

    def test_respects_direction(self, line_graph):
        # Nothing downstream of 2 can appear in its reverse set.
        [rrr] = kernel_sets(ICModel(line_graph), [2])
        assert set(rrr.tolist()) <= {0, 1, 2}

    def test_epoch_isolation_between_samples(self, cycle_graph):
        # Two draws through one sampler's reused scratch.
        ks = KernelSampler(ICModel(cycle_graph))
        keys = derive_keys(coin_key(0), np.arange(2))
        a = ks.sample_for_roots(np.array([0]), keys[:1])[0]
        b = ks.sample_for_roots(np.array([3]), keys[1:])[0]
        assert 3 in b.tolist()
        assert a.size == b.size == 6  # determinism with p=1 edges

    def test_monte_carlo_probability(self):
        # Single edge with p=0.3: P(0 in RRR(1)) must approach 0.3.
        g = make_graph([(0, 1, 0.3)], n=2)
        hits = sum(rrr.size == 2 for rrr in kernel_sets(ICModel(g), [1] * 4000))
        assert 0.27 < hits / 4000 < 0.33

    def test_dtype(self, cycle_graph):
        assert kernel_sets(ICModel(cycle_graph), [0])[0].dtype == np.int32


class TestForwardSample:
    def test_full_propagation(self, line_graph, rng):
        model = ICModel(line_graph)
        out = model.forward_sample(np.array([0]), rng)
        assert sorted(out.tolist()) == [0, 1, 2, 3, 4]

    def test_seeds_always_active(self, isolated_graph, rng):
        model = ICModel(isolated_graph)
        out = model.forward_sample(np.array([2, 4]), rng)
        assert sorted(out.tolist()) == [2, 4]

    def test_zero_prob_edge_never_fires(self, rng):
        g = make_graph([(0, 1, 0.0)], n=2)
        model = ICModel(g)
        for _ in range(50):
            assert ICModel(g).forward_sample(np.array([0]), rng).tolist() == [0]

    def test_multiple_seeds_union(self, two_triangles, rng):
        model = ICModel(two_triangles)
        out = model.forward_sample(np.array([0, 3]), rng)
        assert sorted(out.tolist()) == [0, 1, 2, 3, 4, 5]

    def test_single_triangle_contained(self, two_triangles, rng):
        model = ICModel(two_triangles)
        out = model.forward_sample(np.array([0]), rng)
        assert set(out.tolist()) == {0, 1, 2}

    def test_monte_carlo_edge_probability(self):
        g = make_graph([(0, 1, 0.4)], n=2)
        model = ICModel(g)
        rng = np.random.default_rng(1)
        hits = sum(
            model.forward_sample(np.array([0]), rng).size == 2
            for _ in range(4000)
        )
        assert 0.36 < hits / 4000 < 0.44


class TestRISEquivalence:
    """RIS's estimator n * Pr[S hits R] needs uniformly random roots."""

    def test_random_root_uniform(self, cycle_graph):
        roots = roots_for_indices(2, np.arange(1200), cycle_graph.num_vertices)
        counts = np.bincount(roots, minlength=6)
        assert counts.min() > 120  # roughly uniform over 6 vertices
