"""Edge-case and failure-injection tests across module boundaries.

Everything here is about the awkward inputs: single-vertex graphs, k = n,
epsilon at the domain edge, empty structures, corrupted blobs — the paths a
production library must survive.
"""

import numpy as np
import pytest

from repro.core import EfficientIMM, IMMParams, RipplesIMM
from repro.core.selection import efficient_select, ripples_select
from repro.diffusion.base import get_model
from repro.errors import ParameterError, ReproError
from repro.graph.builder import from_edge_array

from conftest import kernel_sets, make_graph, make_store


class TestDegenerateGraphs:
    def test_single_vertex_imm(self):
        g = make_graph([], n=1)
        res = EfficientIMM(g).run(IMMParams(k=1, theta_cap=50, seed=0))
        assert res.seeds.tolist() == [0]
        assert res.coverage_fraction == 1.0

    def test_two_vertices_no_edges(self):
        g = make_graph([], n=2)
        res = EfficientIMM(g).run(IMMParams(k=2, theta_cap=50, seed=0))
        assert sorted(res.seeds.tolist()) == [0, 1]

    def test_k_equals_n(self):
        g = make_graph([(0, 1, 0.5), (1, 2, 0.5)], n=3)
        res = EfficientIMM(g).run(IMMParams(k=3, theta_cap=100, seed=0))
        assert sorted(res.seeds.tolist()) == [0, 1, 2]

    def test_k_above_n_rejected(self):
        g = make_graph([(0, 1, 0.5)], n=2)
        with pytest.raises(ReproError):
            EfficientIMM(g).run(IMMParams(k=3, theta_cap=10, seed=0))

    def test_all_zero_probabilities(self):
        g = make_graph([(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)], n=3)
        res = EfficientIMM(g).run(IMMParams(k=1, theta_cap=100, seed=0))
        # No edge ever fires: every RRR set is a singleton; the most
        # frequent root wins and the estimate is ~1 vertex.
        assert res.spread_estimate <= g.num_vertices

    def test_self_influence_only_lt(self):
        g = make_graph([(0, 1, 0.0)], n=2)
        from repro.graph.weights import assign_lt_weights

        weighted = assign_lt_weights(g, seed=0)
        res = EfficientIMM(weighted).run(
            IMMParams(k=1, model="LT", theta_cap=100, seed=0)
        )
        assert res.seeds.size == 1

    def test_dense_complete_graph(self):
        edges = [(i, j, 1.0) for i in range(8) for j in range(8) if i != j]
        g = make_graph(edges, n=8)
        res = EfficientIMM(g).run(IMMParams(k=2, theta_cap=100, seed=0))
        # Probability-1 complete graph: one seed reaches everything.
        assert res.coverage_fraction == 1.0
        assert res.spread_estimate == 8.0


class TestEpsilonExtremes:
    def test_epsilon_near_one(self, amazon_ic):
        res = EfficientIMM(amazon_ic).run(
            IMMParams(k=3, epsilon=0.99, theta_cap=5000, seed=0)
        )
        assert res.seeds.size == 3
        # Loose epsilon needs few samples: the cap must not bind.
        assert not res.theta_capped

    def test_tight_epsilon_needs_more_samples(self, amazon_ic):
        loose = EfficientIMM(amazon_ic).run(
            IMMParams(k=3, epsilon=0.9, theta_cap=100_000, seed=0)
        )
        tight = EfficientIMM(amazon_ic).run(
            IMMParams(k=3, epsilon=0.45, theta_cap=100_000, seed=0)
        )
        assert tight.theta > loose.theta

    def test_epsilon_domain(self):
        with pytest.raises(ValueError):
            IMMParams(epsilon=0.0)
        IMMParams(epsilon=1.0)  # boundary allowed


class TestSelectionDegenerates:
    def test_all_identical_sets(self):
        s = make_store(6, [[2, 4]] * 10)
        res = efficient_select(s, 2)
        assert res.seeds[0] == 2  # lowest id of the tie
        assert res.coverage_fraction == 1.0

    def test_all_singleton_sets(self):
        s = make_store(5, [[v] for v in [0, 1, 1, 2, 2, 2]])
        res = efficient_select(s, 3)
        assert res.seeds.tolist()[:3] == [2, 1, 0]

    def test_sets_larger_than_k_vertices(self):
        s = make_store(4, [[0, 1, 2, 3]])
        res = ripples_select(s, 4)
        assert sorted(res.seeds.tolist()) == [0, 1, 2, 3]

    def test_one_empty_set_among_real_ones(self):
        s = make_store(4, [[], [1]])
        res = efficient_select(s, 1)
        assert res.seeds[0] == 1
        assert res.coverage_fraction == 0.5  # the empty set is uncoverable


class TestCorruptedInputs:
    def test_huffman_decode_truncated_blob(self):
        from repro.sketch.compress import HuffmanCodec

        codec = HuffmanCodec(np.array([5, 3, 2, 1]))
        blob = codec.encode(np.array([0, 1, 2, 3, 0, 1]))
        with pytest.raises((ParameterError, IndexError)):
            codec.decode(blob[:5] + b"")

    def test_npz_load_of_garbage_file(self, tmp_path):
        from repro.graph.io import load_npz

        p = tmp_path / "junk.npz"
        p.write_bytes(b"this is not a zip archive")
        with pytest.raises(Exception):
            load_npz(p)

    def test_snap_reader_binary_garbage(self, tmp_path):
        from repro.errors import GraphFormatError
        from repro.graph.io import read_snap_edgelist

        p = tmp_path / "junk.txt"
        p.write_text("\x00\x01 \x02garbage\n")
        with pytest.raises(GraphFormatError):
            read_snap_edgelist(p)


class TestNumericalRobustness:
    def test_probability_exactly_one_and_zero(self):
        g = make_graph([(0, 1, 1.0), (1, 2, 0.0)], n=3)
        sets = kernel_sets(get_model("IC", g), np.repeat([2, 1], 20))
        assert [s.tolist() for s in sets] == [[2]] * 20 + [[0, 1]] * 20

    def test_huge_theta_cap_is_fine(self, amazon_ic):
        # A cap far above what the run needs must behave like no cap.
        res = EfficientIMM(amazon_ic).run(
            IMMParams(k=2, epsilon=0.99, theta_cap=10**9, seed=0)
        )
        assert res.seeds.size == 2

    def test_martingale_large_n_no_overflow(self):
        from repro.core.martingale import MartingaleSchedule

        s = MartingaleSchedule.for_run(41_652_230, 50, 0.5, 1.0)  # Twitter7
        assert np.isfinite(s.lambda_star_)
        assert s.theta_final(s.lower_bound(0.6)) > 0

    def test_frameworks_agree_on_degenerate_graph(self):
        g = make_graph([(0, 1, 0.7), (2, 3, 0.7)], n=4)
        params = IMMParams(k=2, theta_cap=300, seed=1)
        a = EfficientIMM(g).run(params)
        b = RipplesIMM(g).run(params)
        assert np.array_equal(a.seeds, b.seeds)
