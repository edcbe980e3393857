"""Tests for the Linear Threshold model: forward cascades, and reverse
walks as the kernel draws them over the model's cumulative rows."""

import numpy as np
import pytest

from repro.diffusion.base import get_model
from repro.diffusion.lt import LTModel, _row_cumsum
from repro.errors import ParameterError
from repro.kernels import KernelSampler
from repro.kernels.scalar import lt_steps

from conftest import kernel_sets, make_graph


class TestRowCumsum:
    def test_simple(self):
        g = make_graph([(0, 1, 0.2), (0, 2, 0.3), (1, 2, 0.5)], n=3)
        cum = _row_cumsum(g)
        # Row 0 has two edges (cumsum 0.2, 0.5), row 1 one edge (0.5).
        assert cum == pytest.approx([0.2, 0.5, 0.5])

    def test_empty(self, empty_graph):
        assert _row_cumsum(empty_graph).size == 0

    def test_rows_independent(self):
        g = make_graph([(0, 1, 0.9), (1, 2, 0.1)], n=3)
        assert _row_cumsum(g) == pytest.approx([0.9, 0.1])


class TestReverseSample:
    """Reverse walks under LT: the kernel's walks over the model's
    cumulative in-weight rows, and the reference walk's step order."""

    def test_is_a_path(self):
        # Chain with full weights: the reverse walk from 3 is the whole chain.
        g = make_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)], n=4)
        model = LTModel(g)
        steps = list(lt_steps(model, 3, 0))
        assert [(v, u) for v, u, _fresh in steps] == [(3, 2), (2, 1), (1, 0)]
        assert kernel_sets(model, [3])[0].tolist() == [0, 1, 2, 3]

    def test_stops_without_in_edges(self):
        g = make_graph([(0, 1, 1.0)], n=2)
        model = LTModel(g)
        assert list(lt_steps(model, 0, 0)) == []  # no in-edge, no draw
        assert kernel_sets(model, [0])[0].tolist() == [0]

    def test_no_activation_mass_stops_walk(self):
        g = make_graph([(0, 1, 0.0)], n=2)
        assert [s.tolist() for s in kernel_sets(LTModel(g), [1] * 30)] == [[1]] * 30

    def test_cycle_terminates(self, cycle_graph):
        model = LTModel(cycle_graph)
        # Weight-1 cycle: the walk must wrap once and stop at revisit.
        *_, (v, u, fresh) = lt_steps(model, 0, 0)
        assert (v, u, fresh) == (1, 0, False)
        assert kernel_sets(model, [0])[0].tolist() == list(range(6))

    def test_picks_in_neighbor_proportionally(self):
        # v=2 has in-edges from 0 (w=0.6) and 1 (w=0.2); stop mass 0.2.
        g = make_graph([(0, 2, 0.6), (1, 2, 0.2)], n=3)
        sets = kernel_sets(LTModel(g), [2] * 5000, seed=3)
        picks = {
            u: sum(s.tolist() == want for s in sets)
            for u, want in ((0, [0, 2]), (1, [1, 2]), (None, [2]))
        }
        assert picks[0] / 5000 == pytest.approx(0.6, abs=0.03)
        assert picks[1] / 5000 == pytest.approx(0.2, abs=0.03)
        assert picks[None] / 5000 == pytest.approx(0.2, abs=0.03)

    def test_lt_sets_smaller_than_ic(self, amazon_lt, amazon_ic):
        # The §III observation that motivates everything: LT RRR sets are
        # tiny paths, IC sets are SCC-sized.
        lt = KernelSampler(get_model("LT", amazon_lt)).sample_indexed(7, 0, 30)
        ic = KernelSampler(get_model("IC", amazon_ic)).sample_indexed(7, 0, 30)
        assert lt[1].mean() < 0.05 * ic[1].mean()


class TestForwardSample:
    def test_weight_one_chain_propagates(self, rng):
        g = make_graph([(0, 1, 1.0), (1, 2, 1.0)], n=3)
        model = LTModel(g)
        out = model.forward_sample(np.array([0]), rng)
        assert sorted(out.tolist()) == [0, 1, 2]

    def test_zero_weights_never_activate(self):
        g = make_graph([(0, 1, 0.0)], n=2)
        model = LTModel(g)
        rng = np.random.default_rng(1)
        for _ in range(30):
            assert model.forward_sample(np.array([0]), rng).tolist() == [0]

    def test_threshold_monte_carlo(self):
        # Single edge weight 0.35: P(activate) = P(T_v <= 0.35) = 0.35.
        g = make_graph([(0, 1, 0.35)], n=2)
        model = LTModel(g)
        rng = np.random.default_rng(2)
        hits = sum(
            model.forward_sample(np.array([0]), rng).size == 2
            for _ in range(5000)
        )
        assert hits / 5000 == pytest.approx(0.35, abs=0.02)

    def test_additive_influence(self):
        # v=2 gets 0.5 from each parent: both seeded -> always activates
        # (threshold <= 1 almost surely); one seeded -> ~half the time.
        g = make_graph([(0, 2, 0.5), (1, 2, 0.5)], n=3)
        model = LTModel(g)
        rng = np.random.default_rng(3)
        both = sum(
            2 in model.forward_sample(np.array([0, 1]), rng).tolist()
            for _ in range(2000)
        )
        one = sum(
            2 in model.forward_sample(np.array([0]), rng).tolist()
            for _ in range(2000)
        )
        assert both / 2000 > 0.98
        assert one / 2000 == pytest.approx(0.5, abs=0.04)

    def test_seeds_preserved(self, isolated_graph, rng):
        model = LTModel(isolated_graph)
        assert sorted(
            model.forward_sample(np.array([1, 3]), rng).tolist()
        ) == [1, 3]


class TestFactory:
    def test_get_model_ic(self, amazon_ic):
        assert get_model("ic", amazon_ic).name == "IC"

    def test_get_model_lt(self, amazon_lt):
        assert get_model("lt", amazon_lt).name == "LT"

    def test_get_model_unknown(self, amazon_ic):
        with pytest.raises(ParameterError):
            get_model("SIS", amazon_ic)
