"""Cross-module property-based invariants (hypothesis).

These go beyond per-module unit tests: each property here spans the whole
pipeline (graph -> sampling -> selection -> result) or ties two subsystems
together (kernels vs cost model, stores vs representations).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EfficientIMM, IMMParams
from repro.core.selection import efficient_select, ripples_select
from repro.graph.builder import from_edge_array
from repro.graph.generators import erdos_renyi
from repro.graph.weights import assign_ic_weights, assign_lt_weights

from conftest import make_store


@st.composite
def small_ic_graph(draw):
    n = draw(st.integers(5, 40))
    m = draw(st.integers(0, 5 * n))
    seed = draw(st.integers(0, 10_000))
    src, dst = erdos_renyi(n, m, seed=seed)
    g = from_edge_array(src, dst, num_vertices=n)
    return assign_ic_weights(g, seed=seed), seed


class TestEndToEndInvariants:
    @given(small_ic_graph(), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_imm_result_wellformed(self, graph_seed, k):
        graph, seed = graph_seed
        k = min(k, graph.num_vertices)
        res = EfficientIMM(graph).run(
            IMMParams(k=k, theta_cap=150, seed=seed)
        )
        assert res.seeds.size == k
        assert len(set(res.seeds.tolist())) == k
        assert 0 <= res.seeds.min() and res.seeds.max() < graph.num_vertices
        assert 0.0 <= res.coverage_fraction <= 1.0
        assert 0.0 <= res.spread_estimate <= graph.num_vertices
        assert res.num_rrrsets >= 1

    @given(small_ic_graph())
    @settings(max_examples=12, deadline=None)
    def test_coverage_monotone_in_k(self, graph_seed):
        graph, seed = graph_seed
        if graph.num_vertices < 4:
            return
        covs = []
        for k in (1, 2, 4):
            res = EfficientIMM(graph).run(
                IMMParams(k=k, theta_cap=120, seed=seed)
            )
            covs.append(res.coverage_fraction)
        assert covs[0] <= covs[1] <= covs[2]

    @given(small_ic_graph(), st.integers(1, 4))
    @settings(max_examples=12, deadline=None)
    def test_kernels_agree_end_to_end(self, graph_seed, k):
        from repro.core import RipplesIMM

        graph, seed = graph_seed
        k = min(k, graph.num_vertices)
        params = IMMParams(k=k, theta_cap=100, seed=seed)
        a = EfficientIMM(graph).run(params)
        b = RipplesIMM(graph).run(params)
        assert np.array_equal(a.seeds, b.seeds)
        assert a.coverage_fraction == b.coverage_fraction


class TestSamplerInvariants:
    @given(small_ic_graph(), st.integers(1, 60))
    @settings(max_examples=15, deadline=None)
    def test_rrr_sets_are_valid(self, graph_seed, count):
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model

        graph, seed = graph_seed
        sampler = RRRSampler(
            get_model("IC", graph),
            SamplingConfig.efficientimm(num_threads=1),
            seed=seed,
        )
        sampler.extend(count)
        assert len(sampler.store) == count
        for s in sampler.store:
            assert s.size >= 1  # the root is always present
            assert len(set(s.tolist())) == s.size  # no duplicates
            assert np.all(np.diff(s) > 0)  # strictly sorted
            assert s.min() >= 0 and s.max() < graph.num_vertices
        # Fused counter equals the exact multiset count.
        assert np.array_equal(sampler.counter, sampler.store.vertex_counts())

    @given(st.integers(0, 5000))
    @settings(max_examples=15, deadline=None)
    def test_lt_walks_are_simple_paths(self, seed):
        from repro.diffusion.base import get_model
        from repro.kernels import KernelSampler, indexed_draws
        from repro.kernels.scalar import lt_steps

        src, dst = erdos_renyi(25, 120, seed=seed)
        g = assign_lt_weights(
            from_edge_array(src, dst, num_vertices=25), seed=seed
        )
        model = get_model("LT", g)
        roots, keys = indexed_draws(seed, np.arange(10), 25)
        flat, sizes, _ = KernelSampler(model).sample_indexed(seed, 0, 10)
        rev = g.transpose()
        for root, key, rrr in zip(roots, keys, np.split(flat, np.cumsum(sizes)[:-1])):
            steps = lt_steps(model, int(root), int(key))
            walk = [int(root)] + [u for _v, u, fresh in steps if fresh]
            assert len(set(walk)) == len(walk)
            # Consecutive pairs are actual reverse edges.
            for a, b in zip(walk[:-1], walk[1:]):
                assert b in rev.neighbors(a)
            # The kernel's set holds exactly the walk's vertices.
            assert rrr.tolist() == sorted(walk)


class TestSelectionCostCoupling:
    @given(
        st.lists(
            st.lists(st.integers(0, 29), min_size=1, max_size=10, unique=True),
            min_size=2, max_size=40,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=30, deadline=None)
    def test_ripples_total_ops_affine_in_threads(self, sets, k):
        """W(p) = A + B*p exactly — the decomposition the cost model uses."""
        store = make_store(30, sets)
        w = {
            p: float(ripples_select(store, k, p).stats.per_thread_ops().sum())
            for p in (1, 2, 3)
        }
        # Affine check: the increment from p=1->2 equals p=2->3.
        assert w[2] - w[1] == pytest.approx(w[3] - w[2], rel=1e-6, abs=1e-6)

    @given(
        st.lists(
            st.lists(st.integers(0, 29), min_size=1, max_size=10, unique=True),
            min_size=2, max_size=40,
        ),
    )
    @settings(max_examples=30, deadline=None)
    def test_efficient_reduction_term_only(self, sets):
        """EfficientIMM's only p-dependent work is the k*n reduction scan."""
        store = make_store(30, sets)
        w1 = float(efficient_select(store, 2, 1).stats.per_thread_ops().sum())
        w4 = float(efficient_select(store, 2, 4).stats.per_thread_ops().sum())
        # The reduction scan contributes n per round regardless of p; all
        # other terms are partitioned.  Totals must be equal.
        assert w4 == pytest.approx(w1, rel=1e-9)


class TestScheduleInvariants:
    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=80),
        st.integers(1, 12),
    )
    @settings(max_examples=40, deadline=None)
    def test_dynamic_never_worse_than_worst_static(self, costs, p):
        from repro.runtime.workqueue import simulate_schedule

        c = np.asarray(costs)
        dyn = simulate_schedule(c, p, policy="dynamic", chunk_size=1)
        # List scheduling is a 2-approximation: makespan <= sum/p + max.
        assert dyn.makespan <= c.sum() / p + c.max() + 1e-9

    @given(
        st.lists(st.floats(0.0, 10.0), min_size=1, max_size=60),
        st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_makespan_lower_bound(self, costs, p):
        from repro.runtime.workqueue import simulate_schedule

        c = np.asarray(costs)
        for policy in ("static", "dynamic", "cyclic"):
            r = simulate_schedule(c, p, policy=policy, chunk_size=2)
            assert r.makespan >= c.sum() / p - 1e-9
            assert r.makespan >= c.max() - 1e-9 if c.size else True


class TestCostModelSanity:
    @given(st.integers(0, 500))
    @settings(max_examples=10, deadline=None)
    def test_times_positive_and_finite(self, seed):
        from repro.simmachine.cost import CostModel, profile_pair
        from repro.simmachine.topology import perlmutter

        src, dst = erdos_renyi(40, 160, seed=seed)
        g = assign_ic_weights(
            from_edge_array(src, dst, num_vertices=40), seed=seed
        )
        profs = profile_pair(g, "x", "IC", k=3, theta_cap=60, seed=seed)
        cm = CostModel(perlmutter())
        for prof in profs.values():
            for p in (1, 8, 128):
                t = cm.total_time_s(prof, p)["Total"]
                assert np.isfinite(t) and t > 0.0
