"""Tests for the IMM driver and the two framework facades."""

import dataclasses

import numpy as np
import pytest

from repro.core import EfficientIMM, IMMParams, RipplesIMM
from repro.errors import OutOfMemoryModelError, ParameterError


class TestIMMParams:
    def test_defaults_match_paper(self):
        p = IMMParams()
        assert p.k == 50 and p.epsilon == 0.5

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            IMMParams(epsilon=0.0)
        with pytest.raises(ValueError):
            IMMParams(epsilon=1.5)

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            IMMParams(k=0)

    def test_rejects_bad_model(self):
        with pytest.raises(ParameterError):
            IMMParams(model="SIR")

    def test_rejects_zero_threads(self):
        # The one emulated thread count a run takes; the sampler takes none.
        with pytest.raises(ParameterError, match="num_threads"):
            IMMParams(num_threads=0)

    def test_rejects_bad_theta_cap(self):
        with pytest.raises(ParameterError):
            IMMParams(theta_cap=0)

    def test_rejects_bad_ell(self):
        with pytest.raises(ParameterError):
            IMMParams(ell=0.0)


@pytest.fixture(scope="module")
def amazon_run():
    from repro.graph.datasets import load_dataset

    g = load_dataset("amazon", model="IC", seed=0)
    params = IMMParams(k=8, epsilon=0.5, theta_cap=600, seed=1, num_threads=4)
    return g, params, EfficientIMM(g).run(params), RipplesIMM(g).run(params)


class TestEndToEnd:
    def test_seed_count(self, amazon_run):
        _, params, eimm, rip = amazon_run
        assert eimm.seeds.size == params.k
        assert rip.seeds.size == params.k

    def test_seeds_unique_and_in_range(self, amazon_run):
        g, _, eimm, _ = amazon_run
        assert len(set(eimm.seeds.tolist())) == eimm.seeds.size
        assert eimm.seeds.min() >= 0 and eimm.seeds.max() < g.num_vertices

    def test_frameworks_agree_on_seeds(self, amazon_run):
        # Same store (same seed) -> the two kernels must pick identically.
        _, _, eimm, rip = amazon_run
        assert np.array_equal(eimm.seeds, rip.seeds)

    def test_coverage_and_spread(self, amazon_run):
        g, _, eimm, _ = amazon_run
        assert 0.0 < eimm.coverage_fraction <= 1.0
        assert eimm.spread_estimate == pytest.approx(
            g.num_vertices * eimm.coverage_fraction
        )

    def test_stage_times_recorded(self, amazon_run):
        _, _, eimm, _ = amazon_run
        assert "Generate_RRRsets" in eimm.times.stages
        assert "Find_Most_Influential_Set" in eimm.times.stages
        assert eimm.times.total > 0

    def test_kernel_stats_recorded(self, amazon_run):
        _, params, eimm, rip = amazon_run
        for res in (eimm, rip):
            assert set(res.stats) == {"Find_Most_Influential_Set"}
            for ks in res.stats.values():
                assert ks.num_threads == params.num_threads

    def test_ripples_selection_traffic_larger(self, amazon_run):
        _, _, eimm, rip = amazon_run
        assert (
            rip.stats["Find_Most_Influential_Set"].total_memory_ops
            > 3.0 * eimm.stats["Find_Most_Influential_Set"].total_memory_ops
        )

    def test_adaptive_store_smaller(self, amazon_run):
        _, _, eimm, rip = amazon_run
        assert eimm.rrr_store_bytes < rip.rrr_store_bytes

    def test_theta_reported(self, amazon_run):
        _, params, eimm, _ = amazon_run
        assert 1 <= eimm.theta <= params.theta_cap
        assert eimm.num_rrrsets >= eimm.theta or eimm.num_rrrsets == params.theta_cap

    def test_summary_renders(self, amazon_run):
        _, _, eimm, _ = amazon_run
        s = eimm.summary()
        assert "IMM[IC]" in s and "theta" in s


class TestDeterminism:
    def test_same_seed_same_result(self, amazon_ic):
        params = IMMParams(k=5, theta_cap=300, seed=7)
        a = EfficientIMM(amazon_ic).run(params)
        b = EfficientIMM(amazon_ic).run(params)
        assert np.array_equal(a.seeds, b.seeds)
        assert a.theta == b.theta

    def test_different_seed_usually_differs(self, amazon_ic):
        a = EfficientIMM(amazon_ic).run(IMMParams(k=5, theta_cap=300, seed=1))
        b = EfficientIMM(amazon_ic).run(IMMParams(k=5, theta_cap=300, seed=2))
        # Top seeds are hubs and may coincide; the full state rarely does.
        assert not np.array_equal(a.seeds, b.seeds) or a.num_rrrsets != b.num_rrrsets

    def test_num_threads_does_not_change_seeds(self, amazon_ic):
        a = EfficientIMM(amazon_ic).run(
            IMMParams(k=5, theta_cap=300, seed=3, num_threads=1)
        )
        b = EfficientIMM(amazon_ic).run(
            IMMParams(k=5, theta_cap=300, seed=3, num_threads=8)
        )
        assert np.array_equal(a.seeds, b.seeds)


class TestLTModel:
    def test_lt_end_to_end(self, amazon_lt):
        res = EfficientIMM(amazon_lt).run(
            IMMParams(k=5, model="LT", theta_cap=2000, seed=0)
        )
        assert res.seeds.size == 5
        assert res.coverage_fraction > 0.0

    def test_lt_frameworks_agree(self, amazon_lt):
        params = IMMParams(k=5, model="LT", theta_cap=1500, seed=4)
        a = EfficientIMM(amazon_lt).run(params)
        b = RipplesIMM(amazon_lt).run(params)
        assert np.array_equal(a.seeds, b.seeds)


class TestUncappedSmallGraph:
    def test_full_martingale_path(self):
        # Small enough that the real (uncapped) theta is tractable: the
        # estimation loop, LB certification, and top-up all execute.
        from repro.graph.builder import from_edge_array
        from repro.graph.generators import erdos_renyi
        from repro.graph.weights import assign_ic_weights

        src, dst = erdos_renyi(60, 240, seed=5)
        g = assign_ic_weights(
            from_edge_array(src, dst, num_vertices=60), seed=5
        )
        res = EfficientIMM(g).run(IMMParams(k=3, epsilon=0.9, seed=0))
        assert res.seeds.size == 3
        assert res.opt_lower_bound >= 1.0
        assert not res.theta_capped
        assert res.num_rrrsets >= res.theta


class TestThetaCappedField:
    def test_capped_flag_survives_replace(self, amazon_ic):
        res = EfficientIMM(amazon_ic).run(IMMParams(k=3, theta_cap=200, seed=0))
        assert res.theta_capped
        assert dataclasses.replace(res).theta_capped
        assert dataclasses.asdict(res)["theta_capped"] is True


class TestOOM:
    def test_ripples_oom_with_budget(self, amazon_ic):
        algo = RipplesIMM(amazon_ic, memory_budget_bytes=20_000)
        with pytest.raises(OutOfMemoryModelError):
            algo.run(IMMParams(k=3, theta_cap=400, seed=0))

    def test_efficientimm_survives_same_budget(self, amazon_ic):
        budget = 80 * ((amazon_ic.num_vertices + 7) // 8)
        res = EfficientIMM(amazon_ic, memory_budget_bytes=budget).run(
            IMMParams(k=3, theta_cap=70, seed=0)
        )
        assert res.seeds.size == 3
        with pytest.raises(OutOfMemoryModelError):
            RipplesIMM(amazon_ic, memory_budget_bytes=budget).run(
                IMMParams(k=3, theta_cap=70, seed=0)
            )


class TestAblationToggles:
    def test_all_toggles_same_seeds(self, amazon_ic):
        params = IMMParams(k=4, theta_cap=250, seed=6)
        base = EfficientIMM(amazon_ic).run(params).seeds
        for kwargs in (
            {"fused_kernels": False},
            {"adaptive_update": False},
            {"adaptive_representation": False},
        ):
            got = EfficientIMM(amazon_ic, **kwargs).run(params).seeds
            assert np.array_equal(got, base), kwargs

    def test_fusion_reduces_selection_work(self, amazon_ic):
        params = IMMParams(k=4, theta_cap=250, seed=6)
        fused = EfficientIMM(amazon_ic, fused_kernels=True).run(params)
        unfused = EfficientIMM(amazon_ic, fused_kernels=False).run(params)
        assert (
            fused.stats["Find_Most_Influential_Set"].total_memory_ops
            < unfused.stats["Find_Most_Influential_Set"].total_memory_ops
        )
