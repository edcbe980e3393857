"""Tests for the Generate_RRRsets sampler and its accounting."""

import numpy as np
import pytest

from repro.core.sampling import (
    RRRSampler,
    SamplingConfig,
    charge_per_set,
    modelled_store_bytes,
)
from repro.diffusion.base import get_model
from repro.errors import OutOfMemoryModelError
from repro.kernels import KernelSampler, coin_key, derive_keys
from repro.runtime.workqueue import simulate_schedule
from repro.sketch.rrr import AdaptivePolicy

from conftest import make_graph


@pytest.fixture
def chain_model():
    g = make_graph([(i, i + 1, 1.0) for i in range(9)], n=10)
    return get_model("IC", g)


def sample_with_cost(model, root):
    """One kernel set from ``root``: ``(vertices, edges examined)``."""
    keys = derive_keys(coin_key(3), np.array([0]))
    flat, _sizes, edges = KernelSampler(model).sample_for_roots(
        np.array([root]), keys
    )
    return flat, int(edges[0])


class TestReverseSampleWithCost:
    """The per-set traversal cost the kernel reports with each set."""

    def test_ic_counts_edges(self, chain_model):
        verts, edges = sample_with_cost(chain_model, 9)
        assert sorted(verts.tolist()) == list(range(10))
        # Chain: each of the 9 in-edges examined exactly once.
        assert edges == 9

    def test_ic_no_inedges(self, chain_model):
        verts, edges = sample_with_cost(chain_model, 0)
        assert verts.tolist() == [0]
        assert edges == 0

    def test_lt_cost_is_path_length(self):
        g = make_graph([(0, 1, 1.0), (1, 2, 1.0)], n=3)
        model = get_model("LT", g)
        verts, cost = sample_with_cost(model, 2)
        assert cost == verts.size


class TestModelledStoreBytes:
    def test_ripples_all_lists(self):
        sizes = np.array([10, 100, 1000])
        assert modelled_store_bytes(sizes, 3200, None) == 4 * 1110

    def test_adaptive_caps_dense_sets(self):
        sizes = np.array([10, 1000])
        policy = AdaptivePolicy()  # threshold 3200/32 = 100
        got = modelled_store_bytes(sizes, 3200, policy)
        assert got == 4 * 10 + 400  # bitmap = 3200/8 bytes

    def test_adaptive_never_worse_than_lists(self):
        rng = np.random.default_rng(0)
        sizes = rng.integers(1, 2000, size=50)
        assert modelled_store_bytes(sizes, 3200, AdaptivePolicy()) <= (
            modelled_store_bytes(sizes, 3200, None)
        )


class TestChargePerSet:
    def test_ripples_charges_full_sort(self):
        edges = np.array([10.0])
        sizes = np.array([8.0])
        got = charge_per_set(edges, sizes, 100, None, fused=False)
        assert got[0] == pytest.approx(10 + 8 + 8 * 3)

    def test_efficientimm_charges_bitmap_build(self):
        edges = np.array([10.0])
        sizes = np.array([50.0])  # above threshold 100/32 = 3
        got = charge_per_set(edges, sizes, 100, AdaptivePolicy(), fused=True)
        assert got[0] == pytest.approx(10 + 50 + 50 + 50)  # + fused counter

    def test_small_sets_sorted_under_adaptive(self):
        edges = np.array([4.0])
        sizes = np.array([2.0])
        got = charge_per_set(edges, sizes, 1000, AdaptivePolicy(), fused=False)
        assert got[0] == pytest.approx(4 + 2 + 2 * 1)


class TestRRRSampler:
    def test_extend_reaches_target(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=0
        )
        sampler.extend(25)
        assert len(sampler.store) == 25
        sampler.extend(40)
        assert len(sampler.store) == 40

    def test_extend_idempotent_at_target(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=0
        )
        sampler.extend(10)
        first = sampler.store.vertices.copy()
        sampler.extend(10)
        assert np.array_equal(sampler.store.vertices, first)

    def test_fused_counter_matches_store(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=1
        )
        sampler.extend(30)
        assert np.array_equal(sampler.counter, sampler.store.vertex_counts())

    def test_unfused_counter_stays_zero(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.ripples(), seed=1
        )
        sampler.extend(10)
        assert not sampler.counter.any()

    def test_store_sets_sorted(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=2
        )
        sampler.extend(5)
        for s in sampler.store:
            assert np.all(np.diff(s) >= 0)

    def test_determinism(self, amazon_ic):
        a = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=3
        )
        b = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=3
        )
        a.extend(12)
        b.extend(12)
        assert np.array_equal(a.store.vertices, b.store.vertices)

    def test_per_thread_stats_cover_all_work(self, amazon_ic):
        # The cost model's schedule of the priced sets assigns all the work.
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=4
        )
        sampler.extend(60)
        costs = sampler.costs()
        sched = simulate_schedule(costs, 4, policy="dynamic")
        assert sched.assignment.shape == costs.shape
        assert float(sched.loads.sum()) == pytest.approx(float(costs.sum()))

    def test_dynamic_schedule_balances(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=5
        )
        sampler.extend(60)
        loads = simulate_schedule(sampler.costs(), 4, policy="dynamic").loads
        assert loads.max() < 2.0 * max(loads.mean(), 1.0)

    def test_memory_budget_raises(self, amazon_ic):
        cfg = SamplingConfig.ripples(memory_budget_bytes=1000)
        sampler = RRRSampler(get_model("IC", amazon_ic), cfg, seed=6)
        with pytest.raises(OutOfMemoryModelError) as exc:
            sampler.extend(50)
        assert exc.value.budget_bytes == 1000
        assert exc.value.required_bytes == sampler.modelled_bytes() > 1000

    def test_adaptive_fits_same_budget(self, amazon_ic):
        # The OOM contrast at sampler level: same workload, same budget.
        budget = 60 * ((amazon_ic.num_vertices + 7) // 8)
        rip = RRRSampler(
            get_model("IC", amazon_ic),
            SamplingConfig.ripples(memory_budget_bytes=budget),
            seed=7,
        )
        eimm = RRRSampler(
            get_model("IC", amazon_ic),
            SamplingConfig.efficientimm(memory_budget_bytes=budget),
            seed=7,
        )
        eimm.extend(50)
        with pytest.raises(OutOfMemoryModelError):
            rip.extend(50)

    def test_rebuild_counter(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.ripples(), seed=9
        )
        sampler.extend(8)
        sampler.rebuild_counter()
        assert np.array_equal(sampler.counter, sampler.store.vertex_counts())

    def test_reset_counter(self, amazon_ic):
        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=10
        )
        sampler.extend(5)
        sampler.reset_counter()
        assert not sampler.counter.any()


class TestSamplerCosts:
    """``RRRSampler.costs`` is the only way a run's sets are priced."""

    @pytest.mark.parametrize("model_name", ("IC", "LT"))
    def test_costs_match_charge_per_set_after_extends(
        self, amazon_ic, amazon_lt, model_name
    ):
        graph = amazon_ic if model_name == "IC" else amazon_lt
        model = get_model(model_name, graph)
        sampler = RRRSampler(model, SamplingConfig.efficientimm(), seed=12)
        for target in (7, 30, 30, 64):
            sampler.extend(target)
        # The same 64 sets drawn whole, straight from the kernel.
        _flat, sizes, edges = KernelSampler(model).sample_indexed(12, 0, 64)
        n = graph.num_vertices
        assert sampler.per_set_edges.dtype == np.int64
        np.testing.assert_array_equal(sampler.per_set_edges, edges)
        np.testing.assert_array_equal(
            sampler.costs(),
            charge_per_set(edges, sizes, n, AdaptivePolicy(), fused=True),
        )
        np.testing.assert_array_equal(
            sampler.costs(SamplingConfig.ripples()),
            charge_per_set(edges, sizes, n, None, fused=False),
        )
