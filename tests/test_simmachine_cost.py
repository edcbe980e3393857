"""Tests for the cost model and the instrumented trace drivers."""

import numpy as np
import pytest

from repro.core.sampling import RRRSampler, SamplingConfig
from repro.diffusion.base import get_model
from repro.errors import ParameterError
from repro.simmachine.cost import (
    CostModel,
    KernelCost,
    RunProfile,
    profile_pair,
)
from repro.simmachine.instrumented import (
    bitmap_check_shares,
    trace_efficient_selection,
    trace_ripples_selection,
)
from repro.simmachine.topology import perlmutter, ripples_testbed

from conftest import make_store


@pytest.fixture(scope="module")
def profiles(amazon_ic):
    return profile_pair(amazon_ic, "amazon", "IC", k=10, theta_cap=300, seed=0)


class TestKernelCost:
    def test_from_two_runs(self):
        kc = KernelCost.from_two_runs(100.0, 160.0)
        assert kc.replicated_ops == 60.0
        assert kc.partitioned_ops == 40.0

    def test_work_efficient_kernel_has_no_replication(self):
        kc = KernelCost.from_two_runs(100.0, 100.0)
        assert kc.replicated_ops == 0.0
        assert kc.partitioned_ops == 100.0


class TestProfilePair:
    def test_both_frameworks(self, profiles):
        assert set(profiles) == {"Ripples", "EfficientIMM"}

    def test_shared_sampling(self, profiles):
        a, b = profiles["Ripples"], profiles["EfficientIMM"]
        assert a.num_sets == b.num_sets
        assert a.total_entries == b.total_entries

    def test_ripples_replicates_work(self, profiles):
        assert (
            profiles["Ripples"].selection.replicated_ops
            > 10 * profiles["EfficientIMM"].selection.replicated_ops
        )

    def test_efficient_is_work_efficient(self, profiles):
        kc = profiles["EfficientIMM"].selection
        assert kc.replicated_ops < 0.05 * kc.partitioned_ops

    def test_gather_only_for_ripples(self, profiles):
        assert profiles["Ripples"].gather_bytes > 0
        assert profiles["EfficientIMM"].gather_bytes == 0

    def test_adaptive_store_smaller(self, profiles):
        assert (
            profiles["EfficientIMM"].store_bytes
            <= profiles["Ripples"].store_bytes
        )


class TestCostModel:
    def test_rejects_p_outside_machine(self, profiles):
        cm = CostModel(perlmutter())
        with pytest.raises(ParameterError):
            cm.sampling_time_s(profiles["Ripples"], 129)
        cm10 = CostModel(ripples_testbed())
        with pytest.raises(ParameterError):
            cm10.selection_time_s(profiles["Ripples"], 16)

    def test_sampling_time_decreases_with_threads(self, profiles):
        cm = CostModel(perlmutter())
        t1 = cm.sampling_time_s(profiles["EfficientIMM"], 1)
        t16 = cm.sampling_time_s(profiles["EfficientIMM"], 16)
        assert t16 < t1

    def test_efficient_selection_scales(self, profiles):
        cm = CostModel(perlmutter())
        prof = profiles["EfficientIMM"]
        assert cm.selection_time_s(prof, 32) < cm.selection_time_s(prof, 1)

    def test_ripples_selection_saturates(self, profiles):
        # The paper's headline: Ripples' selection stops improving and
        # eventually regresses as p grows.
        cm = CostModel(perlmutter())
        prof = profiles["Ripples"]
        t = {p: cm.selection_time_s(prof, p) for p in (1, 32, 128)}
        assert t[128] > 0.5 * t[32]  # no further scaling at high p

    def test_scaling_curve_structure(self, profiles):
        cm = CostModel(perlmutter())
        curve = cm.scaling_curve(profiles["EfficientIMM"])
        assert curve.thread_counts == (1, 2, 4, 8, 16, 32, 64, 128)
        assert len(curve.times_s) == 8
        assert curve.best_time == min(curve.times_s)

    def test_curve_clamped_to_machine(self, profiles):
        cm = CostModel(ripples_testbed())
        curve = cm.scaling_curve(profiles["Ripples"])
        assert max(curve.thread_counts) <= 10

    def test_efficient_beats_ripples_best(self, profiles):
        cm = CostModel(perlmutter())
        rip = cm.scaling_curve(profiles["Ripples"]).best_time
        eimm = cm.scaling_curve(profiles["EfficientIMM"]).best_time
        assert eimm < rip

    def test_efficient_saturates_later(self, profiles):
        cm = CostModel(perlmutter())
        rip = cm.scaling_curve(profiles["Ripples"]).saturation_threads()
        eimm = cm.scaling_curve(profiles["EfficientIMM"]).saturation_threads()
        assert eimm >= rip

    def test_stage_breakdown_sums(self, profiles):
        cm = CostModel(perlmutter())
        st = cm.total_time_s(profiles["Ripples"], 8)
        assert st["Total"] == pytest.approx(
            st["Generate_RRRsets"]
            + st["Find_Most_Influential_Set"]
            + st["Other"]
        )

    def test_speedup_vs(self, profiles):
        cm = CostModel(perlmutter())
        curve = cm.scaling_curve(profiles["EfficientIMM"])
        s = curve.speedup_vs(curve.times_s[0])
        assert s[0] == pytest.approx(1.0)
        assert s[-1] > 1.0


@pytest.fixture(scope="module")
def small_store(amazon_ic):
    sampler = RRRSampler(
        get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=2
    )
    sampler.extend(60)
    return sampler.store


class TestSelectionTraces:
    def test_seeds_agree_with_real_kernels(self, small_store):
        from repro.core.selection import efficient_select, ripples_select

        topo = perlmutter()
        k = 5
        te = trace_efficient_selection(small_store, k, 2, topo)
        tr = trace_ripples_selection(small_store, k, 2, topo)
        real = efficient_select(small_store, k).seeds[:k]
        assert np.array_equal(te.seeds, real)
        assert np.array_equal(tr.seeds, real)
        assert np.array_equal(ripples_select(small_store, k).seeds[:k], real)

    def test_ripples_misses_dominate(self, small_store):
        topo = perlmutter()
        te = trace_efficient_selection(small_store, 5, 2, topo)
        tr = trace_ripples_selection(small_store, 5, 2, topo)
        assert tr.total_misses > 10 * te.total_misses

    def test_per_thread_counts_present(self, small_store):
        topo = perlmutter()
        te = trace_efficient_selection(small_store, 3, 4, topo)
        assert len(te.per_thread) == 4
        assert te.total.l1_hits + te.total.l1_misses > 0

    def test_more_threads_more_ripples_traffic(self, small_store):
        topo = perlmutter()
        m2 = trace_ripples_selection(small_store, 3, 2, topo).total_misses
        m4 = trace_ripples_selection(small_store, 3, 4, topo).total_misses
        assert m4 > 1.5 * m2

    @pytest.mark.parametrize(
        "trace", [trace_efficient_selection, trace_ripples_selection]
    )
    @pytest.mark.parametrize("sets,k", [
        ([[0, 1], [1, 2], [3]], 0),
        ([[0, 1], [1, 2], [3]], -1),
        ([[0, 1], [1, 2], [3]], 9),
        ([], 2),
    ])
    def test_rejects_what_the_kernels_reject(self, trace, sets, k):
        from repro.core.selection import efficient_select, ripples_select

        store = make_store(5, sets)
        for select in (efficient_select, ripples_select):
            with pytest.raises(ParameterError):
                select(store, k)
        with pytest.raises(ParameterError):
            trace(store, k, 2, perlmutter())


class TestBitmapShares:
    def test_numa_aware_always_cheaper(self):
        topo = perlmutter()
        shares = bitmap_check_shares(8000.0, 2000.0, topo)
        assert shares["numa_aware"].share < shares["original"].share

    def test_shares_in_unit_interval(self):
        topo = perlmutter()
        shares = bitmap_check_shares(500.0, 100.0, topo)
        for arm in shares.values():
            assert 0.0 < arm.share < 1.0

    def test_uniform_memory_machine_smaller_gap(self):
        # On the single-node testbed the two placements differ only by the
        # cache-level constants, not by any remote/contended DRAM term.
        flat = ripples_testbed()
        numa = perlmutter()
        s_flat = bitmap_check_shares(8000.0, 2000.0, flat)
        s_numa = bitmap_check_shares(8000.0, 2000.0, numa)
        gap_flat = s_flat["original"].share - s_flat["numa_aware"].share
        gap_numa = s_numa["original"].share - s_numa["numa_aware"].share
        assert gap_numa > gap_flat
