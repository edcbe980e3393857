"""Tests for the exact Generate_RRRsets memory trace."""

import numpy as np
import pytest

from repro.diffusion.base import get_model
from repro.graph.datasets import load_dataset
from repro.kernels import KernelSampler
from repro.simmachine import instrumented
from repro.simmachine.cache import CacheHierarchy
from repro.simmachine.instrumented import SamplingTraceResult, trace_sampling
from repro.simmachine.layout import MemoryLayout
from repro.simmachine.topology import perlmutter


@pytest.fixture(scope="module")
def google_ic():
    return load_dataset("google", model="IC", seed=0)


class TestTraceSampling:
    def test_basic_counts(self, google_ic):
        res = trace_sampling(google_ic, 6, 2, perlmutter(), seed=1)
        assert res.num_sets == 6
        assert len(res.per_thread) == 2
        total = res.total
        assert total.l1_hits + total.l1_misses > 0

    def test_numa_local_placement_wins(self, google_ic):
        # Table II's direction from exact traces: binding everything to
        # node 0 costs more DRAM time than worker-local placement.
        res = trace_sampling(google_ic, 6, 4, perlmutter(), seed=2)
        assert res.numa_benefit > 1.0
        assert res.dram_ns_bind > res.dram_ns_local

    def test_fused_adds_counter_traffic(self, google_ic):
        unfused = trace_sampling(
            google_ic, 5, 2, perlmutter(), fused=False, seed=3
        )
        fused = trace_sampling(
            google_ic, 5, 2, perlmutter(), fused=True, seed=3
        )
        tot_u = unfused.total
        tot_f = fused.total
        assert (tot_f.l1_hits + tot_f.l1_misses) > (
            tot_u.l1_hits + tot_u.l1_misses
        )

    def test_deterministic(self, google_ic):
        a = trace_sampling(google_ic, 4, 2, perlmutter(), seed=5)
        b = trace_sampling(google_ic, 4, 2, perlmutter(), seed=5)
        assert a.total.total_misses == b.total.total_misses
        assert a.dram_ns_local == b.dram_ns_local

    def test_threads_partition_sets(self, google_ic):
        res = trace_sampling(google_ic, 8, 4, perlmutter(), seed=6)
        # Every thread's cache saw some traffic (2 sets each).
        for c in res.per_thread:
            assert c.l1_hits + c.l1_misses > 0


class TestLTTrace:
    def test_lt_trace_runs(self):
        from repro.graph.datasets import load_dataset

        g = load_dataset("amazon", model="LT", seed=0)
        res = trace_sampling(g, 30, 2, perlmutter(), model="LT", seed=1)
        assert res.num_sets == 30
        assert res.total.l1_hits + res.total.l1_misses > 0

    def test_lt_traffic_far_below_ic(self):
        from repro.graph.datasets import load_dataset

        g_lt = load_dataset("amazon", model="LT", seed=0)
        g_ic = load_dataset("amazon", model="IC", seed=0)
        topo = perlmutter()
        lt = trace_sampling(g_lt, 10, 2, topo, model="LT", seed=2)
        ic = trace_sampling(g_ic, 10, 2, topo, model="IC", seed=2)
        lt_total = lt.total.l1_hits + lt.total.l1_misses
        ic_total = ic.total.l1_hits + ic.total.l1_misses
        # LT sets are tiny paths; per-set traffic is orders below IC's.
        assert lt_total < 0.05 * ic_total


class TestFusedCounterTraffic:
    """The fused trace is the unfused trace plus the set's own counter
    updates: the same sets, then one 8-byte scatter at
    ``counter_base + 8 * v`` per member ``v``."""

    #: Trace seeds whose five sets include walks: IC on google draws sets
    #: of 1 and 3,464 vertices at seed 2, LT on amazon sets of 4, 1, 3, 2
    #: and 3 vertices at seed 11.
    SEEDS = {"IC": 2, "LT": 11}

    @classmethod
    def record(cls, monkeypatch, graph, model, fused):
        """Per-set address streams and members of a 5-set, 1-thread trace
        at the model's seed, and the base address of every region it
        allocates."""
        streams, members, bases = [], [], {}
        access = CacheHierarchy.access
        allocate = MemoryLayout.allocate
        walk = (
            instrumented._traced_ic_bfs if model == "IC"
            else instrumented._traced_lt_walk
        )

        def record_access(self, addrs):
            streams.append(np.array(addrs))
            return access(self, addrs)

        def record_allocate(self, name, nbytes, **kw):
            bases[name] = allocate(self, name, nbytes, **kw)
            return bases[name]

        def record_walk(*args):
            members.append(walk(*args))
            return members[-1]

        with monkeypatch.context() as m:
            m.setattr(CacheHierarchy, "access", record_access)
            m.setattr(MemoryLayout, "allocate", record_allocate)
            m.setattr(instrumented, walk.__name__, record_walk)
            trace_sampling(
                graph, 5, 1, perlmutter(), model=model, fused=fused,
                seed=cls.SEEDS[model],
            )
        return streams, members, bases

    @pytest.mark.parametrize("model,dataset", [("IC", "google"), ("LT", "amazon")])
    def test_counter_updates_are_the_members(self, monkeypatch, model, dataset):
        g = load_dataset(dataset, model=model, seed=0)
        rev = get_model(model, g).reverse_graph
        plain, plain_members, _ = self.record(monkeypatch, g, model, False)
        fused, members, bases = self.record(monkeypatch, g, model, True)
        assert len(plain) == len(fused) == len(members) == 5
        # Some set walks, so the checks below see steps taken.
        assert max(own.size for own in members) >= 3
        n = g.num_vertices
        ctr_lo, ctr_hi = bases["counter"], bases["counter"] + 8 * n
        rrr_lo, rrr_hi = bases["rrr"], bases["rrr"] + 4 * n
        edge_lo = bases["rev_indices"]
        edge_hi = edge_lo + rev.indices.nbytes
        for want, got in zip(plain, fused):
            # The same sets, traced access for access, then counter updates.
            assert np.array_equal(got[: want.size], want)
            tail = got[want.size :]
            assert ((tail >= ctr_lo) & (tail < ctr_hi)).all()
        for want, got, want_own, own in zip(plain, fused, plain_members, members):
            assert np.array_equal(own, want_own)
            # Its counter updates land on its own members, once each.
            assert np.array_equal(
                np.sort(got[want.size :]), np.sort(bases["counter"] + 8 * own)
            )
            # The members are the set the stream built: one RRR-buffer
            # write each, distinct, each reached along an examined row.
            assert ((want >= rrr_lo) & (want < rrr_hi)).sum() == own.size
            assert np.unique(own).size == own.size
            edges = want[(want >= edge_lo) & (want < edge_hi)]
            rows = np.unique(
                np.searchsorted(rev.indptr, (edges - edge_lo) // 4, "right") - 1
            )
            reached = [rev.indices[rev.indptr[r] : rev.indptr[r + 1]] for r in rows]
            assert np.isin(own[1:], np.concatenate([own[:1], *reached])).all()


class TestTracesTheProgramsSets:
    """Set ``i`` of a trace is the set the kernel draws at index ``i``
    under the same seed, whichever thread traces it."""

    @pytest.mark.parametrize("model,dataset", [("IC", "google"), ("LT", "amazon")])
    def test_traced_sets_are_the_kernel_sets(self, monkeypatch, model, dataset):
        g = load_dataset(dataset, model=model, seed=0)
        name = "_traced_ic_bfs" if model == "IC" else "_traced_lt_walk"
        walk = getattr(instrumented, name)
        traced = []

        def record_walk(*args):
            traced.append(walk(*args))
            return traced[-1]

        monkeypatch.setattr(instrumented, name, record_walk)
        trace_sampling(g, 12, 3, perlmutter(), model=model, seed=7)
        flat, sizes, _ = KernelSampler(get_model(model, g)).sample_indexed(7, 0, 12)
        drawn = np.split(flat, np.cumsum(sizes)[:-1])
        assert len(traced) == len(drawn) == 12
        for got, want in zip(traced, drawn):
            assert np.array_equal(np.sort(got), want)
