"""Tests for the simulated-cluster distributed IMM extension."""

import numpy as np
import pytest

from repro.core.params import IMMParams
from repro.core.selection import efficient_select
from repro.distributed import (
    DistributedIMM,
    SimulatedComm,
    perlmutter_cluster,
)
from repro.distributed.cluster import ClusterTopology
from repro.errors import ParameterError
from repro.simmachine.topology import perlmutter

from conftest import make_store


class TestClusterTopology:
    def test_preset(self):
        c = perlmutter_cluster(4)
        assert c.num_nodes == 4
        assert c.total_cores == 4 * 128

    def test_rejects_zero_nodes(self):
        with pytest.raises(ParameterError):
            perlmutter_cluster(0)

    def test_single_node_collectives_free(self):
        c = perlmutter_cluster(1)
        assert c.allreduce_s(1_000_000) == 0.0
        assert c.bcast_s(1_000_000) == 0.0

    def test_allreduce_cost_grows_with_nodes(self):
        small = perlmutter_cluster(2).allreduce_s(10**6)
        big = perlmutter_cluster(16).allreduce_s(10**6)
        assert big > small

    def test_allreduce_cost_grows_with_bytes(self):
        c = perlmutter_cluster(4)
        assert c.allreduce_s(10**7) > c.allreduce_s(10**4)

    def test_point_to_point(self):
        c = perlmutter_cluster(2)
        assert c.point_to_point_s(0) == pytest.approx(c.alpha_s)
        assert c.point_to_point_s(25_000_000_000) == pytest.approx(
            c.alpha_s + 1.0, rel=0.01
        )

    def test_rejects_negative_constants(self):
        with pytest.raises(ParameterError):
            ClusterTopology("x", 2, perlmutter(), -1.0, 0.0)


class TestSimulatedComm:
    def setup_method(self):
        self.comm = SimulatedComm(perlmutter_cluster(4))

    def test_allreduce_sum_exact(self):
        bufs = [np.full(5, r, dtype=np.int64) for r in range(4)]
        out = self.comm.Allreduce_sum(bufs)
        assert np.all(out == 0 + 1 + 2 + 3)

    def test_allreduce_does_not_mutate_inputs(self):
        bufs = [np.ones(3, dtype=np.int64) for _ in range(4)]
        self.comm.Allreduce_sum(bufs)
        for b in bufs:
            assert np.all(b == 1)

    def test_allreduce_max(self):
        bufs = [np.array([r, 10 - r]) for r in range(4)]
        out = self.comm.Allreduce_max(bufs)
        assert out.tolist() == [3, 10]

    def test_world_size_checked(self):
        with pytest.raises(ParameterError):
            self.comm.Allreduce_sum([np.ones(2)] * 3)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ParameterError):
            self.comm.Allreduce_sum(
                [np.ones(2), np.ones(3), np.ones(2), np.ones(2)]
            )

    def test_stats_accumulate(self):
        self.comm.Allreduce_sum([np.ones(100, dtype=np.int64)] * 4)
        self.comm.Barrier()
        assert self.comm.stats.num_collectives == 2
        assert self.comm.stats.comm_time_s > 0.0
        assert self.comm.stats.by_kind["allreduce"] == 1
        assert self.comm.stats.by_kind["barrier"] == 1

    def test_gather_copies(self):
        bufs = [np.array([r]) for r in range(4)]
        out = self.comm.Gather(bufs)
        out[0][0] = 99
        assert bufs[0][0] == 0


class TestDistributedIMM:
    @pytest.fixture(scope="class")
    def skitter(self):
        from repro.graph.datasets import load_dataset

        return load_dataset("skitter", model="IC", seed=0)

    def test_seed_count_and_range(self, skitter):
        res = DistributedIMM(skitter, perlmutter_cluster(4)).run(
            IMMParams(k=8, theta_cap=600, seed=1)
        )
        assert res.seeds.size == 8
        assert len(set(res.seeds.tolist())) == 8
        assert res.seeds.max() < skitter.num_vertices

    def test_matches_serial_on_union_store(self, skitter):
        """The distributed greedy must equal a serial greedy over the union
        of all ranks' RRR sets — the collectives change nothing semantically."""
        from repro.distributed import DistributedRipples

        cluster = perlmutter_cluster(3)
        dimm = DistributedIMM(skitter, cluster)
        params = IMMParams(k=6, theta_cap=450, seed=7)

        # Reconstruct the union store from the per-rank keyed seeds.
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model
        from repro.kernels.rng import rank_seed

        res = dimm.run(params)
        sets = []
        for r, count in enumerate(res.sets_per_rank):
            sampler = RRRSampler(
                get_model("IC", skitter),
                SamplingConfig.efficientimm(),
                seed=rank_seed(params.seed, r),
            )
            sampler.extend(count)
            sets.extend(sampler.store)
        serial = efficient_select(make_store(skitter.num_vertices, sets), params.k)
        # The greedy reads only per-vertex counts, so the order the sets
        # are stored in cannot matter: the seed sequence and the coverage
        # are exactly the serial ones, for both frameworks.
        rip = DistributedRipples(skitter, cluster).run(params)
        for got in (res, rip):
            assert got.sets_per_rank == res.sets_per_rank
            assert got.seeds.tolist() == serial.seeds.tolist()
            assert got.coverage_fraction == serial.coverage_fraction

    def test_determinism(self, skitter):
        params = IMMParams(k=5, theta_cap=400, seed=2)
        a = DistributedIMM(skitter, perlmutter_cluster(2)).run(params)
        b = DistributedIMM(skitter, perlmutter_cluster(2)).run(params)
        assert np.array_equal(a.seeds, b.seeds)
        assert a.total_time_s == b.total_time_s

    def test_sets_split_across_ranks(self, skitter):
        res = DistributedIMM(skitter, perlmutter_cluster(4)).run(
            IMMParams(k=4, theta_cap=400, seed=3)
        )
        assert len(res.sets_per_rank) == 4
        assert max(res.sets_per_rank) - min(res.sets_per_rank) <= 1

    def test_comm_grows_with_ranks(self, skitter):
        params = IMMParams(k=6, theta_cap=400, seed=4)
        small = DistributedIMM(skitter, perlmutter_cluster(2)).run(params)
        big = DistributedIMM(skitter, perlmutter_cluster(8)).run(params)
        assert big.comm.comm_time_s > small.comm.comm_time_s

    def test_single_rank_no_comm_cost(self, skitter):
        res = DistributedIMM(skitter, perlmutter_cluster(1)).run(
            IMMParams(k=4, theta_cap=300, seed=5)
        )
        assert res.comm.comm_time_s == 0.0

    def test_sampling_shrinks_with_ranks(self, skitter):
        params = IMMParams(k=4, theta_cap=2000, seed=6)
        one = DistributedIMM(
            skitter, perlmutter_cluster(1), threads_per_rank=16
        ).run(params)
        four = DistributedIMM(
            skitter, perlmutter_cluster(4), threads_per_rank=16
        ).run(params)
        assert four.sampling_time_s < one.sampling_time_s

    def test_rejects_bad_threads_per_rank(self, skitter):
        with pytest.raises(ParameterError):
            DistributedIMM(skitter, perlmutter_cluster(2), threads_per_rank=999)

    @pytest.mark.parametrize("threads", [0, -1, 129])
    def test_rejects_threads_per_rank_outside_node(self, skitter, threads):
        from repro.distributed import DistributedRipples

        for cls in (DistributedIMM, DistributedRipples):
            with pytest.raises(ParameterError, match="outside"):
                cls(skitter, perlmutter_cluster(2), threads_per_rank=threads)

    def test_threads_per_rank_defaults_to_node_cores(self, skitter):
        from repro.distributed import DistributedRipples

        for cls in (DistributedIMM, DistributedRipples):
            assert cls(skitter, perlmutter_cluster(2)).threads_per_rank == 128


class TestDistributedRipples:
    @pytest.fixture(scope="class")
    def skitter(self):
        from repro.graph.datasets import load_dataset

        return load_dataset("skitter", model="IC", seed=0)

    def test_seeds_match_distributed_imm(self, skitter):
        from repro.distributed import DistributedRipples

        params = IMMParams(k=6, theta_cap=450, seed=7)
        cluster = perlmutter_cluster(3)
        a = DistributedIMM(skitter, cluster).run(params)
        b = DistributedRipples(skitter, cluster).run(params)
        assert np.array_equal(a.seeds, b.seeds)
        assert a.coverage_fraction == b.coverage_fraction

    def test_communication_volumes_equal(self, skitter):
        """The paper's §VI claim, asserted: EfficientIMM's distributed
        design adds no communication over Ripples' MPI design."""
        from repro.distributed import DistributedRipples

        params = IMMParams(k=6, theta_cap=450, seed=7)
        cluster = perlmutter_cluster(4)
        a = DistributedIMM(skitter, cluster).run(params)
        b = DistributedRipples(skitter, cluster).run(params)
        assert a.comm.bytes_on_wire == b.comm.bytes_on_wire
        assert a.comm.num_collectives == b.comm.num_collectives

    def test_node_local_work_is_the_difference(self, skitter):
        from repro.distributed import DistributedRipples

        params = IMMParams(k=6, theta_cap=450, seed=7)
        cluster = perlmutter_cluster(2)
        a = DistributedIMM(skitter, cluster, threads_per_rank=16).run(params)
        b = DistributedRipples(skitter, cluster, threads_per_rank=16).run(params)
        # Same wire, slower node-local kernels for Ripples.
        assert b.selection_compute_s > 2.0 * a.selection_compute_s
        assert b.total_time_s > a.total_time_s

    def test_determinism(self, skitter):
        from repro.distributed import DistributedRipples

        params = IMMParams(k=4, theta_cap=300, seed=8)
        cluster = perlmutter_cluster(2)
        a = DistributedRipples(skitter, cluster).run(params)
        b = DistributedRipples(skitter, cluster).run(params)
        assert np.array_equal(a.seeds, b.seeds)
