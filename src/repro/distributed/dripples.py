"""Distributed Ripples: the MPI baseline the paper's claim is measured against.

§VI: "our approach doesn't introduce additional communication compared to
Ripples' MPI implementation".  To make that claim testable, this module
implements the Ripples-style distributed design alongside
:class:`~repro.distributed.dimm.DistributedIMM`:

- sampling: identical rank partitioning of theta (both frameworks split
  samples the same way in MPI mode);
- counter: Ripples has no fused counter, so the initial count is built at
  selection time — every rank counts its local sets into a private
  vector, then one allreduce merges them (same wire bytes as
  EfficientIMM's fused counter reduction);
- selection rounds: identical one-allreduce-per-round delta exchange;
- **the difference is node-local work**: each rank runs the Ripples
  vertex-partitioned kernel over its local sets, with its
  ``threads_per_rank``-fold redundant traversals, rather than
  EfficientIMM's partition-local kernel.

Consequently the communication *volumes* of the two distributed systems
are equal by construction (asserted in tests) and the end-to-end gap is
entirely node-local — exactly the paper's prediction.
"""

from __future__ import annotations

import numpy as np

from repro.core.martingale import MartingaleSchedule
from repro.core.params import IMMParams
from repro.core.sampling import RRRSampler, SamplingConfig, charge_per_set
from repro.core.selection import segmented_membership
from repro.diffusion.base import get_model
from repro.distributed.cluster import ClusterTopology
from repro.distributed.comm import SimulatedComm
from repro.distributed.dimm import DistributedResult, _rank_profile
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.kernels.rng import rank_seed
from repro.simmachine.cost import CostModel

__all__ = ["DistributedRipples"]


class DistributedRipples:
    """Ripples' distributed design on the simulated cluster."""

    def __init__(
        self,
        graph: CSRGraph,
        cluster: ClusterTopology,
        *,
        threads_per_rank: int | None = None,
    ):
        self.graph = graph
        self.cluster = cluster
        self.threads_per_rank = threads_per_rank or cluster.node.num_cores
        if not (1 <= self.threads_per_rank <= cluster.node.num_cores):
            raise ParameterError(
                f"threads_per_rank {self.threads_per_rank} outside "
                f"[1, {cluster.node.num_cores}]"
            )
        self._cost = CostModel(cluster.node)

    def run(self, params: IMMParams | None = None) -> DistributedResult:
        params = params or IMMParams()
        n = self.graph.num_vertices
        world = SimulatedComm(self.cluster)
        ranks = world.size
        samplers = [
            RRRSampler(
                get_model(params.model, self.graph),
                SamplingConfig.efficientimm(num_threads=1),
                seed=rank_seed(params.seed, r),
            )
            for r in range(ranks)
        ]
        sched = MartingaleSchedule.for_run(n, params.k, params.epsilon, params.ell)

        def capped(theta: int) -> int:
            if params.theta_cap is not None:
                return min(theta, params.theta_cap)
            return theta

        def extend_to(theta_total: int) -> None:
            base, extra = divmod(theta_total, ranks)
            for r, sampler in enumerate(samplers):
                sampler.extend(base + (1 if r < extra else 0))

        lb = 1.0
        for level in range(1, sched.max_level + 1):
            theta_i = capped(sched.theta_for_level(level))
            extend_to(theta_i)
            seeds, coverage, _ = self._select(samplers, params.k, world)
            if sched.accepts(level, coverage):
                lb = sched.lower_bound(coverage)
                break
            if params.theta_cap is not None and theta_i >= params.theta_cap:
                lb = max(sched.lower_bound(coverage), 1.0)
                break
        extend_to(
            max(capped(sched.theta_final(lb)),
                sum(len(s.store) for s in samplers))
        )
        seeds, coverage, select_ops = self._select(samplers, params.k, world)

        # Node-local sampling time: Ripples charges the full per-set sort
        # and static scheduling (re-price the shared samples accordingly).
        def ripples_rank_profile(s: RRRSampler):
            prof = _rank_profile(s)
            edges = np.asarray(s.per_set_edges, dtype=np.float64)
            sizes = s.store.sizes().astype(np.float64)
            prof.per_set_costs = charge_per_set(
                edges, sizes, n, None, fused=False
            )
            prof.sampling_schedule = "static"
            prof.numa_aware = False
            return prof

        sampling_s = max(
            self._cost.sampling_time_s(
                ripples_rank_profile(s), self.threads_per_rank
            )
            for s in samplers
        )
        selection_s = (
            max(select_ops)  # already includes the p-fold redundancy
        ) * self._cost.stream_op_ns * 1e-9 / self.threads_per_rank

        return DistributedResult(
            seeds=seeds,
            coverage_fraction=coverage,
            theta=sum(len(s.store) for s in samplers),
            num_ranks=ranks,
            sets_per_rank=[len(s.store) for s in samplers],
            comm=world.stats,
            sampling_time_s=sampling_s,
            selection_compute_s=selection_s,
        )

    # ------------------------------------------------------------- internals
    def _select(
        self,
        samplers: list[RRRSampler],
        k: int,
        world: SimulatedComm,
    ) -> tuple[np.ndarray, float, list[float]]:
        """SPMD greedy with Ripples' node-local kernel accounting.

        Communication structure is identical to DistributedIMM._select —
        one counter-sized allreduce for the initial count plus one per
        round — but each rank's local op count carries the
        ``threads_per_rank``-fold redundant traversal of its local sets.
        """
        n = self.graph.num_vertices
        ranks = len(samplers)
        p_local = self.threads_per_rank
        stores = [s.store for s in samplers]
        active = [np.ones(len(st), dtype=bool) for st in stores]
        num_sets_total = sum(len(st) for st in stores)
        chosen = np.zeros(n, dtype=bool)
        seeds = np.empty(min(k, n), dtype=np.int64)
        covered_total = 0
        ops = [0.0] * ranks

        # Initial counting: every local thread scans all local entries.
        locals_ = []
        for r, st in enumerate(stores):
            locals_.append(st.vertex_counts())
            ops[r] += p_local * st.total_entries
        counter = world.Allreduce_sum(locals_)

        log_sizes = [
            np.log2(np.maximum(st.sizes(), 2)) for st in stores
        ]
        for rnd in range(seeds.size):
            v = int(np.argmax(counter))
            seeds[rnd] = v
            chosen[v] = True
            deltas = []
            for r, st in enumerate(stores):
                new_local = segmented_membership(st, v, active[r])
                # Every local thread probes every remaining local set.
                ops[r] += p_local * float(log_sizes[r][active[r]].sum())
                active[r][new_local] = False
                covered_total += new_local.size
                delta = np.zeros(n, dtype=np.int64)
                for s_id in new_local.tolist():
                    seg = st.get(s_id)
                    np.add.at(delta, seg.astype(np.int64), 1)
                    # Every local thread re-reads every covered set.
                    ops[r] += p_local * seg.size + seg.size
                deltas.append(delta)
            merged = world.Allreduce_sum(deltas)
            counter -= merged
            counter[chosen] = -1
            if covered_total >= num_sets_total and rnd + 1 < seeds.size:
                fill = np.flatnonzero(~chosen)[: seeds.size - rnd - 1]
                seeds[rnd + 1 : rnd + 1 + fill.size] = fill
                break

        coverage = covered_total / num_sets_total if num_sets_total else 0.0
        return seeds, coverage, ops
