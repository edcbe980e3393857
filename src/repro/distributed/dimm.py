"""Distributed IMM over the simulated cluster.

Maps EfficientIMM's shared-memory design onto ranks exactly the way the
paper's future-work paragraph anticipates:

- **sampling** — theta is block-split across ranks; every rank draws its
  share of RRR sets from its own counter-keyed stream
  (:func:`~repro.kernels.rng.rank_seed`) and keeps them rank-local
  (the distributed analogue of the NUMA-local partitioned layout), fusing
  counter updates into generation (Algorithm 3);
- **counter** — the global vertex-occurrence counter is one
  ``Allreduce_sum`` of the per-rank fused counters;
- **selection** — every rank runs the same greedy rounds SPMD-style
  (:func:`~repro.core.selection.greedy_cover`): the argmax is computed
  redundantly from the (replicated) global counter, each rank retires its
  local sets containing the seed and contributes a local decrement vector;
  one ``Allreduce_sum`` per round merges the deltas.  Per round the wire
  carries exactly one counter-sized reduction — matching the paper's claim
  of "no additional communication compared to Ripples' MPI
  implementation".

Everything executes for real (per-rank numpy state, exact collectives);
the cluster model prices compute (via the node-level
:class:`~repro.simmachine.cost.CostModel`) and communication (alpha-beta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.martingale import MartingaleSchedule
from repro.core.params import IMMParams
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.core.selection import CoverStep, greedy_cover
from repro.diffusion.base import get_model
from repro.distributed.cluster import ClusterTopology
from repro.distributed.comm import CommStats, SimulatedComm
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.kernels.rng import rank_seed
from repro.simmachine.cost import CostModel, RunProfile
from repro.sketch.store import FlatRRRStore

__all__ = ["DistributedIMM", "DistributedResult"]


@dataclass
class DistributedResult:
    """Outcome of one distributed run, with the cost breakdown."""

    seeds: np.ndarray
    coverage_fraction: float
    theta: int
    num_ranks: int
    sets_per_rank: list[int]
    comm: CommStats
    sampling_time_s: float
    selection_compute_s: float

    @property
    def total_time_s(self) -> float:
        return self.sampling_time_s + self.selection_compute_s + self.comm.comm_time_s

    def summary(self) -> str:
        return (
            f"DistributedIMM[{self.num_ranks} ranks] theta={self.theta:,} "
            f"F(S)={self.coverage_fraction:.3f} "
            f"T={self.total_time_s * 1e3:.2f}ms "
            f"(compute {self.sampling_time_s * 1e3:.2f}+"
            f"{self.selection_compute_s * 1e3:.2f}, "
            f"comm {self.comm.comm_time_s * 1e3:.2f})"
        )


class DistributedIMM:
    """IMM across ``cluster.num_nodes`` ranks, ``threads_per_rank`` wide each.

    :meth:`run` and :meth:`_select` serve every distributed framework;
    :class:`~repro.distributed.dripples.DistributedRipples` overrides only
    the three node-local hooks: :meth:`_global_counter`,
    :meth:`_round_ops` and :meth:`_sampling_profile`.
    """

    def __init__(
        self,
        graph: CSRGraph,
        cluster: ClusterTopology,
        *,
        threads_per_rank: int | None = None,
    ):
        self.graph = graph
        self.cluster = cluster
        self.threads_per_rank = (
            cluster.node.num_cores if threads_per_rank is None
            else threads_per_rank
        )
        if not (1 <= self.threads_per_rank <= cluster.node.num_cores):
            raise ParameterError(
                f"threads_per_rank {self.threads_per_rank} outside "
                f"[1, {cluster.node.num_cores}]"
            )
        self._cost = CostModel(cluster.node)

    # ------------------------------------------------------------------ run
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

        def extend_to(theta_total: int) -> None:
            base, extra = divmod(theta_total, ranks)
            for r, sampler in enumerate(samplers):
                sampler.extend(base + (1 if r < extra else 0))

        # ---- estimation loop (SPMD, one reduction per level) -------------
        _, theta, _ = sched.certify(
            lambda theta_i, _level: extend_to(theta_i),
            lambda _level: self._select(samplers, params.k, world)[1],
            params.theta_cap,
        )
        extend_to(max(theta, sum(len(s.store) for s in samplers)))

        # ---- final selection ---------------------------------------------
        seeds, coverage, select_ops = self._select(samplers, params.k, world)

        # ---- price the compute -------------------------------------------
        sampling_s = max(
            self._cost.sampling_time_s(
                self._sampling_profile(s), self.threads_per_rank
            )
            for s in samplers
        )
        selection_s = (
            max(select_ops) / self.threads_per_rank
        ) * self._cost.stream_op_ns * 1e-9

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
        """SPMD greedy max-cover over the rank-local stores.

        :func:`~repro.core.selection.greedy_cover` runs over the global
        counter; each round every rank retires its local sets holding the
        seed and contributes their entries as a decrement vector, merged by
        one counter-sized allreduce.  Returns ``(seeds, coverage_fraction,
        per-rank op counts)``.
        """
        counter, ops = self._global_counter(samplers, world)
        n = counter.size
        steps = [CoverStep(s.store) for s in samplers]
        active = [np.ones(len(s.store), dtype=bool) for s in samplers]
        num_sets = sum(len(s.store) for s in samplers)

        def cover(v: int, counter: np.ndarray) -> int:
            retired = 0
            deltas = []
            for r, step in enumerate(steps):
                uncovered = active[r].copy()
                new_sets = step.retire(v, active[r])
                entries = step.entries(new_sets)
                retired += new_sets.size
                ops[r] += self._round_ops(step.store, uncovered, entries.size)
                deltas.append(np.bincount(entries, minlength=n))
            counter -= world.Allreduce_sum(deltas)
            return retired

        seeds, newly = greedy_cover(counter, k, num_sets, cover)
        coverage = int(newly.sum()) / num_sets if num_sets else 0.0
        return seeds, coverage, ops

    def _global_counter(
        self, samplers: list[RRRSampler], world: SimulatedComm
    ) -> tuple[np.ndarray, list[float]]:
        """The global counter and each rank's ops to build it: one
        allreduce of the fused counters, which sampling already paid for."""
        counter = world.Allreduce_sum([s.counter for s in samplers])
        return counter, [0.0] * len(samplers)

    def _round_ops(
        self, store: FlatRRRStore, uncovered: np.ndarray, covered_entries: int
    ) -> float:
        """One rank's ops in one round, given the local sets uncovered when
        it began: read and decrement each covered entry, plus one probe
        pass."""
        return 2.0 * covered_entries + float(np.log2(max(len(store), 2)))

    def _sampling_profile(self, sampler: RRRSampler) -> RunProfile:
        """Minimal RunProfile for pricing one rank's sampling."""
        return RunProfile(
            framework="EfficientIMM",
            dataset="-",
            model="-",
            n=sampler.store.num_vertices,
            num_sets=len(sampler.store),
            total_entries=sampler.store.total_entries,
            per_set_costs=sampler.costs(),
            sampling_schedule="dynamic",
            numa_aware=True,
        )
