"""Distributed Ripples: the MPI baseline the paper's claim is measured against.

§VI: "our approach doesn't introduce additional communication compared to
Ripples' MPI implementation".  To make that claim testable, this module
implements the Ripples-style distributed design as a subclass of
:class:`~repro.distributed.dimm.DistributedIMM`.  It shares that driver's
``run`` and ``_select`` — identical rank partitioning of theta, the same
greedy rounds and the same one-allreduce-per-round delta exchange — and
overrides only the three node-local hooks:

- ``_global_counter``: Ripples has no fused counter, so the initial count
  is built at selection time — every rank's threads recount its local
  sets, then one allreduce merges them (same wire bytes as EfficientIMM's
  fused counter reduction);
- ``_round_ops``: each rank runs the Ripples vertex-partitioned kernel
  over its local sets, with its ``threads_per_rank``-fold redundant
  traversals, rather than EfficientIMM's partition-local kernel;
- ``_sampling_profile``: the shared samples are re-priced with the full
  per-set sort, static scheduling and no NUMA awareness.

Consequently the communication *volumes* of the two distributed systems
are equal by construction (asserted in tests) and the end-to-end gap is
entirely node-local — exactly the paper's prediction.
"""

from __future__ import annotations

import numpy as np

from repro.core.sampling import RRRSampler, SamplingConfig
from repro.distributed.comm import SimulatedComm
from repro.distributed.dimm import DistributedIMM
from repro.simmachine.cost import RunProfile
from repro.sketch.store import FlatRRRStore

__all__ = ["DistributedRipples"]


class DistributedRipples(DistributedIMM):
    """Ripples' distributed design on the simulated cluster."""

    def _global_counter(
        self, samplers: list[RRRSampler], world: SimulatedComm
    ) -> tuple[np.ndarray, list[float]]:
        """Every local thread scans all local entries, then one allreduce."""
        stores = [s.store for s in samplers]
        ops = [float(self.threads_per_rank * st.total_entries) for st in stores]
        return world.Allreduce_sum([st.vertex_counts() for st in stores]), ops

    def _round_ops(
        self, store: FlatRRRStore, uncovered: np.ndarray, covered_entries: int
    ) -> float:
        """Every local thread probes every uncovered local set, then
        re-reads every covered set; the owning thread decrements."""
        p = self.threads_per_rank
        probes = float(np.log2(np.maximum(store.sizes()[uncovered], 2)).sum())
        return p * probes + (p + 1) * covered_entries

    def _sampling_profile(self, sampler: RRRSampler) -> RunProfile:
        """Ripples charges the full per-set sort and static scheduling."""
        prof = super()._sampling_profile(sampler)
        prof.per_set_costs = sampler.costs(SamplingConfig.ripples())
        prof.sampling_schedule = "static"
        prof.numa_aware = False
        return prof
