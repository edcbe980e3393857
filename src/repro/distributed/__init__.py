"""Distributed-memory IMM: the paper's §VI future-work direction, built out.

The paper closes with: *"While our work concentrates on shared-memory
optimization, it can be extended to distributed memory settings using MPI.
Since our approach doesn't introduce additional communication compared to
Ripples' MPI implementation, exploring an MPI extension is a promising
direction for future work."*

This package explores exactly that extension on a **simulated cluster**
(no real MPI runs in this environment — see DESIGN.md's substitution
rules):

- :mod:`repro.distributed.cluster` — cluster topology (nodes x the paper's
  Perlmutter CPU node) with an alpha-beta interconnect model;
- :mod:`repro.distributed.comm` — a bulk-synchronous simulated communicator
  with mpi4py-shaped collectives (``allreduce``, ``gather``, ``bcast``)
  that executes them for real on per-rank numpy buffers while pricing the
  wire traffic;
- :mod:`repro.distributed.dimm` — distributed IMM: theta is split across
  ranks, each rank samples and stores its RRR sets locally (EfficientIMM's
  partition-local layout maps 1:1 onto ranks), the global counter is an
  ``allreduce``, and each selection round exchanges only the per-rank
  counter deltas — the communication pattern the paper predicts matches
  Ripples' MPI version;
- :mod:`repro.distributed.dripples` — Ripples' MPI design, a subclass of
  ``DistributedIMM`` that overrides three node-local hooks: how the
  global counter is built, each rank's ops per round and the sampling
  profile.
"""

from repro.distributed.cluster import ClusterTopology, perlmutter_cluster
from repro.distributed.comm import CommStats, SimulatedComm
from repro.distributed.dimm import DistributedIMM, DistributedResult
from repro.distributed.dripples import DistributedRipples

__all__ = [
    "ClusterTopology",
    "perlmutter_cluster",
    "SimulatedComm",
    "CommStats",
    "DistributedIMM",
    "DistributedRipples",
    "DistributedResult",
]
