"""Dynamic job balancing: the deterministic list scheduler the cost model
uses.

§IV-C ("Dynamic Job Balancing"): RRR-set sizes vary by orders of magnitude
(SCC effect + skew), so static ``theta/p`` partitions leave threads idle.
EfficientIMM uses a producer-consumer scheme: work is chunked, each worker
drains its own queue first (preserving the locality of the contiguous
partition), then steals from the most loaded peer.

:func:`simulate_schedule` computes the assignment and makespan a policy
yields for items with given costs; its ``dynamic`` policy is the steady
state of that chunked queue with stealing.  The cost model calls it to turn
measured per-RRR work into per-thread simulated time for 1..128 threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace

import numpy as np

from repro.errors import ParameterError
from repro.runtime.partition import block_partition

__all__ = ["ScheduleResult", "simulate_schedule"]


@dataclass(frozen=True)
class ScheduleResult:
    """Outcome of scheduling weighted items onto workers."""

    assignment: np.ndarray  # worker id per item
    loads: np.ndarray  # total cost per worker
    makespan: float  # max worker load = simulated parallel time

    @property
    def imbalance(self) -> float:
        """makespan / mean-load; 1.0 is perfect balance."""
        mean = float(self.loads.mean()) if self.loads.size else 0.0
        return self.makespan / mean if mean > 0 else 1.0


def simulate_schedule(
    costs: np.ndarray,
    num_workers: int,
    *,
    policy: str = "dynamic",
    chunk_size: int = 8,
) -> ScheduleResult:
    """Compute the schedule a policy produces for items with given costs.

    Policies:

    - ``"static"`` — contiguous ``num_items/p`` blocks (Ripples' OpenMP
      static schedule);
    - ``"dynamic"`` — chunked greedy list scheduling: chunks are handed, in
      order, to the worker that becomes free first (the steady-state
      behaviour of the producer-consumer queue with stealing);
    - ``"cyclic"`` — round-robin item assignment.

    Returns per-item worker assignment, per-worker loads, and the makespan.
    """
    c = np.asarray(costs, dtype=np.float64).ravel()
    if num_workers <= 0:
        raise ParameterError(f"num_workers must be positive, got {num_workers}")
    assignment = np.zeros(c.size, dtype=np.int64)
    loads = np.zeros(num_workers)

    if policy == "static":
        for w, (lo, hi) in enumerate(block_partition(c.size, num_workers)):
            assignment[lo:hi] = w
            loads[w] = c[lo:hi].sum()
    elif policy == "cyclic":
        for w in range(num_workers):
            sel = slice(w, c.size, num_workers)
            assignment[sel] = w
            loads[w] = c[sel].sum()
    elif policy == "dynamic":
        if chunk_size <= 0:
            raise ParameterError(f"chunk_size must be positive, got {chunk_size}")
        # Each chunk's cost is summed row-wise, which adds in the same order
        # as summing the chunk's slice; the ragged tail is its own chunk.
        full = c.size - c.size % chunk_size
        chunk_costs = c[:full].reshape(-1, chunk_size).sum(axis=1)
        if full < c.size:
            chunk_costs = np.append(chunk_costs, c[full:].sum())
        # Earliest-free-worker list scheduling over chunks, via a time heap.
        owners: list[int] = []
        heap = [(0.0, w) for w in range(num_workers)]
        for cost in chunk_costs.tolist():
            t, w = heap[0]
            owners.append(w)
            heapreplace(heap, (t + cost, w))
        owner = np.array(owners, dtype=np.int64)
        assignment = np.repeat(owner, chunk_size)[: c.size]
        # bincount adds each worker's chunk costs in chunk order, so loads
        # equal a running per-worker sum bit for bit (it returns ints when
        # there are no chunks, hence the cast).
        loads = np.bincount(
            owner, weights=chunk_costs, minlength=num_workers
        ).astype(np.float64, copy=False)
    else:
        raise ParameterError(f"unknown scheduling policy {policy!r}")

    makespan = float(loads.max()) if num_workers else 0.0
    return ScheduleResult(assignment=assignment, loads=loads, makespan=makespan)
