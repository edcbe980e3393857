"""Dynamic job balancing: chunked work queues with stealing, and the
deterministic list scheduler used by the cost model.

§IV-C ("Dynamic Job Balancing"): RRR-set sizes vary by orders of magnitude
(SCC effect + skew), so static ``theta/p`` partitions leave threads idle.
EfficientIMM uses a producer-consumer scheme: work is chunked, each worker
drains its own queue first (preserving the locality of the contiguous
partition), then steals from the most loaded peer.

Two views of the same policy live here:

- :class:`ChunkedWorkQueue` — an actual queue structure usable by the
  multiprocessing backend and by tests (deterministic stealing order);
- :func:`simulate_schedule` — given per-item costs, compute the assignment
  and makespan a given policy yields.  The cost model calls this to turn
  measured per-RRR work into per-thread simulated time for 1..128 threads.

Resilience (docs/resilience.md): the queue understands worker failure —
:meth:`ChunkedWorkQueue.fail_worker` retires a rank, whose unfinished
chunks stay stealable by the survivors, and :meth:`~ChunkedWorkQueue.requeue`
returns a chunk a worker died *holding* to the pool.  An optional
:class:`~repro.resilience.faults.FaultPlan` injects rank-scoped faults at
the ``pop`` boundary.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from heapq import heapreplace
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import BackendError, FaultInjectedError, ParameterError
from repro.runtime.partition import block_partition

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FaultPlan
    from repro.runtime.api import BackendConfig

__all__ = ["ChunkedWorkQueue", "ScheduleResult", "simulate_schedule"]


class ChunkedWorkQueue:
    """Per-worker chunk queues with own-first draining and stealing.

    Items ``0..num_items-1`` are cut into chunks of ``chunk_size`` and
    dealt contiguously to workers (locality first).  ``pop(worker)`` returns
    the next chunk: from the worker's own queue (front) if non-empty, else
    stolen from the *back* of the currently longest peer queue; ``None``
    when all queues are empty.  Thread-safe; stealing order is deterministic
    given a call sequence.

    Construct with keywords (``ChunkedWorkQueue(n, num_workers=4,
    chunk_size=8)``) or from a :class:`~repro.runtime.api.BackendConfig`
    (``ChunkedWorkQueue(n, config=cfg)``), which also supplies the fault
    plan.
    """

    def __init__(
        self,
        num_items: int,
        *,
        num_workers: int | None = None,
        chunk_size: int | None = None,
        config: "BackendConfig | None" = None,
        fault_plan: "FaultPlan | None" = None,
    ):
        if config is not None:
            if num_workers is None:
                num_workers = config.num_workers
            if chunk_size is None:
                chunk_size = config.chunk_size
            if fault_plan is None:
                fault_plan = config.faults
        if chunk_size is None:
            chunk_size = 1
        if num_workers is None:
            raise ParameterError("ChunkedWorkQueue requires num_workers")
        if chunk_size <= 0:
            raise ParameterError(f"chunk_size must be positive, got {chunk_size}")
        if num_workers <= 0:
            raise ParameterError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers
        self.fault_plan = fault_plan
        chunks = [
            (start, min(start + chunk_size, num_items))
            for start in range(0, num_items, chunk_size)
        ]
        bounds = block_partition(len(chunks), num_workers)
        self._queues: list[list[tuple[int, int]]] = [
            chunks[lo:hi] for lo, hi in bounds
        ]
        self._failed: set[int] = set()
        self._lock = threading.Lock()
        self.steals = 0
        self.pops = 0

    def pop(self, worker: int) -> tuple[int, int] | None:
        """Next ``(start, end)`` item range for ``worker``, or ``None``.

        Raises :class:`~repro.errors.BackendError` when the worker has been
        retired via :meth:`fail_worker`, and
        :class:`~repro.errors.FaultInjectedError` when the attached fault
        plan scripts a crash for this rank (``slow`` faults sleep instead).
        """
        if self.fault_plan is not None:
            spec = self.fault_plan.take("rank", worker)
            if spec is not None:
                if spec.kind == "crash":
                    raise FaultInjectedError(f"injected {spec.describe()}")
                if spec.kind == "slow":
                    time.sleep(spec.delay_s)
                # "corrupt" has no meaningful rank-level payload; ignored.
        with self._lock:
            if worker in self._failed:
                raise BackendError(f"worker {worker} has failed; cannot pop")
            own = self._queues[worker]
            if own:
                self.pops += 1
                return own.pop(0)
            # Steal from the longest queue (back end, away from the owner).
            # Failed workers' leftover queues are deliberately included —
            # that is how their unfinished work gets redistributed.
            victim = max(
                range(len(self._queues)), key=lambda w: len(self._queues[w])
            )
            if self._queues[victim]:
                self.steals += 1
                self.pops += 1
                return self._queues[victim].pop()
            return None

    # ------------------------------------------------------------ resilience
    def fail_worker(self, worker: int) -> int:
        """Retire a rank; returns how many of its chunks remain stealable.

        The failed worker can no longer ``pop`` (it raises
        :class:`~repro.errors.BackendError`), but its queued chunks stay in
        place for the surviving workers to steal, so no work is lost.
        """
        with self._lock:
            if not 0 <= worker < len(self._queues):
                raise ParameterError(f"no such worker {worker}")
            self._failed.add(worker)
            return len(self._queues[worker])

    def requeue(self, chunk: tuple[int, int]) -> None:
        """Return a popped-but-unfinished chunk (e.g. from a worker that
        died holding it) to the front of the least-loaded live queue."""
        with self._lock:
            live = [w for w in range(len(self._queues)) if w not in self._failed]
            if not live:
                raise BackendError("all workers have failed; cannot requeue")
            target = min(live, key=lambda w: len(self._queues[w]))
            self._queues[target].insert(0, (int(chunk[0]), int(chunk[1])))

    @property
    def failed_workers(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._failed)

    def remaining(self) -> int:
        with self._lock:
            return sum(len(q) for q in self._queues)


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
