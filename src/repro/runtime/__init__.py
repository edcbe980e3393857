"""Parallel runtime substrate: partitioning, the schedule model, backends.

This package provides the execution machinery both IMM implementations run
on:

- :mod:`repro.runtime.partition` — the static block partitioner;
- :mod:`repro.runtime.workqueue` — dynamic job balancing as the
  deterministic list scheduler the cost model uses
  (:func:`~repro.runtime.workqueue.simulate_schedule`);
- :mod:`repro.runtime.backends` — serial and multiprocessing execution
  backends (process-based because the CPython GIL forbids shared-memory
  thread parallelism; see DESIGN.md's substitution table).  Callers
  construct the backend they need and attach an optional retry policy and
  fault plan to it (docs/resilience.md).
"""

from repro.runtime.backends import (
    ExecutionBackend,
    MultiprocessBackend,
    SerialBackend,
)
from repro.runtime.partition import block_partition
from repro.runtime.workqueue import simulate_schedule

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "MultiprocessBackend",
    "block_partition",
    "simulate_schedule",
]
