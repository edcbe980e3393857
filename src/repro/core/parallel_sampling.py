"""Process-parallel RRR generation on real host cores.

The simulated machine covers the 128-thread experiments; this module is the
*actual* parallel path for users running on multi-core hosts: RRR sets are
drawn in forked worker processes (the GIL rules out threads — see
DESIGN.md) and merged into one flat store.

Engineering notes, following the mpi4py-style buffer discipline of the HPC
guides:

- the graph is installed once per worker via the pool initializer (fork
  shares it copy-on-write; nothing graph-sized is ever pickled);
- each worker returns its sets as flat numpy buffers (concatenated
  vertices + sizes) per kernel batch, so inter-process traffic is a few
  contiguous arrays, not per-set Python objects, and the parent appends
  each batch in bulk without ever concatenating a whole chunk;
- each task names a contiguous chunk of *global* set indices, and the
  kernels key every set's randomness by ``(seed, index)``
  (:mod:`repro.kernels`), so the merged store is byte-identical for any
  worker count, chunking, or start method.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro import telemetry
from repro.diffusion.base import get_model
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph
from repro.kernels import KernelSampler
from repro.runtime.backends import ExecutionBackend, MultiprocessBackend, SerialBackend
from repro.sketch.store import FlatRRRStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.faults import FaultPlan
    from repro.resilience.retry import RetryPolicy

__all__ = ["parallel_generate", "sample_task"]

# Per-process state installed by the initializer (fork-shared graph).
_WORKER_MODEL = None


def _init_worker(graph: CSRGraph, model_name: str) -> None:
    global _WORKER_MODEL
    _WORKER_MODEL = get_model(model_name, graph)
    # Materialise the transpose (and LT cumsums) once, pre-fork-warm.
    _WORKER_MODEL.reverse_graph  # noqa: B018 - intentional touch


def _init_worker_shared(graph_handle, model_name: str) -> None:
    """Spawn-mode initializer: attach the graph from its shm segment.

    Module-level and picklable; what crosses the process boundary is the
    :class:`~repro.shm.SegmentHandle` (a few hundred bytes), and the
    attached :class:`~repro.shm.SharedCSRGraph` maps the host's single
    copy of the adjacency arrays.  The view lives for the worker's
    lifetime; the parent's :class:`~repro.shm.SegmentManager` owns the
    segment and unlinks it after the pool is closed.
    """
    from repro import shm

    _init_worker(shm.attach_graph(graph_handle), model_name)


def sample_task(
    args: tuple[int, int, int],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Draw the sets with global indices ``[start, start + count)``.

    Module-level (picklable) so the process pool can dispatch it.  Returns
    one ``(int32 vertices, sizes)`` CSR pair per kernel batch.
    """
    seed, start, count = args
    model = _WORKER_MODEL
    if model is None:
        raise RuntimeError("worker not initialised")
    tel = telemetry.get()
    batches = []
    for flat, sizes, edges in KernelSampler(model).stream_indexed(
        seed, start, count
    ):
        batches.append((flat, sizes))
        if tel.enabled:
            # Same `sampling.*` schema as the in-process sampler; recorded
            # in the worker's registry and shipped back via the backend's
            # merge-on-reduce protocol (repro.runtime.backends).
            reg = tel.registry
            reg.counter("sampling.rrr_sets").inc(sizes.size)
            reg.counter("sampling.edges_examined").inc(int(edges.sum()))
            reg.histogram("sampling.set_size").observe_many(sizes)
    return batches


def parallel_generate(
    graph: CSRGraph,
    model_name: str,
    count: int,
    *,
    num_workers: int = 2,
    seed: int = 0,
    backend: ExecutionBackend | None = None,
    retry: "RetryPolicy | None" = None,
    faults: "FaultPlan | None" = None,
    start_method: str = "fork",
) -> FlatRRRStore:
    """Generate ``count`` RRR sets across ``num_workers`` processes.

    Each worker draws one contiguous chunk of the global index space over
    its (fork- or shm-shared) graph view; the chunks are appended in index
    order, so the store holds set *i* at index *i* whatever the worker
    count.  Pass a :class:`SerialBackend` to run the identical code path
    in-process (used by tests and single-core hosts).

    ``retry`` / ``faults`` attach resilience to the per-worker tasks
    (docs/resilience.md).  They hold for this call only: a caller-supplied
    backend gets its own retry policy and fault plan back when it returns.

    ``start_method="spawn"`` starts fresh-interpreter workers that attach
    the graph from a :mod:`repro.shm` segment this call publishes (and
    unlinks on exit), instead of inheriting it through fork — per-worker
    handoff is a segment handle, not the adjacency arrays.  Ignored when a
    ``backend`` is supplied (its start method was fixed at construction).
    """
    if count < 0:
        raise ParameterError(f"count must be >= 0, got {count}")
    if num_workers <= 0:
        raise ParameterError(f"num_workers must be positive, got {num_workers}")
    if start_method not in ("fork", "spawn"):
        raise ParameterError(
            f"unknown start_method {start_method!r}; expected 'fork' or 'spawn'"
        )

    base, extra = divmod(count, num_workers)
    tasks = []
    start = 0
    for w in range(num_workers):
        span = base + (1 if w < extra else 0)
        tasks.append((int(seed), start, span))
        start += span

    owns_backend = backend is None
    segment_manager = None
    if backend is None:
        if start_method == "spawn":
            from repro import shm

            segment_manager = shm.SegmentManager()
            handle = segment_manager.publish_graph(graph)
            backend = MultiprocessBackend(
                num_workers,
                initializer=_init_worker_shared,
                initargs=(handle, model_name),
                start_method="spawn",
            )
        else:
            backend = MultiprocessBackend(
                num_workers,
                initializer=_init_worker,
                initargs=(graph, model_name),
            )
    elif isinstance(backend, SerialBackend):
        _init_worker(graph, model_name)
    own_resilience = backend.retry_policy, backend.fault_plan
    if retry is not None:
        backend.retry_policy = retry
    if faults is not None:
        backend.fault_plan = faults

    tel = telemetry.get()
    with tel.span(
        "sampling.parallel_generate",
        backend=backend.backend_name, num_workers=num_workers, count=count,
    ):
        try:
            results = backend.run_tasks(sample_task, tasks)
        finally:
            backend.retry_policy, backend.fault_plan = own_resilience
            if owns_backend:
                backend.close()
            if segment_manager is not None:
                segment_manager.close()

        store = FlatRRRStore(graph.num_vertices)
        for batches in results:
            for flat, sizes in batches:
                store.append_csr(flat, sizes)
    if tel.enabled:
        tel.registry.gauge("sketch.store.sets").set(len(store))
        tel.registry.gauge("sketch.store.entries").set(store.total_entries)
    return store
