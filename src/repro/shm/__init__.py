"""Shared-memory sketch plane: publish once per host, attach everywhere.

The pre-existing hot paths moved sketches between processes by value —
pickled through ``multiprocessing`` queues or rebuilt per replica — so a
host running W workers held W copies of the same RRR arrays.  This package
replaces that with named POSIX shared-memory segments
(:mod:`multiprocessing.shared_memory`):

- :class:`SegmentManager` publishes a :class:`~repro.sketch.store
  .FlatRRRStore`'s arrays (or a :class:`~repro.graph.csr.CSRGraph`'s) into
  a fingerprint-named segment **once**, and owns its lifetime (context
  manager / atexit unlink, creator-pid guard, orphan sweep, leak
  detection);
- :class:`SharedFlatRRRStore` / :class:`SharedCSRGraph` attach by name in
  any process for the cost of a header parse, exposing zero-copy read-only
  views that drop into every existing consumer (selection kernels, the
  serving engine, shard replicas) with byte-identical results;
- what crosses a process boundary is a :class:`SegmentHandle` — a few
  hundred bytes instead of the payload.

:func:`attach_store` attaches a published store by handle or name in any
process; :meth:`SegmentManager.attach_store` does the same and counts the
view against the manager's leak check.  docs/memory.md is the narrative
companion, and ``shm.*`` telemetry (docs/observability.md) counts
publishes, attaches, bytes shared, and leaks.
"""

from repro.shm.segments import (
    DEFAULT_PREFIX,
    SegmentHandle,
    SegmentManager,
    list_segments,
    sweep_orphans,
)
from repro.shm.views import (
    SharedCSRGraph,
    SharedFlatRRRStore,
    attach_graph,
    attach_store,
)

__all__ = [
    "DEFAULT_PREFIX",
    "SegmentHandle",
    "SegmentManager",
    "SharedCSRGraph",
    "SharedFlatRRRStore",
    "attach_graph",
    "attach_store",
    "list_segments",
    "sweep_orphans",
]
