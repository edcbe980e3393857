"""repro.dynamic — streaming graph updates with incremental sketch repair.

The static pipeline (graph → sketch → selection) assumes a frozen graph;
this package makes the reproduction serve a *changing* one:

- :mod:`repro.dynamic.delta` — :class:`DeltaGraph`, a mutable overlay over
  :class:`~repro.graph.csr.CSRGraph` with batched insert/delete/reweight,
  epoch numbering, and O(m) ``compact()`` back to CSR;
- :mod:`repro.dynamic.maintain` — :class:`IncrementalMaintainer`, which
  repairs an RRR sketch after each committed batch instead of rebuilding
  it: provenance-based invalidation from one ``membership_pairs()`` scan
  of the store per commit, resampling
  through the existing kernels, an exact coin-coupling extension path for
  inserted edges (IC), in-place fused-counter patching, and a full-resample
  fallback above a configurable invalidation threshold — plus epoch-aware
  checkpoints for crash/resume across epochs;
- :mod:`repro.dynamic.updates` — the JSON-lines update-stream grammar of
  ``repro update``;
- :mod:`repro.dynamic.serving` — :class:`DynamicService`, a
  :class:`~repro.service.front.QueryFront` that publishes each repaired
  epoch (graph, store and fused counter) and answers every query from the
  newest published one (stale epochs answer ``degraded`` until the repair
  catches up), fanning each epoch out to its publish hooks.

Typical use::

    from repro.dynamic import DeltaGraph, DynamicService, EdgeUpdate

    svc = DynamicService("live", graph, num_sets=2000, seed=0)
    svc.apply([EdgeUpdate("insert", 3, 7, 0.2)])   # commit + repair
    resp = svc.query(k=10)                          # newest epoch

See docs/dynamic.md for the update grammar, invalidation semantics, and
epoch/staleness guarantees.
"""

from repro.dynamic.delta import CommitInfo, DeltaGraph, EdgeUpdate
from repro.dynamic.maintain import IncrementalMaintainer, RepairReport
from repro.dynamic.serving import DynamicService
from repro.dynamic.updates import StreamOp, iter_update_stream, parse_update_line

__all__ = [
    "CommitInfo",
    "DeltaGraph",
    "DynamicService",
    "EdgeUpdate",
    "IncrementalMaintainer",
    "RepairReport",
    "StreamOp",
    "iter_update_stream",
    "parse_update_line",
]
