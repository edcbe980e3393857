"""Epoch-aware serving: a :class:`DynamicService` answers from the epoch
it last published.

The service owns one :class:`DeltaGraph` + :class:`IncrementalMaintainer`
pair and *publishes* each successfully repaired epoch: the compacted graph
and a snapshot of the maintainer's store and fused counter, held as one
:class:`~repro.service.cache.CacheEntry`.  The counter is the one the
repair patched, so selection starts from the counter sampling produced
(EfficientIMM's Algorithm 3), and a query never samples: every group is
answered from the published entry through the shared
:class:`~repro.service.front.QueryFront` (validation, deadlines, the ``k``
bound, the kept selection and the ``service.*`` per-query metrics).

Queries are *pinned* to the service's sketch: only ``k``, ``deadline_s``
and ``id`` are read from a query, and a group naming another dataset is
answered with an error.  Each published epoch is a new entry, so its first
group selects again and replaces the selection kept over the one before.
Publish hooks fan every epoch out (a
:class:`~repro.shard.cluster.ShardCluster` subscribes its ``publish``).

When a repair fails mid-stream the delta graph runs ahead of the sketch,
and the service keeps answering from the last published epoch with
``degraded: true`` (counted as ``service.degraded`` and
``resilience.degraded_responses``, like every degraded answer) plus the
``dynamic.epoch_staleness`` gauge / ``dynamic.stale_queries`` counter.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro import telemetry
from repro.errors import ParameterError, ReproError
from repro.graph.csr import CSRGraph
from repro.graph.io import graph_fingerprint
from repro.service import ServiceStats
from repro.service.artifacts import SketchSpec
from repro.service.cache import CacheEntry
from repro.service.front import Pending, QueryFront
from repro.service.protocol import IMResponse
from repro.sketch.store import FlatRRRStore

from repro.dynamic.delta import DeltaGraph, EdgeUpdate
from repro.dynamic.maintain import IncrementalMaintainer, RepairReport

__all__ = ["DynamicService"]


class DynamicService(QueryFront):
    """Streaming updates + versioned query serving over one dynamic graph."""

    METRIC_PREFIX = "service"

    def __init__(
        self,
        dataset: str,
        graph: CSRGraph | None = None,
        *,
        delta: DeltaGraph | None = None,
        maintainer: IncrementalMaintainer | None = None,
        model: str = "IC",
        num_sets: int = 2000,
        seed: int = 0,
        epsilon: float = 0.5,
        full_resample_threshold: float = 0.25,
        repair: str = "extend",
    ):
        if (graph is None) == (delta is None):
            raise ParameterError(
                "DynamicService needs exactly one of 'graph' or 'delta'"
            )
        self.dataset = str(dataset)
        self.model = str(model).upper()
        self.epsilon = float(epsilon)
        self.seed = int(seed)
        self.delta = delta if delta is not None else DeltaGraph(graph)
        if maintainer is not None:
            if maintainer.delta is not self.delta:
                raise ParameterError(
                    "maintainer must wrap the same DeltaGraph as the service"
                )
            self.maintainer = maintainer
        else:
            self.maintainer = IncrementalMaintainer(
                self.delta,
                model=self.model,
                num_sets=num_sets,
                seed=self.seed,
                full_resample_threshold=full_resample_threshold,
                repair=repair,
            )
        self.num_sets = self.maintainer.num_sets
        #: The sketch every epoch publishes and every query is pinned to.
        self.spec = SketchSpec(
            self.dataset, self.model, self.epsilon, self.seed, self.num_sets
        )
        self.stats = ServiceStats()
        super().__init__(self.num_sets)
        self.served_epoch = -1
        # Publish fan-out (repro.shard): each hook receives every published
        # epoch — graph, fingerprint, sketch snapshot, counter, meta — so a
        # shard cluster (or any other downstream consumer) stays in lockstep
        # with the service.  See :meth:`add_publish_hook`.
        self._publish_hooks: list[Any] = []
        self._publish()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Nothing to release: the published epoch is plain memory."""

    def __enter__(self) -> "DynamicService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------ publishing
    def current_fingerprint(self) -> str:
        """Sketch fingerprint of the newest *published* epoch."""
        return self._fp

    def add_publish_hook(self, hook: Any, *, replay: bool = True) -> None:
        """Fan each published epoch out to ``hook(dataset=, graph=,
        fingerprint=, store=, counter=, meta=)``.

        :meth:`ShardCluster.publish <repro.shard.cluster.ShardCluster.publish>`
        has exactly this signature, so a cluster subscribes with
        ``service.add_publish_hook(cluster.publish)``.  With ``replay=True``
        (default) the hook is immediately called with the currently served
        epoch, so late subscribers start consistent.
        """
        self._publish_hooks.append(hook)
        if replay and self.served_epoch >= 0:
            self._fan_out(hook)

    def remove_publish_hook(self, hook: Any) -> bool:
        """Unsubscribe a publish hook (the control plane's canary rollout
        interposes itself by swapping hooks); returns whether it was
        subscribed."""
        try:
            self._publish_hooks.remove(hook)
        except ValueError:
            return False
        return True

    def _publish(self) -> None:
        """Make the maintainer's epoch (graph + sketch) the one served."""
        self._graph = self.delta.compact()
        self._fp = self.spec.fingerprint(graph_fingerprint(self._graph))
        # Snapshot the sketch: the maintainer keeps mutating its own store,
        # so the published entry copies the flat arrays (from_arrays copies).
        store = FlatRRRStore.from_arrays(
            self.delta.num_vertices,
            self.maintainer.store.offsets,
            self.maintainer.store.vertices,
        )
        self._entry = CacheEntry(
            store=store,
            counter=self.maintainer.counter.copy(),
            meta=self.spec.meta(epoch=int(self.maintainer.epoch), dynamic=True),
        )
        self.served_epoch = int(self.maintainer.epoch)
        for hook in self._publish_hooks:
            self._fan_out(hook)

    def _fan_out(self, hook: Any) -> None:
        entry = self._entry
        hook(
            dataset=self.dataset,
            graph=self._graph,
            fingerprint=self._fp,
            store=entry.store,
            counter=entry.counter,
            meta=entry.meta,
        )

    # --------------------------------------------------------------- updates
    def stage(self, update: EdgeUpdate) -> None:
        self.delta.stage(update)

    def commit(self) -> RepairReport:
        """Commit staged updates, repair the sketch, publish the new epoch.

        On repair failure the delta graph stays committed (the updates are
        real) but serving continues from the last published epoch with
        ``degraded`` responses; the error propagates to the caller.
        """
        info = self.delta.commit()
        try:
            report = self.maintainer.apply(info)
        except ReproError:
            tel = telemetry.get()
            if tel.enabled:
                tel.registry.counter("dynamic.repair_failures").inc()
                tel.registry.gauge("dynamic.epoch_staleness").set(
                    self.staleness()
                )
            raise
        self._publish()
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.gauge("dynamic.epoch_staleness").set(self.staleness())
        return report

    def apply(self, updates: Iterable[EdgeUpdate]) -> RepairReport:
        """Stage + commit one batch (the programmatic convenience path)."""
        for u in updates:
            self.stage(u)
        return self.commit()

    def staleness(self) -> int:
        """How many committed epochs the served sketch lags behind."""
        return int(self.delta.epoch - self.served_epoch)

    # ---------------------------------------------------------------- queries
    def query(
        self,
        k: int = 10,
        *,
        deadline_s: float | None = None,
        id: str | None = None,
    ) -> IMResponse:
        """Top-``k`` seeds from the newest published epoch.

        The response's ``epoch`` field carries the served epoch; when the
        delta graph has committed epochs the sketch has not caught up with
        (a failed repair), the response is flagged ``degraded``.
        """
        return self.execute(
            [self.spec.query(int(k), deadline_s=deadline_s, id=id)]
        )[0]

    def _serve_group(
        self, spec: SketchSpec, pending: list[Pending], out: list
    ) -> None:
        """Answer one group from the published epoch, whatever sketch
        parameters its queries name, unless it names another dataset."""
        pending = self._split_expired(pending, out)
        if spec.dataset != self.dataset.lower():
            for p in pending:
                exc = ParameterError(
                    f"this dynamic service serves {self.dataset!r}, "
                    f"not {p.query.dataset!r}"
                )
                self._fail([p], exc, out)
            return
        entry = self._entry
        live = self._bound_k(pending, entry.store.num_vertices, out)
        if not live:
            return
        seeds, newly = self._entry_selection(
            self.spec.key(), entry, max(p.query.k for p in live), keep=True
        )
        stale = self.staleness()
        self._answer(
            live, seeds, newly, out,
            num_vertices=entry.store.num_vertices, num_sets=len(entry.store),
            cached=True, degraded=stale > 0, epoch=self.served_epoch,
        )
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.gauge("dynamic.epoch_staleness").set(stale)
            if stale > 0:
                tel.registry.counter("dynamic.stale_queries").inc(
                    sum(out[p.index].ok for p in live)
                )

    # ----------------------------------------------------------------- stats
    def stats_snapshot(self) -> dict[str, Any]:
        """Query + dynamic counters as one JSON-able dict (the `stats` op)."""
        return {
            "service": self.stats.to_dict(),
            "dynamic": {
                "dataset": self.dataset,
                "model": self.model,
                "num_sets": self.num_sets,
                "graph_epoch": int(self.delta.epoch),
                "served_epoch": self.served_epoch,
                "staleness": self.staleness(),
                "num_edges": self.delta.num_edges,
                "fingerprint": self._fp,
            },
        }
