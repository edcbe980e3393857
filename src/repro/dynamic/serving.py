"""Epoch-aware serving: a :class:`DynamicService` in front of the engine.

The service owns one :class:`DeltaGraph` + :class:`IncrementalMaintainer`
pair and *publishes* each successfully repaired epoch into a
:class:`~repro.service.engine.QueryEngine`:

- the compacted graph is installed under the service's dataset name
  (:meth:`QueryEngine.install_graph`), overriding replica-dataset loading;
- the repaired sketch is warmed into the engine cache under its epoch's
  sketch fingerprint (:meth:`QueryEngine.warm`).

Because sketch fingerprints hash the *graph* fingerprint, every epoch gets
its own cache key automatically; publishing an epoch evicts the one it
supersedes, so a long-running service holds one sketch, not one per
epoch.  Queries are answered from the newest *published*
epoch; when a repair fails mid-stream the delta graph may run ahead of the
sketch, and the service keeps serving the last good epoch with
``degraded: true`` on the response (the same disclosure the engine uses
for stale-artifact fallback) plus the ``dynamic.epoch_staleness`` gauge /
``dynamic.stale_queries`` counter.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro import telemetry
from repro.errors import ParameterError, ReproError
from repro.graph.csr import CSRGraph
from repro.service.artifacts import SketchSpec
from repro.service.engine import EngineConfig, QueryEngine
from repro.service.protocol import IMQuery, IMResponse
from repro.sketch.store import FlatRRRStore

from repro.dynamic.delta import DeltaGraph, EdgeUpdate
from repro.dynamic.maintain import IncrementalMaintainer, RepairReport

__all__ = ["DynamicService"]


class DynamicService:
    """Streaming updates + versioned query serving over one dynamic graph."""

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
        engine: QueryEngine | None = None,
        config: EngineConfig | None = None,
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
        self._own_engine = engine is None
        self.engine = engine if engine is not None else QueryEngine(
            config=config or EngineConfig()
        )
        self.served_epoch = -1
        self._fp: str | None = None
        # Publish fan-out (repro.shard): each hook receives every published
        # epoch — graph, fingerprint, sketch snapshot, counter, meta — so a
        # shard cluster (or any other downstream consumer) stays in lockstep
        # with the engine.  See :meth:`add_publish_hook`.
        self._publish_hooks: list[Any] = []
        self._publish()

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._own_engine:
            self.engine.close()

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
            self._fan_out(hook, *self._last_published)

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
        """Install the maintainer's epoch (graph + warm sketch) for serving."""
        graph = self.delta.compact()
        gfp = self.engine.install_graph(self.dataset, graph)
        superseded = self._fp
        self._fp = self.spec.fingerprint(gfp)
        if superseded is not None and superseded != self._fp:
            self.engine.cache.evict(superseded)
        # Snapshot the sketch: the maintainer keeps mutating its own store,
        # so the published entry copies the flat arrays (from_arrays copies).
        store = FlatRRRStore.from_arrays(
            self.delta.num_vertices,
            self.maintainer.store.offsets,
            self.maintainer.store.vertices,
        )
        counter = self.maintainer.counter.copy()
        meta = self.spec.meta(epoch=int(self.maintainer.epoch), dynamic=True)
        self.engine.warm(self._fp, store, counter=counter, meta=meta)
        self.served_epoch = int(self.maintainer.epoch)
        self._last_published = (graph, self._fp, store, counter, meta)
        for hook in self._publish_hooks:
            self._fan_out(hook, *self._last_published)

    def _fan_out(self, hook: Any, graph, fp, store, counter, meta) -> None:
        hook(
            dataset=self.dataset,
            graph=graph,
            fingerprint=fp,
            store=store,
            counter=counter,
            meta=meta,
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

    def execute(self, queries: Sequence[IMQuery]) -> list[IMResponse]:
        """Serve a batch against the newest published epoch.

        The same ``execute(queries) -> responses`` surface as
        :class:`~repro.service.engine.QueryEngine` and
        :class:`~repro.shard.cluster.ShardCluster`, so a
        :class:`~repro.gateway.server.GatewayServer` can front a dynamic
        service directly.  Queries are *pinned* to the service's sketch:
        only ``k``, ``deadline_s``, and ``id`` are taken from the incoming
        query — the dataset must match (an ``"error"`` response otherwise),
        and model/epsilon/seed/theta follow the maintained sketch so every
        answer reflects the published epoch.
        """
        responses: list[IMResponse | None] = [None] * len(queries)
        pinned: list[tuple[int, IMQuery]] = []
        for i, q in enumerate(queries):
            if str(q.dataset).lower() != self.dataset.lower():
                responses[i] = IMResponse(
                    status="error",
                    id=q.id,
                    error=(
                        f"ParameterError: this dynamic service serves "
                        f"{self.dataset!r}, not {q.dataset!r}"
                    ),
                )
                continue
            pinned.append(
                (i, self.spec.query(q.k, deadline_s=q.deadline_s, id=q.id))
            )
        if pinned:
            answers = self.engine.execute([q for _, q in pinned])
            stale = self.staleness()
            tel = telemetry.get()
            if tel.enabled:
                tel.registry.gauge("dynamic.epoch_staleness").set(stale)
            for (i, _), resp in zip(pinned, answers):
                resp.epoch = self.served_epoch
                if stale > 0 and resp.ok:
                    resp.degraded = True
                    if tel.enabled:
                        tel.registry.counter("dynamic.stale_queries").inc()
                responses[i] = resp
        return [
            r if r is not None
            else IMResponse(status="error", error="internal: query dropped")
            for r in responses
        ]

    # ----------------------------------------------------------------- stats
    def stats_snapshot(self) -> dict[str, Any]:
        """Engine + dynamic counters as one JSON-able dict (the `stats` op)."""
        snap = self.engine.stats_snapshot()
        snap["dynamic"] = {
            "dataset": self.dataset,
            "model": self.model,
            "num_sets": self.num_sets,
            "graph_epoch": int(self.delta.epoch),
            "served_epoch": self.served_epoch,
            "staleness": self.staleness(),
            "num_edges": self.delta.num_edges,
            "fingerprint": self._fp,
        }
        return snap
