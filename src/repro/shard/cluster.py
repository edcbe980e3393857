"""An in-process shard cluster: plan + workers + router in one handle.

:class:`ShardCluster` is the deployment unit the CLI (``repro shard``),
the tests, and the benchmarks drive: it instantiates
``plan.num_workers`` :class:`~repro.shard.worker.ShardWorker` replicas, a
:class:`~repro.shard.router.Router` over them, and offers:

- :meth:`build` — the offline pipeline: sample the full sketch **once**,
  split it with :meth:`ShardPlan.partition_store`, and warm (and persist,
  when the engine config has an artifact dir) every replica's sub-sketch —
  so serving never pays a per-worker cold sampling pass;
- :meth:`publish` — the online fan-out with the exact keyword signature
  :meth:`DynamicService.add_publish_hook
  <repro.dynamic.serving.DynamicService.add_publish_hook>` calls, so a
  dynamic graph's repaired epochs propagate to every shard atomically
  from the cluster's point of view, and the epoch it supersedes is
  released from every replica;
- :meth:`kill` / :meth:`revive` — deterministic fault injection at
  replica or whole-shard granularity, mirrored by the CLI's JSON ops so
  CI can exercise failover over the wire.

Everything runs in one process; "workers" model separate serving
processes the way :mod:`repro.simmachine` models parallel
hardware — state is strictly per-worker, and all cross-worker
communication flows through the router's scatter-gather calls.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import telemetry
from repro.core.parallel_sampling import parallel_generate
from repro.errors import ParameterError
from repro.runtime.backends import SerialBackend
from repro.service.artifacts import SketchSpec
from repro.service.engine import EngineConfig
from repro.service.protocol import IMQuery, IMResponse
from repro.shard.plan import ShardPlan, shard_fingerprint
from repro.shard.router import Router, RouterConfig
from repro.shard.worker import ShardWorker

__all__ = ["ShardCluster"]


class ShardCluster:
    """Owns the workers of one :class:`ShardPlan` plus their router."""

    def __init__(
        self,
        plan: ShardPlan,
        *,
        engine_config: EngineConfig | None = None,
        router_config: RouterConfig | None = None,
        segment_manager=None,
    ):
        self.plan = plan
        self.segment_manager = segment_manager
        self.workers: list[ShardWorker] = [
            ShardWorker(
                s,
                plan,
                replica_id=r,
                config=engine_config,
                segment_manager=segment_manager,
            )
            for s in range(plan.num_shards)
            for r in range(plan.replication)
        ]
        self.router = Router(self.workers, config=router_config)
        self._engine_config = engine_config
        self._installed: dict[str, Any] = {}
        # Last adopted sketch per dataset: (spec, fingerprint, parts, meta).
        # This is what lets revive/add_replica re-warm a worker from the
        # shm tier (or the retained partition) instead of cold-building.
        self._published: dict[str, tuple] = {}

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        for w in self.workers:
            w.close()

    def __enter__(self) -> "ShardCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------------- lookup
    def worker(self, shard: int, replica: int = 0) -> ShardWorker:
        for w in self.workers:
            if w.shard_id == shard and w.replica_id == replica:
                return w
        raise ParameterError(
            f"no worker {self.plan.worker_name(shard, replica)} in this cluster"
        )

    def replicas(self, shard: int) -> list[ShardWorker]:
        return [w for w in self.workers if w.shard_id == shard]

    # ----------------------------------------------------------------- faults
    def kill(self, shard: int, replica: int | None = None) -> list[str]:
        """Kill one replica, or the whole shard when ``replica`` is None;
        returns the names of the workers taken down."""
        targets = (
            self.replicas(shard)
            if replica is None
            else [self.worker(shard, replica)]
        )
        if not targets:
            raise ParameterError(f"shard {shard} has no workers")
        for w in targets:
            w.kill()
        return [w.name for w in targets]

    def revive(self, shard: int, replica: int | None = None) -> list[str]:
        """Bring replicas back and **re-warm** them from the published tier.

        A revived worker whose cache no longer holds the current sub-sketch
        (evicted while dead, or a fresh restart) must not fall through to a
        cold streaming build on its next query: for dynamic epochs a cold
        re-sample diverges from the maintainer's incrementally repaired
        store, silently breaking the byte-identity replicas guarantee.
        Re-warming follows the worker acquisition order — shm segment
        first, retained partition otherwise.
        """
        targets = (
            self.replicas(shard)
            if replica is None
            else [self.worker(shard, replica)]
        )
        for w in targets:
            w.revive()
            self._rewarm(w)
        return [w.name for w in targets]

    # ---------------------------------------------------------------- scaling
    def add_replica(self, shard: int) -> str:
        """Attach one more replica to ``shard`` and warm it from the
        published tier; returns the new worker's name.

        The plan is immutable (its ``replication`` is the *initial* layout
        and :func:`shard_fingerprint` does not depend on it), so scaling a
        shard is purely additive: new replicas reuse the exact sub-sketch
        keys the existing ones serve.
        """
        if not (0 <= shard < self.plan.num_shards):
            raise ParameterError(
                f"shard {shard} out of range [0, {self.plan.num_shards})"
            )
        reps = self.replicas(shard)
        rid = max(w.replica_id for w in reps) + 1 if reps else 0
        w = ShardWorker(
            shard,
            self.plan,
            replica_id=rid,
            config=self._engine_config,
            segment_manager=self.segment_manager,
        )
        for ds, g in self._installed.items():
            w.install_graph(ds, g)
        self._rewarm(w)
        self.workers.append(w)
        self.router.add_worker(w)
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("shard.replicas_added").inc()
            tel.registry.gauge("shard.num_workers").set(len(self.workers))
        return w.name

    def remove_replica(self, shard: int, replica: int | None = None) -> str:
        """Detach a replica (highest replica id by default) from ``shard``;
        refuses to leave a shard empty.  Returns the removed worker's name."""
        reps = self.replicas(shard)
        if len(reps) <= 1:
            raise ParameterError(
                f"cannot remove the last replica of shard {shard}"
            )
        if replica is None:
            w = max(reps, key=lambda w: w.replica_id)
        else:
            w = self.worker(shard, replica)
        self.router.remove_worker(w)
        self.workers.remove(w)
        w.close()
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("shard.replicas_removed").inc()
            tel.registry.gauge("shard.num_workers").set(len(self.workers))
        return w.name

    def _rewarm(self, w: ShardWorker) -> None:
        """Warm ``w`` with its shard's slice of every published sketch,
        preferring a zero-copy shm attach over the retained partition."""
        for spec, fp, parts, meta in self._published.values():
            sub_fp = shard_fingerprint(fp, w.shard_id, self.plan)
            if sub_fp in w.engine.cache:
                continue
            handle = None
            if self.segment_manager is not None:
                handle = self.segment_manager.handle_for(sub_fp)
            w.adopt(
                sub_fp, parts[w.shard_id],
                spec.meta(
                    **meta, shard=w.shard_id, num_shards=self.plan.num_shards
                ),
                handle=handle,
            )

    # ------------------------------------------------------------------ build
    def build(self, spec: SketchSpec) -> dict[str, Any]:
        """Offline pipeline: one full sampling pass, partitioned and warmed
        (plus persisted, with an artifact dir) into every replica.

        The full sketch exists only transiently here; afterwards each
        worker holds — in memory and on disk — just its shard's slice.
        """
        tel = telemetry.get()
        graph, gfp = self.workers[0].engine.resolve_graph(
            spec.dataset, spec.model, spec.seed
        )
        fp = spec.fingerprint(gfp)
        with tel.span(
            "shard.build", dataset=spec.dataset, num_sets=spec.num_sets,
            num_shards=self.plan.num_shards,
        ):
            full = parallel_generate(
                graph, spec.model, spec.num_sets, num_workers=1,
                seed=spec.seed, backend=SerialBackend(),
            )
            parts = self.plan.partition_store(full, fp)
        return self._adopt(spec, fp, parts)

    def publish(
        self,
        *,
        dataset: str,
        graph: Any,
        fingerprint: str,
        store: Any,
        counter: np.ndarray | None = None,  # noqa: ARG002 - hook signature
        meta: dict | None = None,
    ) -> dict[str, Any]:
        """Online fan-out of an externally built sketch (the
        :class:`DynamicService` publish-hook target).

        Installs ``graph`` on every worker under ``dataset`` and warms each
        shard's slice of ``store`` (keyed by ``fingerprint``).  Per-shard
        counters are rebuilt from the slices — the global ``counter`` is
        accepted for signature compatibility but each shard needs its own
        partial.
        """
        ds = str(dataset).lower()
        self._installed[ds] = graph
        for w in self.workers:
            w.install_graph(ds, graph)
        parts = self.plan.partition_store(store, fingerprint)
        extra = dict(meta or {})
        spec = SketchSpec.from_meta(ds, extra, len(store))
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("shard.publishes").inc()
        previous = self._published.get(ds)
        summary = self._adopt(spec, fingerprint, parts, meta=extra)
        if previous is not None and previous[1] != fingerprint:
            self._retire(previous[1])
        return summary

    def _retire(self, fp: str) -> None:
        """Release a superseded sketch's slices on every replica.

        A published epoch replaces its predecessor for good (nothing
        addresses an old graph fingerprint again), so a long-running
        dynamic cluster keeps one sketch per dataset instead of growing by
        one per epoch: each replica evicts its slice and detaches its
        views, and the slice's shm segment, if any, is unlinked.
        """
        for w in self.workers:
            sub_fp = shard_fingerprint(fp, w.shard_id, self.plan)
            w.engine.cache.evict(sub_fp)
            if self.segment_manager is not None:
                w.detach_views(self.segment_manager.segment_name(sub_fp))
        if self.segment_manager is not None:
            for shard in range(self.plan.num_shards):
                self.segment_manager.unlink(
                    shard_fingerprint(fp, shard, self.plan)
                )

    def _adopt(
        self,
        spec: SketchSpec,
        fp: str,
        parts,
        *,
        meta: dict | None = None,
    ) -> dict[str, Any]:
        """Warm (and persist) each shard's partition into its replicas.

        With a :class:`~repro.shm.SegmentManager`, each shard's sub-sketch
        is published to a shared-memory segment **once** and every replica
        is warmed with its own zero-copy attached view — R replicas of a
        shard share one copy of the bytes instead of referencing one
        Python object (or, across processes, holding R copies).  The
        views are tracked per worker and detached on worker close.

        The adopted ``(spec, fingerprint, parts, meta)`` tuple is retained
        per dataset so later revives / scale-ups re-warm from it instead of
        cold-building (see :meth:`revive`).
        """
        meta = dict(meta or {})
        self._published[spec.dataset] = (spec, fp, parts, meta)
        summary = []
        for shard, sub in enumerate(parts):
            counter = sub.vertex_counts()
            sub_fp = shard_fingerprint(fp, shard, self.plan)
            shard_meta = spec.meta(
                **meta, shard=shard, num_shards=self.plan.num_shards
            )
            seg_handle = None
            if self.segment_manager is not None:
                seg_handle = self.segment_manager.publish_store(
                    sub, fingerprint=sub_fp
                )
            replicas = self.replicas(shard)
            # The replicas share one engine config, so one writes the slice.
            replicas[0].engine.write_sketch(sub_fp, sub, counter, shard_meta)
            for w in replicas:
                w.adopt(
                    sub_fp, sub, shard_meta, counter=counter, handle=seg_handle
                )
            summary.append(
                {
                    "shard": shard,
                    "shard_fingerprint": sub_fp,
                    "num_sets": len(sub),
                    "sketch_bytes": sub.nbytes(),
                    "segment": seg_handle.name if seg_handle else None,
                    "replicas": [w.name for w in replicas],
                }
            )
        tel = telemetry.get()
        if tel.enabled:
            for row in summary:
                tel.registry.gauge(
                    f"shard.s{row['shard']}.sketch_bytes"
                ).set(row["sketch_bytes"])
                tel.registry.gauge(
                    f"shard.s{row['shard']}.num_sets"
                ).set(row["num_sets"])
        return {
            "fingerprint": fp,
            "plan": self.plan.describe(),
            "shards": summary,
        }

    # ---------------------------------------------------------------- serving
    def install_graph(self, dataset: str, graph: Any) -> None:
        """Install an in-memory graph on every worker (no sketch fan-out)."""
        ds = str(dataset).lower()
        self._installed[ds] = graph
        for w in self.workers:
            w.install_graph(ds, graph)

    def query(self, query: IMQuery) -> IMResponse:
        return self.router.query(query)

    def execute(self, queries) -> list[IMResponse]:
        return self.router.execute(queries)

    # ------------------------------------------------------------------ stats
    def stats_snapshot(self) -> dict[str, Any]:
        """Router + per-worker counters as one JSON-able dict."""
        snap = self.router.stats_snapshot()
        snap["workers"] = [w.stats_snapshot() for w in self.workers]
        return snap
