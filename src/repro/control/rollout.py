"""Safe epoch rollout: canary → compare → promote-or-rollback.

:class:`EpochRollout` sits between a
:class:`~repro.dynamic.serving.DynamicService` and a
:class:`~repro.shard.cluster.ShardCluster`: instead of subscribing the
cluster's ``publish`` directly as the service's publish hook, the
rollout's :meth:`publish` is subscribed and decides *whether* the cluster
gets the new epoch.

The correctness lever is the stack's byte-identity contract: a shard
cluster serving epoch E answers a fixed probe query with exactly the
seed set the single-node engine (here: the dynamic service itself, which
answers from epoch E's published sketch before fanning it out) produces
for E.  So the canary check is exact, not statistical:

1. **canary** — install the new epoch's graph + sub-sketch slice on one
   replica per shard only (the canary set), leaving the other replicas on
   the old epoch;
2. **compare** — run one deterministic probe query (fixed ``k``, the
   service's own model/epsilon/seed/theta) through a router over just the
   canary replicas, and compare its seed set against the service's own
   answer for the new epoch;
3. **promote** on an exact match: fan the epoch out to every replica via
   :meth:`ShardCluster.publish`;
4. **rollback** on mismatch, canary error, or degraded canary answer:
   restore the previous graph on the canary replicas, evict the new
   epoch's cache entries, mark the rollout ``degraded``, and increment
   ``control.rollbacks`` — the cluster keeps serving the old epoch.

A :class:`~repro.resilience.faults.FaultPlan` with scope ``"canary"``
(indexed by epoch) can corrupt or crash the comparison deterministically,
which is how tests force the rollback path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import ParameterError, ReproError
from repro.resilience.retry import RetryPolicy
from repro.service.artifacts import SketchSpec
from repro.shard.plan import shard_fingerprint
from repro.shard.router import Router, RouterConfig

__all__ = ["EpochRollout", "RolloutConfig"]


@dataclass(frozen=True)
class RolloutConfig:
    """Canary knobs.

    ``probe_k`` is the seed-set size of the deterministic probe query;
    every other query parameter is pinned to the publishing service's
    sketch, so the comparison is apples-to-apples by construction.
    """

    probe_k: int = 5

    def __post_init__(self) -> None:
        if self.probe_k < 1:
            raise ParameterError(f"probe_k must be >= 1, got {self.probe_k}")


class EpochRollout:
    """Canary gate between a dynamic service and a shard cluster."""

    def __init__(
        self,
        service: Any,
        cluster: Any,
        *,
        config: RolloutConfig | None = None,
        fault_plan: Any = None,
    ):
        self.service = service
        self.cluster = cluster
        self.config = config or RolloutConfig()
        self.fault_plan = fault_plan
        self.degraded = False
        self.rollbacks = 0
        self.promotions = 0
        self.history: list[dict[str, Any]] = []
        self._bootstrapped: set[str] = set()

    # ------------------------------------------------------------ lifecycle
    def attach(self, *, replay: bool = True) -> None:
        """Subscribe to the service's publish fan-out (the canary seam)."""
        self.service.add_publish_hook(self.publish, replay=replay)

    def detach(self) -> bool:
        return self.service.remove_publish_hook(self.publish)

    # -------------------------------------------------------------- rollout
    def publish(
        self,
        *,
        dataset: str,
        graph: Any,
        fingerprint: str,
        store: Any,
        counter: np.ndarray | None = None,
        meta: dict | None = None,
    ) -> dict[str, Any]:
        """Publish-hook entry point: gate one epoch into the cluster."""
        ds = str(dataset).lower()
        extra = dict(meta or {})
        epoch = int(extra.get("epoch", 0))
        if ds not in self._bootstrapped:
            # First epoch for this dataset: there is no old epoch to keep
            # serving, so the canary comparison has nothing to protect.
            self._bootstrapped.add(ds)
            self.cluster.publish(
                dataset=ds, graph=graph, fingerprint=fingerprint,
                store=store, counter=counter, meta=extra,
            )
            return self._record(ds, epoch, fingerprint, "bootstrap", None, None)

        spec = SketchSpec.from_meta(ds, extra, len(store))
        reference = self.service.query(self.config.probe_k)
        canaries = self._pick_canaries()
        restore: dict[str, tuple[Any, Any]] = {}
        sub_fps: list[str] = []
        match = False
        canary_seeds: list[int] | None = None
        error: str | None = None
        try:
            if canaries is None:
                raise ReproError(
                    "no live replica available to canary on some shard"
                )
            plan = self.cluster.plan
            parts = plan.partition_store(store, fingerprint)
            for w in canaries:
                restore[w.name] = (w, w.engine.installed_graph(ds))
                sub_fp = shard_fingerprint(fingerprint, w.shard_id, plan)
                sub_fps.append(sub_fp)
                w.install_graph(ds, graph)
                meta = spec.meta(
                    **extra, shard=w.shard_id, num_shards=plan.num_shards,
                    canary=True,
                )
                w.adopt(sub_fp, parts[w.shard_id], meta)
            router = Router(
                canaries,
                config=RouterConfig(
                    default_theta=spec.num_sets,
                    retry=RetryPolicy(max_attempts=1),
                    allow_degraded=False,
                ),
                plan=self.cluster.plan,
            )
            resp = router.query(spec.query(self.config.probe_k))
            seeds = list(resp.seeds) if resp.seeds else []
            if self.fault_plan is not None:
                seeds = self.fault_plan.invoke("canary", epoch, lambda: seeds)
            canary_seeds = seeds
            match = (
                resp.ok
                and not resp.degraded
                and reference.ok
                and seeds == list(reference.seeds)
            )
            if not match and resp.error:
                error = resp.error
        except ReproError as exc:
            error = f"{type(exc).__name__}: {exc}"
            match = False

        if match:
            self.cluster.publish(
                dataset=ds, graph=graph, fingerprint=fingerprint,
                store=store, counter=counter, meta=extra,
            )
            self.degraded = False
            self.promotions += 1
            self._tel("control.promotions", degraded=False)
            return self._record(
                ds, epoch, fingerprint, "promote",
                list(reference.seeds), canary_seeds,
            )

        # Rollback: put the canary replicas back on the old epoch and drop
        # whatever the canary warmed, so the cluster's answers stay the old
        # epoch's everywhere.
        for w, prev in restore.values():
            if prev is not None:
                w.install_graph(ds, prev[0])
            for sub_fp in sub_fps:
                w.engine.cache.evict(sub_fp)
        self.degraded = True
        self.rollbacks += 1
        self._tel("control.rollbacks", degraded=True)
        return self._record(
            ds, epoch, fingerprint, "rollback",
            list(reference.seeds) if reference.ok else None,
            canary_seeds, error=error,
        )

    # -------------------------------------------------------------- helpers
    def _pick_canaries(self) -> list[Any] | None:
        """One live replica per shard (lowest replica id), or ``None`` when
        some shard has no live replica at all."""
        out: list[Any] = []
        for shard in range(self.cluster.plan.num_shards):
            live = [w for w in self.cluster.replicas(shard) if not w.dead]
            if not live:
                return None
            out.append(min(live, key=lambda w: w.replica_id))
        return out

    def _tel(self, counter: str, *, degraded: bool) -> None:
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter(counter).inc()
            tel.registry.gauge("control.rollout_degraded").set(
                1.0 if degraded else 0.0
            )

    def _record(
        self,
        dataset: str,
        epoch: int,
        fingerprint: str,
        action: str,
        reference: list[int] | None,
        canary: list[int] | None,
        *,
        error: str | None = None,
    ) -> dict[str, Any]:
        report = {
            "dataset": dataset,
            "epoch": epoch,
            "fingerprint": fingerprint,
            "action": action,
            "reference_seeds": reference,
            "canary_seeds": canary,
            "degraded": self.degraded,
            "error": error,
        }
        self.history.append(report)
        return report

    def status(self) -> dict[str, Any]:
        return {
            "degraded": self.degraded,
            "promotions": self.promotions,
            "rollbacks": self.rollbacks,
            "epochs_seen": len(self.history),
            "last": self.history[-1] if self.history else None,
        }
