"""The query engine: batched, cached, deadline-aware IM query serving.

One :class:`QueryEngine` owns the three warm layers a query can hit, in
order of decreasing speed:

1. the in-memory :class:`~repro.service.cache.SketchCache` (LRU, byte
   budget) — a hit skips graph loading *and* sampling;
2. the on-disk :class:`~repro.service.artifacts.ArtifactStore` — an
   integrity-checked load skips sampling (and survives process restarts);
3. cold sampling through :func:`repro.core.parallel_sampling.parallel_generate`
   on a :mod:`repro.runtime.backends` backend.

Queries submitted together are grouped by sketch fingerprint; each group is
served by **one** selection pass at ``k_max``, which the shared
:class:`~repro.service.front.QueryFront` turns into per-query answers — the
``k``-seed answer for every query in the group is the first ``k`` seeds of
that single pass, with its coverage read off the per-round accounting.

Per-query deadlines are enforced at every stage boundary: an expired query
is answered with a ``"timeout"`` response (a reported ``TimeoutError``,
never a hang) while the rest of its batch proceeds.

Resilience (docs/resilience.md): the engine's optional ``retry=`` policy
and ``faults=`` plan flow into every cold sampling pass, on the engine's
serial backend or on each pass's own process pool.  When a cold sample
fails anyway, the engine *degrades gracefully*: it serves the freshest
compatible stale artifact — same dataset and model, whatever sketch
parameters — with ``degraded: true`` on the response instead of an error,
and never caches that entry under the failed fingerprint (the next attempt
retries the real sketch).

Telemetry (``service.*``, docs/observability.md): cache hits/misses/
evictions, batch sizes, queue wait, cold-sample and artifact counters, and
a query-latency histogram whose ``percentile(0.95)`` is the serving p95.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.parallel_sampling import parallel_generate
from repro.core.selection import efficient_select
from repro.errors import ArtifactError, ParameterError, ReproError
from repro.graph.datasets import load_dataset
from repro.graph.io import graph_fingerprint
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.runtime.backends import SerialBackend
from repro.service.artifacts import ArtifactStore, sketch_fingerprint
from repro.service.cache import CacheEntry, SketchCache
from repro.service.front import Pending, QueryFront
from repro.service.protocol import IMQuery

__all__ = ["EngineConfig", "QueryEngine", "ServiceStats"]


@dataclass(frozen=True)
class EngineConfig:
    """Tunables of one :class:`QueryEngine`.

    ``backend="serial"`` samples in-process through a shared
    :class:`~repro.runtime.backends.SerialBackend`; ``"multiprocess"``
    lets each cold sampling pass fork its own pool of ``num_workers``
    (the pool must be initialised per graph, so it cannot be shared).
    The sampled sets are a pure function of the seed (:mod:`repro.kernels`),
    so ``num_workers`` changes only how fast a sketch is drawn, never which
    sketch a fingerprint materialises to.
    """

    cache_budget_bytes: int | None = 256 * 1024 * 1024
    artifact_dir: str | Path | None = None
    default_theta: int = 2000
    backend: str = "serial"
    num_workers: int = 1
    persist: bool = True  # write artifacts for newly sampled sketches


@dataclass
class ServiceStats:
    """Cumulative engine behaviour (plain counters, telemetry-independent)."""

    queries: int = 0
    ok: int = 0
    timeouts: int = 0
    errors: int = 0
    batches: int = 0
    cold_samples: int = 0
    artifact_loads: int = 0
    artifact_saves: int = 0
    artifact_corrupt: int = 0
    degraded: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "queries": self.queries, "ok": self.ok,
            "timeouts": self.timeouts, "errors": self.errors,
            "batches": self.batches, "cold_samples": self.cold_samples,
            "artifact_loads": self.artifact_loads,
            "artifact_saves": self.artifact_saves,
            "artifact_corrupt": self.artifact_corrupt,
            "degraded": self.degraded,
        }


class QueryEngine(QueryFront):
    """Serves :class:`IMQuery` batches from cached sketches.

    Process-local and single-threaded by design (the CLI loop drives it);
    cold sampling parallelism comes from the runtime backend underneath.
    """

    METRIC_PREFIX = "service"

    def __init__(
        self,
        *,
        config: EngineConfig | None = None,
        retry: RetryPolicy | None = None,
        faults: FaultPlan | None = None,
    ):
        self.config = config or EngineConfig()
        self.cache = SketchCache(self.config.cache_budget_bytes)
        self.artifacts = (
            ArtifactStore(self.config.artifact_dir)
            if self.config.artifact_dir is not None
            else None
        )
        if self.config.backend not in ("serial", "multiprocess"):
            raise ParameterError(
                f"unknown engine backend {self.config.backend!r}"
            )
        self.retry = retry
        self.faults = faults
        # A serial engine reuses one in-process backend across cold passes;
        # a multiprocess one hands backend=None to parallel_generate, which
        # builds a properly initialised fork pool per (graph, pass).
        self._backend = (
            SerialBackend() if self.config.backend == "serial" else None
        )
        self._graphs: dict[tuple, Any] = {}
        self._graph_fps: dict[tuple, str] = {}
        # Installed graphs (repro.dynamic): dataset name -> (graph, fp).
        # An installed graph overrides replica-dataset resolution for every
        # query naming that dataset, whatever its model/seed.
        self._installed: dict[str, tuple[Any, str]] = {}
        self.stats = ServiceStats()

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Nothing to release: the serial backend holds no resources, so a
        closed serial engine keeps sampling in-process, and every
        multiprocess pass closes its own pool."""

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ----------------------------------------------------------------- public
    def stats_snapshot(self) -> dict[str, Any]:
        """Engine + cache counters as one JSON-able dict (the `stats` op)."""
        return {"service": self.stats.to_dict(), "cache": self.cache.stats.to_dict()}

    def install_graph(self, dataset: str, graph: Any) -> str:
        """Serve ``dataset`` from an in-memory graph instead of the replica
        loader; returns the graph's fingerprint.

        This is the dynamic-serving hook (docs/dynamic.md): each committed
        epoch re-installs the compacted graph, and because sketch
        fingerprints hash the graph fingerprint, all downstream caching
        re-keys itself automatically.  Memoised resolutions of the same
        dataset name are dropped so no query can see the previous epoch's
        graph.
        """
        ds = str(dataset).lower()
        fp = graph_fingerprint(graph)
        self._installed[ds] = (graph, fp)
        for key in [k for k in self._graphs if k[0] == ds]:
            del self._graphs[key]
            del self._graph_fps[key]
        return fp

    def installed_graph(self, dataset: str) -> tuple[Any, str] | None:
        """The ``(graph, fingerprint)`` installed for ``dataset``, if any
        (the rollout canary restores it on rollback)."""
        return self._installed.get(str(dataset).lower())

    def resolve_graph(
        self, dataset: str, model: str, seed: int
    ) -> tuple[Any, str]:
        """``(graph, graph fingerprint)`` for a query's dataset: the
        installed graph when there is one, else the replica dataset under
        ``model`` and ``seed``, loaded once per engine."""
        installed = self.installed_graph(dataset)
        if installed is not None:
            return installed
        key = (str(dataset).lower(), str(model).upper(), int(seed))
        graph = self._graphs.get(key)
        if graph is None:
            tel = telemetry.get()
            with tel.span("service.graph_load", dataset=key[0], model=key[1]):
                graph = load_dataset(key[0], model=key[1], seed=key[2])
            self._graphs[key] = graph
            self._graph_fps[key] = graph_fingerprint(graph)
        return graph, self._graph_fps[key]

    def warm(
        self,
        fingerprint: str,
        store: Any,
        *,
        counter: np.ndarray | None = None,
        meta: dict[str, Any] | None = None,
    ) -> bool:
        """Pre-seed the in-memory cache with an externally built sketch.

        Returns whether the entry fit the cache budget.  Used by
        :class:`~repro.dynamic.serving.DynamicService` to publish each
        repaired epoch without a cold sampling pass.
        """
        if counter is None:
            counter = store.vertex_counts()
        entry = CacheEntry(store=store, counter=counter, meta=dict(meta or {}))
        ok = self.cache.put(fingerprint, entry)
        self._sync_cache_telemetry()
        return ok

    # --------------------------------------------------------------- internals
    def _serve_group(self, pending: list[Pending], out: list) -> None:
        """Serve one fingerprint group: acquire its sketch, select once."""
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("service.batches").inc()
            tel.registry.histogram("service.batch_size").observe(len(pending))
            wait = time.monotonic() - pending[0].submitted_at
            tel.registry.histogram("service.queue_wait_s").observe(wait)

        pending = self._split_expired(pending, out)
        if not pending:
            return
        q0 = pending[0].query
        try:
            graph, graph_fp = self.resolve_graph(q0.dataset, q0.model, q0.seed)
        except ReproError as exc:
            self._fail(pending, exc, out)
            return
        live = self._bound_k(pending, graph.num_vertices, out)
        if not live:
            return

        num_sets = q0.theta_cap or self.config.default_theta
        fp = sketch_fingerprint(
            graph_fp, q0.model, q0.epsilon, q0.seed, num_sets
        )
        with tel.span("service.batch", fingerprint=fp, size=len(live)):
            try:
                entry, cached, degraded = self._acquire_sketch(
                    fp, graph, q0, num_sets
                )
            except (ReproError, OSError) as exc:
                # Cold sampling failed and no stale artifact could stand in:
                # the whole group gets error responses, nothing raises out.
                self._fail(live, exc, out)
                return

            live = self._split_expired(live, out)
            if not live:
                return

            k_max = max(p.query.k for p in live)
            with tel.span("service.selection", k=k_max, num_sets=len(entry.store)):
                selection = efficient_select(
                    entry.store, k_max, 1, initial_counter=entry.counter
                )
        self._answer(
            live, selection.seeds,
            [r["new_covered_sets"] for r in selection.rounds], out,
            num_vertices=graph.num_vertices, num_sets=len(entry.store),
            cached=cached, degraded=degraded,
        )

    def _acquire_sketch(
        self, fp: str, graph, query: IMQuery, num_sets: int
    ) -> tuple[CacheEntry, bool, bool]:
        """Memory cache -> artifact -> cold sampling -> stale fallback.

        Returns ``(entry, warm, degraded)``.  When cold sampling fails and
        a compatible stale artifact exists, that entry is returned with
        ``degraded=True`` and is *not* cached under ``fp`` — the next query
        for this fingerprint attempts the real sketch again.
        """
        tel = telemetry.get()
        entry = self.cache.get(fp)
        if entry is not None:
            self._tel_inc("service.cache.hits")
            return entry, True, False
        self._tel_inc("service.cache.misses")

        if self.artifacts is not None and self.artifacts.has_sketch(fp):
            try:
                with tel.span("service.artifact_load", fingerprint=fp):
                    store, counter, meta = self.artifacts.load_sketch(fp)
                if counter is None:
                    counter = store.vertex_counts()
                entry = CacheEntry(store=store, counter=counter, meta=meta)
                self.stats.artifact_loads += 1
                self._tel_inc("service.artifacts.loads")
                self.cache.put(fp, entry)
                self._sync_cache_telemetry()
                return entry, True, False
            except ArtifactError:
                # Corrupt artifact: report, fall back to cold sampling.
                self.stats.artifact_corrupt += 1
                self._tel_inc("service.artifacts.corrupt")

        # Cold path: sample on the runtime backend, under the engine's
        # retry policy and fault plan (docs/resilience.md).
        try:
            store = parallel_generate(
                graph,
                str(query.model).upper(),
                num_sets,
                num_workers=self.config.num_workers,
                seed=int(query.seed),
                backend=self._backend,
                retry=self.retry,
                faults=self.faults,
            )
        except (ReproError, OSError) as exc:
            stale = self._stale_fallback(query)
            if stale is not None:
                return stale, False, True
            raise
        store.trim()
        counter = store.vertex_counts()
        entry = CacheEntry(
            store=store,
            counter=counter,
            meta={
                "dataset": query.dataset, "model": str(query.model).upper(),
                "epsilon": float(query.epsilon), "seed": int(query.seed),
                "num_sets": num_sets, "num_workers": self.config.num_workers,
            },
        )
        self.stats.cold_samples += 1
        self._tel_inc("service.cold_samples")
        if self.artifacts is not None and self.config.persist:
            self.artifacts.save_sketch(
                fp, store, counter=counter, meta=entry.meta
            )
            self.stats.artifact_saves += 1
            self._tel_inc("service.artifacts.saves")
        self.cache.put(fp, entry)
        self._sync_cache_telemetry()
        return entry, False, False

    def _stale_fallback(self, query: IMQuery) -> CacheEntry | None:
        """The freshest stale sketch compatible with a failed query, if any.

        Compatible means same dataset and diffusion model; the sketch
        parameters (epsilon, seed, size) may differ — that imprecision is
        exactly what the response's ``degraded: true`` flag discloses.
        """
        if self.artifacts is None:
            return None
        stale_fp = self.artifacts.newest_sketch(
            dataset=query.dataset, model=str(query.model).upper()
        )
        if stale_fp is None:
            return None
        try:
            store, counter, meta = self.artifacts.load_sketch(stale_fp)
        except ArtifactError:
            self.stats.artifact_corrupt += 1
            self._tel_inc("service.artifacts.corrupt")
            return None
        if counter is None:
            counter = store.vertex_counts()
        self.stats.artifact_loads += 1
        self._tel_inc("service.artifacts.loads")
        return CacheEntry(store=store, counter=counter, meta=meta)

    def _sync_cache_telemetry(self) -> None:
        tel = telemetry.get()
        if tel.enabled:
            st = self.cache.stats
            reg = tel.registry
            # Evictions/rejections are maintained by the cache itself, so
            # mirror the cumulative values as gauges (idempotent).
            reg.gauge("service.cache.bytes").set(st.bytes)
            reg.gauge("service.cache.entries").set(st.entries)
            reg.gauge("service.cache.evictions").set(st.evictions)
            reg.gauge("service.cache.rejected").set(st.rejected)

    def _project_stats(self) -> None:
        tel = telemetry.get()
        if tel.enabled:
            telemetry.record_service_stats(
                tel.registry, self.stats, self.cache.stats
            )
