"""The query engine: batched, cached, deadline-aware IM query serving.

One :class:`QueryEngine` acquires every sketch through one ladder,
:meth:`QueryEngine.acquire`, in order of decreasing speed:

1. the in-memory :class:`~repro.service.cache.SketchCache` (LRU, byte
   budget) — a hit skips sampling;
2. the on-disk :class:`~repro.service.artifacts.ArtifactStore` — an
   integrity-checked load skips sampling (and survives process restarts);
3. the caller's build: for the engine's own queries, cold sampling through
   :func:`repro.core.parallel_sampling.parallel_generate` on a
   :mod:`repro.runtime.backends` backend; for a shard replica
   (:mod:`repro.shard.worker`), the stream of the sets its shard owns.

Queries submitted together are grouped by sketch fingerprint, and every
group is answered from one greedy selection over its sketch.  Greedy is
prefix-consistent, so the ``k``-seed answer is that selection's first
``k`` seeds, with its coverage read off the per-round accounting, which
the shared :class:`~repro.service.front.QueryFront` turns into per-query
answers.  The front also keeps, per batch key, the longest selection
served, stamped with the :attr:`~repro.service.cache.CacheEntry.version`
of the entry it was made over: a group runs
:func:`~repro.core.selection.efficient_select` only when it acquires
another entry or its ``k_max`` is longer than that, and a warm read at any
``k`` up to the longest served so far runs no greedy round.  Eviction, a
re-warm under the same fingerprint, or a new epoch of a dynamic dataset
brings a new entry and so a new selection; a selection over an entry the
cache does not hold (a degraded stale entry, or one the budget rejected)
is not kept.

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
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

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
from repro.sketch.store import FlatRRRStore

__all__ = ["MAX_GRAPHS", "EngineConfig", "QueryEngine", "ServiceStats"]

#: Most replica graphs an engine keeps resolved; past it the least recently
#: resolved one is dropped.  Installed graphs are not counted.
MAX_GRAPHS = 8


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
        self._graphs: OrderedDict[tuple, Any] = OrderedDict()
        # Installed graphs (repro.dynamic): dataset name -> (graph, fp).
        # An installed graph overrides replica-dataset resolution for every
        # query naming that dataset, whatever its model/seed.
        self._installed: dict[str, tuple[Any, str]] = {}
        self.stats = ServiceStats()
        super().__init__()

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
        ``model`` and ``seed``, loaded once and kept while it is among the
        :data:`MAX_GRAPHS` most recently resolved."""
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
        self._graphs.move_to_end(key)
        while len(self._graphs) > MAX_GRAPHS:
            # A graph and its memoised transpose refer to each other: unlink
            # them, so the dropped pair is freed now rather than at the next
            # full garbage collection (a holder still using it re-derives
            # the transpose).
            self._graphs.popitem(last=False)[1]._transpose = None
        return graph, graph_fingerprint(graph)

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
        """Serve one fingerprint group: acquire its sketch, then answer
        from its kept selection, re-run first when ``k_max`` outruns it."""
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
        model = str(q0.model).upper()
        fp = sketch_fingerprint(graph_fp, model, q0.epsilon, q0.seed, num_sets)
        meta = {
            "dataset": q0.dataset, "model": model,
            "epsilon": float(q0.epsilon), "seed": int(q0.seed),
            "num_sets": num_sets, "num_workers": self.config.num_workers,
        }

        def sample() -> FlatRRRStore:
            # Cold path: sample on the runtime backend, under the engine's
            # retry policy and fault plan (docs/resilience.md).
            return parallel_generate(
                graph, model, num_sets, num_workers=self.config.num_workers,
                seed=int(q0.seed), backend=self._backend,
                retry=self.retry, faults=self.faults,
            )

        with tel.span("service.batch", fingerprint=fp, size=len(live)):
            try:
                entry, cached, degraded = self._acquire_or_stale(fp, meta, sample)
            except (ReproError, OSError) as exc:
                # Cold sampling failed and no stale artifact could stand in:
                # the whole group gets error responses, nothing raises out.
                self._fail(live, exc, out)
                return

            live = self._split_expired(live, out)
            if not live:
                return

            # The batch key with theta_cap resolved, like the router's spec
            # key: a query that omits it and one that names the default
            # share one record, and a dynamic dataset's next epoch (same
            # key, new entry) replaces it.
            key = q0.batch_key()[:-1] + (num_sets,)
            # Select only past the longest k served from this entry so
            # far; every shorter k reads the kept selection's prefix.
            k_max = max(p.query.k for p in live)
            selection = self._kept_selection(key, entry.version, k_max)
            if selection is None:
                with tel.span(
                    "service.selection", k=k_max, num_sets=len(entry.store)
                ):
                    sel = efficient_select(
                        entry.store, k_max, 1, initial_counter=entry.counter
                    )
                selection = sel.seeds, np.array(
                    [r["new_covered_sets"] for r in sel.rounds], np.int64
                )
                # Only the entry the cache holds is acquired again: a record
                # over a stale or budget-rejected one would only push a
                # live record out.
                if self.cache.peek(fp) is entry:
                    self._keep_selection(key, entry.version, *selection)
        seeds, newly = selection
        self._answer(
            live, seeds, newly, out,
            num_vertices=graph.num_vertices, num_sets=len(entry.store),
            cached=cached, degraded=degraded,
        )

    def acquire(
        self, fp: str, meta: dict[str, Any], build: Callable[[], FlatRRRStore]
    ) -> tuple[CacheEntry, bool]:
        """``(entry, warm)`` for sketch ``fp``: the memory cache, else its
        artifact (verified by :func:`~repro.service.artifacts.load_store`),
        else ``build()``.

        This is the one ladder every sketch is acquired through, the
        engine's own and each shard replica's slice, and the one place
        that counts cache hits and misses, artifact loads, saves and
        corrupt artifacts, and cold samples.  A built store is trimmed,
        counted from its sets, written under ``meta`` when the engine
        persists (:meth:`write_sketch`) and then cached.  An entry the
        cache budget rejects is still returned, uncached.
        """
        entry = self.cache.get(fp)
        if entry is not None:
            self._tel_inc("service.cache.hits")
            return entry, True
        self._tel_inc("service.cache.misses")
        entry = self._load_artifact(fp)
        warm = entry is not None
        if not warm:
            store = build().trim()
            counter = store.vertex_counts()
            self.stats.cold_samples += 1
            self._tel_inc("service.cold_samples")
            self.write_sketch(fp, store, counter, meta)
            entry = CacheEntry(store=store, counter=counter, meta=meta)
        self.cache.put(fp, entry)
        self._sync_cache_telemetry()
        return entry, warm

    def write_sketch(
        self, fp: str, store: FlatRRRStore, counter: np.ndarray,
        meta: dict[str, Any],
    ) -> None:
        """Write ``fp``'s artifact when the engine persists (an artifact
        dir and ``persist``), counted as one artifact save."""
        if self.artifacts is None or not self.config.persist:
            return
        self.artifacts.save_sketch(fp, store, counter=counter, meta=meta)
        self.stats.artifact_saves += 1
        self._tel_inc("service.artifacts.saves")

    def _load_artifact(self, fp: str) -> CacheEntry | None:
        """``fp``'s artifact as an entry, or ``None`` when there is none
        or it fails verification (counted as corrupt)."""
        if self.artifacts is None or not self.artifacts.has_sketch(fp):
            return None
        try:
            with telemetry.get().span("service.artifact_load", fingerprint=fp):
                store, counter, meta = self.artifacts.load_sketch(fp)
        except ArtifactError:
            self.stats.artifact_corrupt += 1
            self._tel_inc("service.artifacts.corrupt")
            return None
        self.stats.artifact_loads += 1
        self._tel_inc("service.artifacts.loads")
        if counter is None:
            counter = store.vertex_counts()
        return CacheEntry(store=store, counter=counter, meta=meta)

    def _acquire_or_stale(
        self, fp: str, meta: dict[str, Any], build: Callable[[], FlatRRRStore]
    ) -> tuple[CacheEntry, bool, bool]:
        """``(entry, warm, degraded)``: :meth:`acquire`, or, when that fails,
        the freshest stale artifact of ``meta``'s dataset and model.

        The stale sketch's other parameters (epsilon, seed, size) may
        differ — that imprecision is exactly what the response's
        ``degraded: true`` flag discloses — and it is *not* cached under
        ``fp``, so the next query for this fingerprint attempts the real
        sketch again.  With no stale sketch, the failure is re-raised.
        """
        try:
            return (*self.acquire(fp, meta, build), False)
        except (ReproError, OSError):
            if self.artifacts is None:
                raise
            stale_fp = self.artifacts.newest_sketch(
                dataset=meta["dataset"], model=meta["model"]
            )
            stale = None if stale_fp is None else self._load_artifact(stale_fp)
            if stale is None:
                raise
            return stale, False, True

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
