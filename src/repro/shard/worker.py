"""One shard replica: a :class:`QueryEngine` over the shard's sub-sketch.

A :class:`ShardWorker` is the in-process stand-in for one serving process
of the cluster.  It owns a private :class:`~repro.service.engine.QueryEngine`
whose warm layers hold only *this shard's* slice of each sketch — the
byte-budget LRU cache, the fingerprint-keyed artifact store, graph
resolution (:meth:`~repro.service.engine.QueryEngine.resolve_graph`), and
the engine's stats/telemetry all come along for free, keyed by
:func:`~repro.shard.plan.shard_fingerprint` so sub-sketches of different
plans never collide.  A slice enters the replica either through the
engine's ladder (an artifact load or a cold build) or handed over through
:meth:`ShardWorker.adopt`.

Acquisition goes through the wrapped engine's one ladder
(:meth:`~repro.service.engine.QueryEngine.acquire`, docs/serving.md), with
the worker's shared-memory step slotted in after the cache:

1. the worker engine's in-memory cache (warm);
2. a shared-memory segment published under the shard fingerprint (when the
   worker was given a :class:`~repro.shm.SegmentManager`) — attached as a
   zero-copy read-only view, so replicas of the same shard share one copy
   of the sub-sketch bytes (docs/memory.md);
3. a ``sketch-<shard_fp>.npz`` artifact written by ``repro shard build``
   (or a previous cold pass) — integrity-checked, survives restarts;
4. cold: the worker samples exactly the global set indices its shard
   owns, streaming them batch by batch into its store, so both its work
   and its peak sketch memory stay ``O(owned sets)`` (the HBMax
   memory-per-worker discipline).  Every set is keyed by ``(seed, index)``
   (:mod:`repro.kernels`), so the owned sets are byte-identical to the ones
   :func:`repro.core.parallel_sampling.parallel_generate` draws at those
   indices, which is what makes scatter-gathered selection equal the
   single-node engine.

The engine counts every cache lookup, artifact load, save and corrupt
artifact, and cold build (``service.*``, reported under
:meth:`ShardWorker.stats_snapshot`'s ``"engine"``); the worker counts only
what is its own: sessions, replays, shm attaches and faults.

The scatter protocol (``session_open`` / ``session_cover``) is
deliberately self-healing: every call carries the selection history, so a
replica that never saw the session — or fell out of sync after a
presumed-failed call — silently rebuilds its state by replaying the
history against its (identical) sub-sketch.  That replay is the whole
failover story; the router never orchestrates recovery beyond re-sending
the same call to the next replica.  ``session_open`` reports the slice
instance it opened over (:attr:`OpenInfo.version`), which is how the
router tells that a selection it kept still answers for every shard.

``kill()`` / ``fail_after()`` are deterministic fault hooks in the spirit
of :mod:`repro.resilience.faults`: a dead worker raises
:class:`~repro.errors.BackendError` (retryable under the default policy)
on every operation until ``revive()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import telemetry
from repro.core.selection import CoverStep
from repro.diffusion.base import get_model
from repro.errors import BackendError, ParameterError
from repro.kernels import KernelSampler, indexed_draws
from repro.service.artifacts import sketch_fingerprint
from repro.service.cache import CacheEntry
from repro.service.engine import EngineConfig, QueryEngine
from repro.service.protocol import IMQuery
from repro.shard.plan import ShardPlan, shard_fingerprint
from repro.sketch.store import FlatRRRStore

__all__ = ["SketchSpec", "OpenInfo", "CoverResult", "ShardWorker", "WorkerStats"]


@dataclass(frozen=True)
class SketchSpec:
    """Everything that determines one serving sketch (a query batch key)."""

    dataset: str
    model: str = "IC"
    epsilon: float = 0.5
    seed: int = 0
    num_sets: int = 2000

    @classmethod
    def from_query(cls, query: IMQuery, default_theta: int) -> "SketchSpec":
        return cls(
            dataset=query.dataset.lower(),
            model=str(query.model).upper(),
            epsilon=float(query.epsilon),
            seed=int(query.seed),
            num_sets=int(query.theta_cap or default_theta),
        )

    @classmethod
    def from_meta(
        cls, dataset: str, meta: dict[str, Any], num_sets: int
    ) -> "SketchSpec":
        """The spec a published sketch's meta describes (publish hooks);
        ``num_sets`` stands in when the meta does not say."""
        return cls(
            dataset=dataset,
            model=str(meta.get("model", "IC")).upper(),
            epsilon=float(meta.get("epsilon", 0.5)),
            seed=int(meta.get("seed", 0)),
            num_sets=int(meta.get("num_sets", num_sets)),
        )

    def key(self) -> tuple:
        return (self.dataset, self.model, self.epsilon, self.seed, self.num_sets)

    def slice_meta(
        self, plan: ShardPlan, shard: int, extra: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """The meta stored with this sketch's slice on ``shard``: ``extra``
        (a publisher's meta), overridden by the spec and the layout."""
        return {
            **(extra or {}),
            "dataset": self.dataset, "model": self.model,
            "epsilon": self.epsilon, "seed": self.seed,
            "num_sets": self.num_sets, "shard": shard,
            "num_shards": plan.num_shards,
        }


@dataclass
class OpenInfo:
    """What a worker reports when a selection session opens."""

    counter: np.ndarray
    num_local_sets: int
    num_vertices: int
    warm: bool
    sketch_bytes: int
    fingerprint: str        # full-sketch fingerprint (cluster-wide)
    shard_fingerprint: str  # this shard's sub-sketch key
    version: int            # the slice instance (CacheEntry.version)


@dataclass
class CoverResult:
    """One shard's contribution to one selection round."""

    dec: np.ndarray        # concatenated entries of newly covered local sets
    new_covered: int       # how many local sets seed v newly covered
    replayed: bool = False # state was rebuilt from history before covering


@dataclass
class WorkerStats:
    """Cumulative per-worker behaviour (plain counters)."""

    opens: int = 0
    covers: int = 0
    replays: int = 0
    shm_attaches: int = 0
    faults: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "opens": self.opens, "covers": self.covers,
            "replays": self.replays, "shm_attaches": self.shm_attaches,
            "faults": self.faults,
        }


@dataclass
class _Session:
    """Selection state for one scatter-gather query group."""

    spec: SketchSpec
    entry: CacheEntry
    history: list[int] = field(default_factory=list)  # seeds applied so far

    def __post_init__(self) -> None:
        self.active = np.ones(len(self.entry.store), dtype=bool)
        # The membership path is decided once per session, not per round.
        self.step = CoverStep(self.entry.store)


class ShardWorker:
    """One replica of one shard, wrapping a private :class:`QueryEngine`."""

    def __init__(
        self,
        shard_id: int,
        plan: ShardPlan,
        *,
        replica_id: int = 0,
        config: EngineConfig | None = None,
        segment_manager=None,
    ):
        if not (0 <= shard_id < plan.num_shards):
            raise ParameterError(
                f"shard_id {shard_id} out of range [0, {plan.num_shards})"
            )
        # ``plan.replication`` is the *initial* replication; the control
        # plane may scale a shard past it (ShardCluster.add_replica), so
        # replica ids are only bounded below.
        if replica_id < 0:
            raise ParameterError(f"replica_id must be >= 0, got {replica_id}")
        self.shard_id = int(shard_id)
        self.replica_id = int(replica_id)
        self.plan = plan
        self.name = plan.worker_name(shard_id, replica_id)
        self.engine = QueryEngine(config=config or EngineConfig())
        self.segment_manager = segment_manager
        self.stats = WorkerStats()
        self._sessions: dict[str, _Session] = {}
        self._views: list[Any] = []  # attached shm views, detached on close
        self._dead = False
        self._fail_after: int | None = None

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        self._sessions.clear()
        views, self._views = self._views, []
        for view in views:
            view.detach()
        self.engine.close()

    def detach_views(self, segment_name: str) -> None:
        """Detach this worker's views of one shm segment (a superseded
        sketch slice being released)."""
        keep = []
        for view in self._views:
            if view.segment_name == segment_name:
                view.detach()
            else:
                keep.append(view)
        self._views = keep

    def __enter__(self) -> "ShardWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dead" if self._dead else "up"
        return f"ShardWorker({self.name}, {state})"

    # ------------------------------------------------------------ fault hooks
    def kill(self) -> None:
        """Every subsequent operation fails with :class:`BackendError`."""
        self._dead = True

    def revive(self) -> None:
        self._dead = False
        self._fail_after = None

    def fail_after(self, ops: int) -> None:
        """Die permanently after ``ops`` more successful operations —
        the deterministic "replica killed mid-stream" drill."""
        if ops < 0:
            raise ParameterError(f"ops must be >= 0, got {ops}")
        self._fail_after = int(ops)

    @property
    def dead(self) -> bool:
        return self._dead

    def _checkpoint(self) -> None:
        """Raise if this worker is (or just became) dead."""
        if self._fail_after is not None:
            if self._fail_after <= 0:
                self._dead = True
                self._fail_after = None
            else:
                self._fail_after -= 1
        if self._dead:
            self.stats.faults += 1
            raise BackendError(f"shard worker {self.name} is down")

    def ping(self) -> str:
        """Cheap health probe; raises when the worker is down."""
        self._checkpoint()
        return self.name

    # ---------------------------------------------------------------- graphs
    def install_graph(self, dataset: str, graph: Any) -> str:
        """Serve ``dataset`` from an in-memory graph (the dynamic epoch
        fan-out hook); returns the graph fingerprint.  Graphs resolve
        through the wrapped engine (:meth:`QueryEngine.resolve_graph`)."""
        return self.engine.install_graph(dataset, graph)

    # ------------------------------------------------------------ acquisition
    def adopt(
        self,
        sub_fp: str,
        store: Any,
        meta: dict[str, Any],
        *,
        counter: np.ndarray | None = None,
        handle=None,
    ) -> CacheEntry:
        """Warm this replica with one sketch slice; returns its entry.

        This is how a slice is handed to a replica (a shm segment found
        on acquisition, cluster builds and publishes, re-warms, canaries);
        an artifact or a cold build enters through the engine's
        :meth:`~repro.service.engine.QueryEngine.acquire`.  With a shm
        ``handle`` the replica serves its own zero-copy view of the
        published segment instead of ``store``; the view is detached on
        :meth:`close`.  A slice the cache budget rejects is still
        returned, uncached.
        """
        if handle is not None:
            store = self.segment_manager.attach_store(handle)
            self._views.append(store)
            self.stats.shm_attaches += 1
        if counter is None:
            counter = store.vertex_counts()
        if self.engine.warm(sub_fp, store, counter=counter, meta=meta):
            return self.engine.cache.peek(sub_fp)
        return CacheEntry(store=store, counter=counter, meta=meta)

    def _acquire(self, spec: SketchSpec) -> tuple[CacheEntry, bool, str, str]:
        """(entry, warm, fp, shard_fp): cache → shm segment → artifact →
        cold stream, all but the segment through the engine's ladder."""
        graph, gfp = self.engine.resolve_graph(spec.dataset, spec.model, spec.seed)
        fp = sketch_fingerprint(
            gfp, spec.model, spec.epsilon, spec.seed, spec.num_sets
        )
        sub_fp = shard_fingerprint(fp, self.shard_id, self.plan)
        meta = spec.slice_meta(self.plan, self.shard_id)
        if self.segment_manager is not None and sub_fp not in self.engine.cache:
            handle = self.segment_manager.handle_for(sub_fp)
            if handle is not None:
                entry = self.adopt(sub_fp, None, meta, handle=handle)
                return entry, True, fp, sub_fp
        entry, warm = self.engine.acquire(
            sub_fp, meta, lambda: self._build_subsketch(graph, spec, fp)
        )
        return entry, warm, fp, sub_fp

    def _build_subsketch(
        self, graph: Any, spec: SketchSpec, fingerprint: str
    ) -> FlatRRRStore:
        """Cold path: draw this shard's slice of the global sketch.

        Only the *owned* global indices are sampled, batch by batch, so the
        work and the memory are O(owned) and the result matches what a
        single-node engine draws at those indices.
        """
        with telemetry.get().span(
            "shard.cold_build",
            worker=self.name, fingerprint=fingerprint, num_sets=spec.num_sets,
        ):
            n = graph.num_vertices
            store = FlatRRRStore(n)
            mask = self.plan.owned_mask(fingerprint, spec.num_sets, self.shard_id)
            owned = np.flatnonzero(mask).astype(np.int64)
            sampler = KernelSampler(get_model(spec.model, graph))
            for flat, sizes, _ in sampler.stream(*indexed_draws(spec.seed, owned, n)):
                store.append_csr(flat, sizes)
        return store

    # ------------------------------------------------------- scatter protocol
    def session_open(self, session_id: str, spec: SketchSpec) -> OpenInfo:
        """Start (or restart) a selection session; returns this shard's
        partial fused counter with the slice's shape."""
        self._checkpoint()
        entry, warm, fp, sub_fp = self._acquire(spec)
        self._sessions[session_id] = _Session(spec=spec, entry=entry)
        self.stats.opens += 1
        return OpenInfo(
            counter=entry.counter.copy(),
            num_local_sets=len(entry.store),
            num_vertices=entry.store.num_vertices,
            warm=warm,
            sketch_bytes=entry.store.nbytes(),
            fingerprint=fp,
            shard_fingerprint=sub_fp,
            version=entry.version,
        )

    def _sync_session(
        self, session_id: str, spec: SketchSpec, history: tuple[int, ...]
    ) -> tuple[_Session, bool]:
        """The session, replayed from ``history`` when absent or diverged."""
        sess = self._sessions.get(session_id)
        if sess is not None and sess.spec == spec and sess.history == list(history):
            return sess, False
        # Fresh replica (failover) or diverged state (a call the router
        # timed out on still mutated us): rebuild deterministically.
        entry, _, _, _ = self._acquire(spec)
        sess = _Session(spec=spec, entry=entry)
        for v in history:
            self._cover(sess, int(v))
        self._sessions[session_id] = sess
        self.stats.replays += 1
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("shard.worker.replays").inc()
        return sess, True

    def _cover(self, sess: _Session, v: int) -> tuple[np.ndarray, int]:
        new_sets = sess.step.retire(v, sess.active)
        sess.history.append(int(v))
        return sess.step.entries(new_sets), int(new_sets.size)

    def session_cover(
        self,
        session_id: str,
        spec: SketchSpec,
        history: tuple[int, ...],
        v: int,
    ) -> CoverResult:
        """Apply seed ``v``: retire local sets containing it and return
        their concatenated entries (the router's counter decrements) plus
        the newly covered count.  ``history`` is every seed already applied
        to this session, enabling transparent replay on a fresh replica."""
        self._checkpoint()
        sess, replayed = self._sync_session(session_id, spec, tuple(history))
        dec, new_covered = self._cover(sess, int(v))
        self.stats.covers += 1
        return CoverResult(dec=dec, new_covered=new_covered, replayed=replayed)

    def session_close(self, session_id: str) -> None:
        self._sessions.pop(session_id, None)

    # ------------------------------------------------------------------ misc
    def stats_snapshot(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "shard": self.shard_id,
            "replica": self.replica_id,
            "dead": self._dead,
            "worker": self.stats.to_dict(),
            "engine": self.engine.stats_snapshot(),
        }
