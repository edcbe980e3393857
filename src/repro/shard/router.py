"""Scatter-gather query routing over a shard cluster.

The :class:`Router` shares the :class:`~repro.service.engine.QueryEngine`'s
``execute(queries) -> responses`` front (:class:`~repro.service.front.QueryFront`:
validation, grouping, deadlines, answers), but instead of one full sketch
it drives one selection *session* per query group across every shard.
The merge is exact, not approximate:

- the global fused counter is the **int64 sum** of per-shard partial
  counters (disjoint set ownership makes occurrence counts additive);
- the router runs :func:`~repro.core.selection.greedy_cover`, the same
  loop :func:`~repro.core.selection.efficient_select` runs; only its
  cover step differs — scatter the pick, gather each shard's newly
  covered entries, subtract — so integer arithmetic, tie-breaking (lowest
  id via ``np.argmax``), and the all-covered fill path are the single-node
  kernel's own.  Under a fixed seed the returned seed sets are therefore
  **byte-identical** to the single-node engine's.

Failure handling (docs/sharding.md):

- **replica failover**: every scatter call may be retried on the shard's
  other replicas; the :class:`~repro.resilience.retry.RetryPolicy` decides
  which errors are worth failing over (``BackendError``/``TimeoutError``
  yes, ``ParameterError`` no) and how long to back off between replicas.
  Because every call carries the full selection history, the surviving
  replica transparently replays the session and the answer is unchanged —
  a replica death mid-stream is invisible in the response.
- **shard loss**: when *every* replica of a shard is down the router
  drops the shard and **restarts the greedy selection from round zero**
  over the survivors (nothing has been returned to the client yet, and
  the surviving workers self-heal to the empty history on the next
  call).  No answer ever mixes full-sketch and survivor-sketch
  decisions: a degraded response is byte-identical to what a cluster of
  only the surviving shards would have served, marked ``degraded:true``
  (the same disclosure contract as the engine's stale-artifact
  fallback).
- **session cleanup**: every shard that opened a group's session is told
  to close it when the group is answered, including a shard lost
  mid-query, so no replica keeps a session (and the slice it holds)
  after the query that opened it.
- **kept selections**: greedy is prefix-consistent, so the router keeps,
  per sketch spec, the longest selection it has served and answers a
  group whose ``k_max`` it covers from its prefix, with no cover call.
  It does so only while every shard opens over the very slice instances
  that selection was made over.  Each open reports its slice's
  ``version``, which is unique within the process: every way a slice
  enters a replica (build, publish, re-warm, canary, re-acquire after
  eviction) makes a new one, and each replica's copy has its own.  A
  degraded pass, or one in which some cover had to replay its session,
  is never kept.  The keeping is the front's, shared with the engine
  (at most :data:`repro.service.front.MAX_KEPT` specs).
- **health tracking**: consecutive per-replica failures order future
  replica attempts (healthy first) and are reported in
  :meth:`stats_snapshot`; a soft per-call deadline flags slow workers.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import telemetry
from repro.core.selection import greedy_cover
from repro.errors import BackendError, ParameterError, ReproError
from repro.resilience.retry import RetryPolicy
from repro.service.artifacts import SketchSpec
from repro.service.front import Pending, QueryFront
from repro.shard.plan import ShardPlan
from repro.shard.worker import CoverResult, OpenInfo, ShardWorker

__all__ = ["Router", "RouterConfig", "RouterStats", "ShardDownError"]


class ShardDownError(BackendError):
    """Every replica of a shard refused a call (internal control flow).

    Subclasses :class:`BackendError` so it inherits its exit code and
    retryability; it never escapes :meth:`Router.execute`.
    """

    def __init__(self, shard: int, last: Exception):
        super().__init__(f"shard {shard} is down: {last}")
        self.shard = shard
        self.last = last


@dataclass(frozen=True)
class RouterConfig:
    """Routing knobs (the scatter-side analogue of ``EngineConfig``).

    Attributes
    ----------
    default_theta:
        Sketch size when a query has no ``theta_cap`` — must match the
        single-node engine being compared against for byte-identity.
    worker_deadline_s:
        Soft per-scatter-call budget.  In-process workers cannot be
        preempted, so a completed-but-late call is *used* (discarding it
        would redo deterministic work for the same answer) but counted as
        a deadline miss and charged against the replica's health.
    retry:
        Failover classification and backoff between replica attempts.
        ``max_attempts`` bounds attempts **per replica** (first try
        included); the router additionally tries every replica.
    unhealthy_after:
        Consecutive failures after which a replica is reported unhealthy
        and deprioritised when ordering failover candidates.
    allow_degraded:
        Serve partial-coverage answers over the surviving shards when a
        whole shard is down (``False`` turns shard loss into an error
        response).
    """

    default_theta: int = 2000
    worker_deadline_s: float | None = None
    retry: RetryPolicy = field(default_factory=lambda: RetryPolicy(max_attempts=1))
    unhealthy_after: int = 2
    allow_degraded: bool = True

    def __post_init__(self) -> None:
        if self.default_theta <= 0:
            raise ParameterError(
                f"default_theta must be positive, got {self.default_theta}"
            )
        if self.unhealthy_after <= 0:
            raise ParameterError(
                f"unhealthy_after must be positive, got {self.unhealthy_after}"
            )


@dataclass
class RouterStats:
    """Cumulative router behaviour (plain counters; the live ones are the
    ``shard.router.*`` telemetry counters)."""

    queries: int = 0
    ok: int = 0
    errors: int = 0
    timeouts: int = 0
    degraded: int = 0
    batches: int = 0
    scatter_calls: int = 0
    failovers: int = 0
    shard_losses: int = 0
    resyncs: int = 0
    deadline_misses: int = 0
    kept_hits: int = 0  # groups answered from a kept selection

    def to_dict(self) -> dict[str, int]:
        return {k: int(v) for k, v in self.__dict__.items()}


class _GroupSession:
    """Mutable per-group selection state shared by the serve helpers."""

    def __init__(self, sid: str, spec: SketchSpec, shards: list[int]):
        self.sid = sid
        self.spec = spec
        self.live = list(shards)          # shards still participating
        self.opens: dict[int, OpenInfo] = {}
        self.history: list[int] = []      # seeds applied so far
        self.lost_shard = False
        self.replayed = False             # a cover rebuilt its session

    @property
    def num_live_sets(self) -> int:
        return sum(self.opens[s].num_local_sets for s in self.live)


class Router(QueryFront):
    """Routes :class:`IMQuery` batches across a cluster of shard workers."""

    METRIC_PREFIX = "shard.router"

    def __init__(
        self,
        workers: Sequence[ShardWorker],
        *,
        config: RouterConfig | None = None,
        plan: ShardPlan | None = None,
    ):
        if not workers:
            raise ParameterError("a Router needs at least one worker")
        self.plan = plan or workers[0].plan
        for w in workers:
            if w.plan != self.plan:
                raise ParameterError(
                    f"worker {w.name} built for a different ShardPlan"
                )
        self.config = config or RouterConfig()
        self._replicas: dict[int, list[ShardWorker]] = {}
        for w in workers:
            self._replicas.setdefault(w.shard_id, []).append(w)
        missing = [
            s for s in range(self.plan.num_shards) if s not in self._replicas
        ]
        if missing:
            raise ParameterError(f"no workers for shards {missing}")
        for reps in self._replicas.values():
            reps.sort(key=lambda w: w.replica_id)
        self._failures: dict[str, int] = {w.name: 0 for w in workers}
        self.stats = RouterStats()
        self._session_seq = 0
        super().__init__(self.config.default_theta)

    # ----------------------------------------------------------------- public
    def add_worker(self, worker: ShardWorker) -> None:
        """Route to one more replica (control-plane scale-up).

        The worker must be built for this router's plan; replica ids may
        exceed the plan's initial ``replication``.
        """
        if worker.plan != self.plan:
            raise ParameterError(
                f"worker {worker.name} built for a different ShardPlan"
            )
        reps = self._replicas.setdefault(worker.shard_id, [])
        if any(w.name == worker.name for w in reps):
            raise ParameterError(f"worker {worker.name} already routed")
        reps.append(worker)
        reps.sort(key=lambda w: w.replica_id)
        self._failures.setdefault(worker.name, 0)

    def remove_worker(self, worker: ShardWorker) -> None:
        """Stop routing to a replica (control-plane scale-down); refuses
        to leave a shard with no replicas at all."""
        reps = self._replicas.get(worker.shard_id, [])
        if worker not in reps:
            raise ParameterError(f"worker {worker.name} is not routed")
        if len(reps) == 1:
            raise ParameterError(
                f"removing {worker.name} would leave shard "
                f"{worker.shard_id} without replicas"
            )
        reps.remove(worker)
        self._failures.pop(worker.name, None)

    def health_snapshot(self) -> dict[str, Any]:
        """Per-replica consecutive-failure counts and up/down state."""
        out = {}
        for shard, reps in sorted(self._replicas.items()):
            out[str(shard)] = {
                w.name: {
                    "consecutive_failures": self._failures[w.name],
                    "healthy": (
                        self._failures[w.name] < self.config.unhealthy_after
                    ),
                }
                for w in reps
            }
        return out

    def stats_snapshot(self) -> dict[str, Any]:
        """Router + per-shard health as one JSON-able dict."""
        return {
            "router": self.stats.to_dict(),
            "plan": self.plan.describe(),
            "health": self.health_snapshot(),
        }

    # ------------------------------------------------------------- scattering
    def _ordered_replicas(self, shard: int) -> list[ShardWorker]:
        """Healthy-first replica order (stable by replica id on ties)."""
        return sorted(
            self._replicas[shard], key=lambda w: self._failures[w.name]
        )

    def _call(self, shard: int, op: Callable[[ShardWorker], Any]) -> Any:
        """Run ``op`` on some replica of ``shard``, failing over through the
        others on retryable errors; raises :class:`ShardDownError` when
        every replica refused."""
        tel = telemetry.get()
        policy = self.config.retry
        deadline = self.config.worker_deadline_s
        last: Exception | None = None
        replicas = self._ordered_replicas(shard)
        for nth, worker in enumerate(replicas):
            for attempt in range(1, max(1, policy.max_attempts) + 1):
                self.stats.scatter_calls += 1
                start = time.monotonic()
                try:
                    result = op(worker)
                except Exception as exc:  # noqa: BLE001 - classified below
                    if not policy.is_retryable(exc):
                        raise
                    last = exc
                    self._failures[worker.name] += 1
                    if tel.enabled:
                        tel.registry.counter("shard.router.replica_errors").inc()
                    delay = policy.delay_for(attempt)
                    if delay > 0 and attempt < policy.max_attempts:
                        time.sleep(delay)
                    continue
                elapsed = time.monotonic() - start
                if tel.enabled:
                    tel.registry.histogram(
                        "shard.router.call_latency_s"
                    ).observe(elapsed)
                if deadline is not None and elapsed > deadline:
                    self.stats.deadline_misses += 1
                    self._failures[worker.name] += 1
                    if tel.enabled:
                        tel.registry.counter(
                            "shard.router.deadline_misses"
                        ).inc()
                else:
                    self._failures[worker.name] = 0
                if nth > 0:
                    self.stats.failovers += 1
                    if tel.enabled:
                        tel.registry.counter("shard.router.failovers").inc()
                return result
        raise ShardDownError(shard, last or BackendError("no replicas"))

    # ---------------------------------------------------------------- serving
    def _open_sessions(self, sess: _GroupSession) -> None:
        """Scatter ``session_open``; drops shards whose replicas are all
        down (handled by the caller via ``sess.live``)."""
        tel = telemetry.get()
        still_live = []
        for shard in sess.live:
            try:
                info = self._call(
                    shard, lambda w: w.session_open(sess.sid, sess.spec)
                )
            except ShardDownError:
                self._note_shard_loss(sess, shard)
                continue
            sess.opens[shard] = info
            still_live.append(shard)
        sess.live = still_live
        if tel.enabled:
            tel.registry.histogram("shard.router.gather_fanin").observe(
                len(still_live)
            )

    def _note_shard_loss(self, sess: _GroupSession, shard: int) -> None:
        sess.lost_shard = True
        self.stats.shard_losses += 1
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("shard.router.shard_losses").inc()

    def _sum_counters(self, sess: _GroupSession) -> np.ndarray:
        """Exact global counter: int64 sum of per-shard partials."""
        n = sess.opens[sess.live[0]].num_vertices
        counts = np.zeros(n, dtype=np.int64)
        for s in sess.live:
            counts += sess.opens[s].counter.astype(np.int64, copy=False)
        return counts

    def _select(
        self, sess: _GroupSession, k_max: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run :func:`greedy_cover` with a scatter as its cover step: apply
        seed ``v`` on every live shard and subtract the entries of the sets
        each one newly covered from the fused counter.  Returns the seeds
        and the sets each round newly covered.

        A shard lost mid-pass raises :class:`ShardDownError` out of the
        cover step, and the selection restarts from round zero over the
        survivors.  A restart (rather than splicing a partially
        full-sketch-informed prefix onto survivor-only rounds) keeps the
        degraded contract exact: the answer equals what a cluster holding
        only the surviving shards would have produced from scratch.
        Surviving workers self-heal to the empty history on the first
        post-restart call, and each restart removes at least one shard, so
        the loop is bounded.
        """
        tel = telemetry.get()

        def cover(v: int, counts: np.ndarray) -> int:
            history = tuple(sess.history)
            results: list[CoverResult] = [
                self._call(
                    s,
                    lambda w: w.session_cover(sess.sid, sess.spec, history, v),
                )
                for s in sess.live
            ]
            dec = np.concatenate([r.dec for r in results])
            if dec.size:
                counts -= np.bincount(dec, minlength=counts.size)
            sess.history.append(v)
            sess.replayed |= any(r.replayed for r in results)
            if tel.enabled:
                tel.registry.histogram("shard.router.gather_fanin").observe(
                    len(sess.live)
                )
            return sum(r.new_covered for r in results)

        while True:
            sess.history = []
            counts = self._sum_counters(sess)
            try:
                return greedy_cover(counts, k_max, sess.num_live_sets, cover)
            except ShardDownError as exc:
                sess.live = [s for s in sess.live if s != exc.shard]
                self._note_shard_loss(sess, exc.shard)
            if not sess.live:
                raise ShardDownError(
                    -1, BackendError("all shards lost mid-query")
                )
            self.stats.resyncs += 1
            self._tel_inc("shard.router.resyncs")

    def _selection(
        self, sess: _GroupSession, k_max: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """The group's selection: the kept one, when it was made over the
        slice instances every shard opened and runs to ``k_max``; else a
        :meth:`_select` pass from round zero, kept unless it lost a shard
        or replayed a session.  Only full passes are kept, so a group that
        lost a shard at open (its stamp lacks that shard) never reads one."""
        key = sess.spec.key()
        stamp = tuple((s, sess.opens[s].version) for s in sess.live)
        kept = self._kept_selection(key, stamp, k_max)
        if kept is not None:
            self.stats.kept_hits += 1
            self._tel_inc("shard.router.kept_hits")
            return kept
        seeds, newly = self._select(sess, k_max)
        if not (sess.lost_shard or sess.replayed):
            self._keep_selection(key, stamp, seeds, newly)
        return seeds, newly

    def _refuse_degraded(
        self, sess: _GroupSession, cause: Exception | None = None
    ) -> None:
        """Raise when a shard was lost and degraded answers are disabled."""
        if sess.lost_shard and not self.config.allow_degraded:
            reason = "shard down and degraded answers are disabled"
            raise BackendError(f"{reason} ({cause})" if cause else reason)

    def _serve_group(
        self, spec: SketchSpec, pending: list[Pending], out: list
    ) -> None:
        """Serve one query group: open a session on every shard, then read
        the kept selection or run the scatter :meth:`_select` once."""
        pending = self._split_expired(pending, out)
        if not pending:
            return
        self._session_seq += 1
        sess = _GroupSession(
            f"g{self._session_seq}", spec, list(range(self.plan.num_shards))
        )
        live = pending
        with telemetry.get().span(
            "shard.route", dataset=spec.dataset, size=len(pending)
        ):
            try:
                self._open_sessions(sess)
                if not sess.live:
                    raise BackendError(
                        "all shards down: no replica could open the session"
                    )
                self._refuse_degraded(sess)
                if sess.num_live_sets == 0:
                    raise ParameterError(
                        "cannot select seeds from an empty RRR store"
                    )
                num_vertices = sess.opens[sess.live[0]].num_vertices
                live = self._bound_k(pending, num_vertices, out)
                if not live:
                    return
                cached = all(sess.opens[s].warm for s in sess.live)
                try:
                    seeds, newly = self._selection(
                        sess, max(p.query.k for p in live)
                    )
                except ReproError as exc:
                    self._refuse_degraded(sess, exc)
                    raise
                self._refuse_degraded(sess)
            except ReproError as exc:
                self._fail(live, exc, out)
                return
            finally:
                self._close_sessions(sess)
        self._answer(
            live, seeds, newly, out,
            num_vertices=num_vertices, num_sets=sess.num_live_sets,
            cached=cached, degraded=sess.lost_shard,
        )

    def _close_sessions(self, sess: _GroupSession) -> None:
        """Close the group's session on every replica of every shard that
        opened it — a shard lost mid-query included."""
        for s in sess.opens:
            for w in self._replicas[s]:
                w.session_close(sess.sid)
