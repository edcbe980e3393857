"""The query front: the per-query lifecycle every executor shares.

Every served answer reads the first ``k`` rounds of one greedy selection
of at least ``k_max`` rounds over one sketch: a selection kept from an
earlier group, or a fresh one — ``efficient_select`` over a
:class:`~repro.service.cache.CacheEntry` (a
:class:`~repro.service.engine.QueryEngine`'s acquired sketch, or the epoch
a :class:`~repro.dynamic.serving.DynamicService` published), one
scatter-gather pass over a :class:`~repro.shard.router.Router`'s shards.
What turns those rounds into per-query responses, and what keeps them,
is the same for all three, so it lives here once:

- validation, and grouping by
  :meth:`SketchSpec.from_query <repro.service.artifacts.SketchSpec.from_query>`
  under the ``default_theta`` the subclass passes in (one group per
  sketch, served by the subclass's ``_serve_group``);
- the deadline checks — an expired query is answered ``"timeout"``, never
  left hanging, while the rest of its group proceeds;
- the ``k``-against-vertex-count bound, which needs the resolved graph;
- the answer loop: query ``k`` gets the first ``k`` seeds and the
  coverage of the first ``k`` rounds (greedy selection is
  prefix-consistent: round ``i`` never depends on later rounds, so rounds
  past ``k_max`` do not change the answer);
- the ``ok``/``error``/``timeout`` responses and their per-query counters
  and telemetry, named under the subclass's :attr:`QueryFront.METRIC_PREFIX`
  (``<prefix>.queries``/``.errors``/``.timeouts``/``.degraded`` and the
  ``<prefix>.query_latency_s`` histogram, plus
  ``resilience.degraded_responses``);
- the kept selections.  Greedy is prefix-consistent, so the front keeps,
  per sketch spec key, the longest selection a group was answered from, with
  the stamp of the sketch instances it was made over: a
  ``CacheEntry.version``, or a router's ``(shard, version)`` per shard.
  A later group of the same key reads its prefix only when it acquires
  that same stamp and its ``k_max`` fits; any other group selects from
  round zero, and its selection replaces the kept one when the subclass
  says the pass may be kept.  At most :data:`MAX_KEPT` keys keep one; the
  least recently read is dropped first.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro import telemetry
from repro.core.selection import efficient_select
from repro.errors import ParameterError
from repro.service.artifacts import SketchSpec
from repro.service.cache import CacheEntry
from repro.service.protocol import IMQuery, IMResponse

__all__ = ["MAX_KEPT", "Pending", "QueryFront"]

#: Most sketch keys a front keeps a selection for (16 bytes a round each);
#: past it the least recently read one is dropped.
MAX_KEPT = 256


@dataclass
class Pending:
    """One in-flight query with its submission bookkeeping."""

    index: int
    query: IMQuery
    submitted_at: float

    def expired(self) -> bool:
        deadline = self.query.deadline_s
        return deadline is not None and time.monotonic() > self.submitted_at + deadline


class QueryFront:
    """``execute(queries) -> responses`` over a subclass's group server.

    A subclass sets :attr:`METRIC_PREFIX` and a ``stats`` record (with
    ``queries``/``ok``/``errors``/``timeouts``/``degraded``/``batches``
    counters), calls ``QueryFront.__init__`` with the sketch size an
    omitted ``theta_cap`` stands for, and implements :meth:`_serve_group`.
    ``out`` is the batch's response list, indexed by
    :attr:`Pending.index`; every helper answers into it.
    """

    #: Prefix of the per-query metric names (``service``, ``shard.router``).
    METRIC_PREFIX = ""

    stats: Any

    def __init__(self, default_theta: int) -> None:
        self.default_theta = int(default_theta)
        #: ``SketchSpec.key()`` -> (stamp, seeds, sets newly covered per
        #: round) of the longest selection kept for that sketch.
        self._kept: OrderedDict[tuple, tuple] = OrderedDict()

    def query(self, query: IMQuery) -> IMResponse:
        """Serve a single query (a one-element :meth:`execute` batch)."""
        return self.execute([query])[0]

    def execute(self, queries: Sequence[IMQuery]) -> list[IMResponse]:
        """Serve a batch; responses come back in submission order.

        Never raises for a per-query failure — bad parameters, expired
        deadlines, and unknown datasets become ``"error"``/``"timeout"``
        responses so one poisoned query cannot take down its batch.
        """
        submitted_at = time.monotonic()
        out: list[IMResponse | None] = [None] * len(queries)
        groups: dict[SketchSpec, list[Pending]] = {}
        for i, q in enumerate(queries):
            p = Pending(i, q, submitted_at)
            try:
                q.validate()
            except ParameterError as exc:
                self._fail([p], exc, out)
                continue
            spec = SketchSpec.from_query(q, self.default_theta)
            groups.setdefault(spec, []).append(p)
        for spec, pending in groups.items():
            self.stats.batches += 1
            self._serve_group(spec, pending, out)
        # Every query index is answered exactly once: invalid queries above,
        # everything else by its group.
        return [
            r if r is not None
            else IMResponse(status="error", error="internal: query dropped")
            for r in out
        ]

    # ------------------------------------------------------------- subclass
    def _serve_group(
        self, spec: SketchSpec, pending: list[Pending], out: list
    ) -> None:
        """Answer one group of queries that read the sketch ``spec``."""
        raise NotImplementedError

    # ------------------------------------------------------ kept selections
    def _kept_selection(
        self, key: tuple, stamp: Any, k_max: int
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """The kept ``(seeds, newly covered)`` for ``key`` when it was made
        over ``stamp`` and runs to ``k_max``, else ``None``."""
        kept = self._kept.get(key)
        if kept is None or kept[0] != stamp or k_max > kept[1].size:
            return None
        self._kept.move_to_end(key)
        return kept[1], kept[2]

    def _keep_selection(
        self, key: tuple, stamp: Any, seeds: np.ndarray, newly: np.ndarray
    ) -> None:
        """Keep a fresh selection for ``key``, replacing its old one."""
        self._kept[key] = (stamp, seeds, newly)
        self._kept.move_to_end(key)
        while len(self._kept) > MAX_KEPT:
            self._kept.popitem(last=False)

    def _entry_selection(
        self, key: tuple, entry: CacheEntry, k_max: int, *, keep: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(seeds, newly covered)`` of at least ``k_max`` rounds over
        ``entry``: the selection kept for ``key`` when it was made over
        this entry and runs that far, else ``efficient_select`` from the
        entry's fused counter, kept when ``keep``."""
        selection = self._kept_selection(key, entry.version, k_max)
        if selection is None:
            with telemetry.get().span(
                "service.selection", k=k_max, num_sets=len(entry.store)
            ):
                sel = efficient_select(
                    entry.store, k_max, 1, initial_counter=entry.counter
                )
            selection = sel.seeds, np.array(
                [r["new_covered_sets"] for r in sel.rounds], np.int64
            )
            if keep:
                self._keep_selection(key, entry.version, *selection)
        return selection

    # -------------------------------------------------------------- helpers
    def _tel_inc(self, *names: str) -> None:
        tel = telemetry.get()
        if tel.enabled:
            for name in names:
                tel.registry.counter(name).inc()

    def _split_expired(self, pending: list[Pending], out: list) -> list[Pending]:
        """Answer the expired queries with timeouts; return the live rest."""
        live = []
        prefix = self.METRIC_PREFIX
        for p in pending:
            if p.expired():
                self.stats.queries += 1
                self.stats.timeouts += 1
                self._tel_inc(f"{prefix}.queries", f"{prefix}.timeouts")
                elapsed = time.monotonic() - p.submitted_at
                out[p.index] = IMResponse(
                    status="timeout",
                    id=p.query.id,
                    error=(
                        f"TimeoutError: deadline of {p.query.deadline_s}s "
                        f"exceeded after {elapsed:.3f}s"
                    ),
                    latency_s=elapsed,
                )
            else:
                live.append(p)
        return live

    def _fail(self, pending: list[Pending], exc: Exception, out: list) -> None:
        """Answer every query of ``pending`` with ``exc`` as an error."""
        prefix = self.METRIC_PREFIX
        for p in pending:
            self.stats.queries += 1
            self.stats.errors += 1
            self._tel_inc(f"{prefix}.queries", f"{prefix}.errors")
            out[p.index] = IMResponse(
                status="error",
                id=p.query.id,
                error=f"{type(exc).__name__}: {exc}",
                latency_s=time.monotonic() - p.submitted_at,
            )

    def _bound_k(
        self, pending: list[Pending], num_vertices: int, out: list
    ) -> list[Pending]:
        """Answer the queries asking for more seeds than there are vertices
        with errors (checkable only once the graph is known); return the
        rest."""
        live = []
        for p in pending:
            if p.query.k > num_vertices:
                exc = ParameterError(
                    f"k={p.query.k} exceeds the vertex count {num_vertices}"
                )
                self._fail([p], exc, out)
            else:
                live.append(p)
        return live

    def _answer(
        self,
        live: list[Pending],
        seeds: np.ndarray,
        newly_covered: Sequence[int],
        out: list,
        *,
        num_vertices: int,
        num_sets: int,
        cached: bool,
        degraded: bool,
        epoch: int | None = None,
    ) -> None:
        """Answer each query still in time from one selection of at least
        ``k_max`` rounds: its first ``k`` seeds, and the sets its first
        ``k`` rounds covered (over graph ``epoch``, for a dynamic one)."""
        covered = np.cumsum(newly_covered)
        prefix = self.METRIC_PREFIX
        tel = telemetry.get()
        for p in self._split_expired(live, out):
            k = p.query.k
            coverage = float(covered[k - 1]) / num_sets if num_sets else 0.0
            latency = time.monotonic() - p.submitted_at
            self.stats.queries += 1
            self.stats.ok += 1
            if tel.enabled:
                tel.registry.counter(f"{prefix}.queries").inc()
                tel.registry.histogram(f"{prefix}.query_latency_s").observe(latency)
            if degraded:
                self.stats.degraded += 1
                self._tel_inc(f"{prefix}.degraded", "resilience.degraded_responses")
            out[p.index] = IMResponse(
                status="ok",
                id=p.query.id,
                seeds=[int(v) for v in seeds[:k]],
                spread_estimate=num_vertices * coverage,
                coverage_fraction=coverage,
                num_rrrsets=num_sets,
                cached=cached,
                degraded=degraded,
                latency_s=latency,
                epoch=epoch,
            )
