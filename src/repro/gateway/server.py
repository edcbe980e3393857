"""Asyncio TCP gateway: admission control, coalescing, load shedding.

:class:`GatewayServer` puts a network front-end on any serving engine that
speaks ``execute(queries) -> responses`` — the local
:class:`~repro.service.engine.QueryEngine`, a
:class:`~repro.shard.cluster.ShardCluster` (scatter-gather
:class:`~repro.shard.router.Router`), or a
:class:`~repro.dynamic.serving.DynamicService`.  The wire format is the
existing :mod:`repro.service.protocol` JSON-lines protocol, now over a
socket instead of stdin/stdout, so everything that already talks to
``repro serve`` talks to the gateway unchanged.

The point of the layer is *overload behaviour* (docs/gateway.md).  The
engines themselves keep parallel hardware saturated per query batch; the
gateway decides which traffic reaches them so those per-core wins survive
concurrent load:

- **connection lifecycle** — at most ``max_connections`` concurrent
  clients (excess connections get one ``"overloaded"`` line and a close),
  an idle read timeout, and a bound on line length enforced both by the
  stream reader and by :func:`~repro.service.protocol.parse_request_line`;
- **bounded admission queue** — admitted queries wait in a fixed-depth
  queue; a full queue sheds new arrivals with ``status: "overloaded"``
  and a ``retry_after_s`` hint (never a hang, never an unbounded buffer);
- **deadline-aware shedding** — a query whose own deadline is already
  smaller than the predicted queue wait is shed at admission (kinder than
  a guaranteed timeout); a query that waited past ``queue_deadline_s`` is
  shed at dispatch rather than served stale; a query whose *client*
  deadline expired while queued is answered ``"timeout"``, never silently
  served late;
- **per-client rate limiting** — a token bucket per client address
  (``rate_limit_per_s`` / ``rate_limit_burst``) rejects the excess with
  ``"overloaded"`` before it can occupy queue space;
- **micro-batch coalescing** — the single dispatcher hands the engine
  batches of up to ``batch_max`` queries, whose own fingerprint grouping
  then serves every compatible in-flight client from **one** sketch
  acquisition and at most one selection pass over it.  A query that joins
  a batch saves at most one engine batch, so the dispatcher waits up to
  ``batch_window_s`` for company only after a batch that took at least
  that long; after a faster one it takes what is already queued and
  dispatches at once.

The engine runs on a dedicated single-thread executor: the event loop
stays free to accept, parse, and shed while a batch computes, and the
engine keeps the single-threaded discipline it was built under.  Telemetry
lands under ``gateway.*`` (docs/observability.md).
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro import telemetry
from repro.errors import ParameterError
from repro.service.protocol import (
    MAX_LINE_BYTES,
    IMQuery,
    IMResponse,
    parse_request_line,
)

__all__ = ["GatewayConfig", "GatewayServer", "GatewayStats", "serve_in_thread"]


@dataclass(frozen=True)
class GatewayConfig:
    """Admission-control knobs of one :class:`GatewayServer`.

    Attributes
    ----------
    host / port:
        Bind address; ``port=0`` picks an ephemeral port (read it off
        :attr:`GatewayServer.port` after start).
    max_connections:
        Concurrent client cap; excess connections receive one
        ``"overloaded"`` response line and are closed.
    max_line_bytes:
        Bound on one request line, enforced by the stream reader and by
        :func:`~repro.service.protocol.parse_request_line`.
    idle_timeout_s:
        Close a connection that sends nothing for this long (``None``
        disables).
    queue_depth:
        Admission queue capacity; a full queue sheds new arrivals.
    queue_deadline_s:
        Maximum time a query may wait in the queue.  Waiting longer means
        the gateway is overloaded and the work is stale: the query is shed
        with ``"overloaded"`` at dispatch.  This bounds the queue-wait
        component of every accepted query's latency.
    batch_window_s / batch_max:
        Micro-batch coalescing: after the first query is popped, the
        dispatcher takes every queued query (up to ``batch_max``) and
        executes them as one batch.  ``batch_window_s`` is the longest it
        waits for more, and it waits only after an engine batch that took
        at least that long (and before the first batch), since a query
        that joins saves at most one batch.  ``0`` never waits.
    rate_limit_per_s / rate_limit_burst:
        Per-client-address token bucket; ``None`` disables rate limiting.
    retry_after_floor_s:
        Minimum ``retry_after_s`` hint on shed responses.
    drain_timeout_s:
        Upper bound on waiting for admitted queries during shutdown.
    """

    host: str = "127.0.0.1"
    port: int = 0
    max_connections: int = 64
    max_line_bytes: int = MAX_LINE_BYTES
    idle_timeout_s: float | None = 300.0
    queue_depth: int = 256
    queue_deadline_s: float = 2.0
    batch_window_s: float = 0.002
    batch_max: int = 64
    rate_limit_per_s: float | None = None
    rate_limit_burst: float = 10.0
    retry_after_floor_s: float = 0.05
    drain_timeout_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_connections < 1:
            raise ParameterError(
                f"max_connections must be >= 1, got {self.max_connections}"
            )
        if self.max_line_bytes < 64:
            raise ParameterError(
                f"max_line_bytes must be >= 64, got {self.max_line_bytes}"
            )
        if self.queue_depth < 1:
            raise ParameterError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.queue_deadline_s <= 0:
            raise ParameterError(
                f"queue_deadline_s must be positive, got {self.queue_deadline_s}"
            )
        if self.batch_window_s < 0:
            raise ParameterError(
                f"batch_window_s must be >= 0, got {self.batch_window_s}"
            )
        if self.batch_max < 1:
            raise ParameterError(f"batch_max must be >= 1, got {self.batch_max}")
        if self.rate_limit_per_s is not None and self.rate_limit_per_s <= 0:
            raise ParameterError(
                f"rate_limit_per_s must be positive, got {self.rate_limit_per_s}"
            )
        if self.idle_timeout_s is not None and self.idle_timeout_s <= 0:
            raise ParameterError(
                f"idle_timeout_s must be positive, got {self.idle_timeout_s}"
            )


@dataclass
class GatewayStats:
    """Cumulative gateway behaviour, mirrored to ``gateway.*`` telemetry."""

    connections: int = 0
    rejected_connections: int = 0
    accepted: int = 0
    shed_queue_full: int = 0
    shed_deadline: int = 0
    shed_stale: int = 0
    shed_rate_limited: int = 0
    bad_requests: int = 0
    batches: int = 0
    ok: int = 0
    timeouts: int = 0
    errors: int = 0

    @property
    def shed(self) -> int:
        return (
            self.shed_queue_full + self.shed_deadline
            + self.shed_stale + self.shed_rate_limited
        )

    def to_dict(self) -> dict[str, int]:
        return {
            "connections": self.connections,
            "rejected_connections": self.rejected_connections,
            "accepted": self.accepted,
            "shed": self.shed,
            "shed_queue_full": self.shed_queue_full,
            "shed_deadline": self.shed_deadline,
            "shed_stale": self.shed_stale,
            "shed_rate_limited": self.shed_rate_limited,
            "bad_requests": self.bad_requests,
            "batches": self.batches,
            "ok": self.ok,
            "timeouts": self.timeouts,
            "errors": self.errors,
        }


class _TokenBucket:
    """Classic token bucket; ``now`` is injected so refills are testable."""

    __slots__ = ("rate", "burst", "tokens", "last")

    def __init__(self, rate: float, burst: float, now: float):
        self.rate = rate
        self.burst = max(1.0, burst)
        self.tokens = self.burst
        self.last = now

    def take(self, now: float) -> bool:
        self.tokens = min(self.burst, self.tokens + (now - self.last) * self.rate)
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        return (1.0 - self.tokens) / self.rate


class _Connection:
    """One client connection; writes are serialised through a lock."""

    __slots__ = ("writer", "lock", "closed")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.lock = asyncio.Lock()
        self.closed = False

    async def send(self, doc: dict[str, Any]) -> None:
        data = (json.dumps(doc, default=float) + "\n").encode()
        async with self.lock:
            if self.closed:
                return
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closed = True

    async def close(self) -> None:
        async with self.lock:
            if self.closed:
                return
            self.closed = True
            with contextlib.suppress(ConnectionError, OSError):
                self.writer.close()
                await self.writer.wait_closed()


@dataclass
class _Pending:
    """One admitted query waiting in the queue."""

    query: IMQuery
    conn: _Connection
    enqueued_at: float


class GatewayServer:
    """The async TCP front-end over one serving engine.

    ``engine`` is either an object exposing ``execute(queries) ->
    responses`` (and optionally ``stats_snapshot()``) or a bare callable
    with that signature.  All engine work runs on a private single-thread
    executor so the engine stays single-threaded while the event loop
    keeps accepting and shedding.
    """

    def __init__(self, engine: Any, *, config: GatewayConfig | None = None):
        self.config = config or GatewayConfig()
        if callable(getattr(engine, "execute", None)):
            self._execute: Callable = engine.execute
        elif callable(engine):
            self._execute = engine
        else:
            raise ParameterError(
                "gateway engine must expose execute(queries) or be callable"
            )
        self._engine = engine
        self.stats = GatewayStats()
        # Queue capacity is enforced here, not by the asyncio.Queue itself,
        # so the control plane can retune admission depth at runtime
        # (asyncio.Queue fixes maxsize at construction).
        self._queue_capacity = self.config.queue_depth
        self.host: str | None = None
        self.port: int | None = None
        self._active = 0
        self._draining = False
        self._stopped = False
        self._buckets: dict[str, _TokenBucket] = {}
        self._connections: set[_Connection] = set()
        # EMA of per-query engine service time, feeding the predicted-wait
        # shed decision and the retry_after_s hints.  None until the first
        # batch completes.  Until a warm batch (every answer ok and cached)
        # has been seen it folds in every batch; the first warm one
        # replaces it, and from then on it folds in warm batches only.
        self._ema_query_s: float | None = None
        self._ema_warm = False
        # Engine time of the last batch, which decides whether the next one
        # waits for company (_coalesce); unknown counts as slow.
        self._last_batch_s = float("inf")
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="gateway-engine"
        )
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._dispatcher: asyncio.Task | None = None
        self._queue: asyncio.Queue[_Pending] | None = None
        self._stop_event: asyncio.Event | None = None

    # ----------------------------------------------------------------- start
    async def start(self) -> None:
        """Bind, start the dispatcher, and begin accepting connections."""
        self._loop = asyncio.get_running_loop()
        # Unbounded queue object; depth is bounded by _admit against
        # _queue_capacity so set_admission can shrink/grow it live.
        self._queue = asyncio.Queue()
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=self.config.max_line_bytes + 2,
        )
        addr = self._server.sockets[0].getsockname()
        self.host, self.port = addr[0], addr[1]
        self._dispatcher = self._loop.create_task(self._dispatch_loop())

    async def serve(
        self,
        *,
        should_stop: Callable[[], bool] | None = None,
        poll_s: float = 0.05,
        on_started: Callable[["GatewayServer"], None] | None = None,
    ) -> GatewayStats:
        """Start, run until stopped, then drain and shut down.

        The server stops when a ``{"op": "shutdown"}`` control line
        arrives, :meth:`request_stop` is called, or ``should_stop()``
        returns true (polled every ``poll_s`` — the hook a
        :class:`~repro.service.lifecycle.GracefulShutdown` drain flag
        plugs into).
        """
        await self.start()
        if on_started is not None:
            on_started(self)
        try:
            while not self._stop_event.is_set():
                if should_stop is not None and should_stop():
                    break
                timeout = poll_s if should_stop is not None else None
                with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                    await asyncio.wait_for(self._stop_event.wait(), timeout)
        finally:
            await self.stop()
        return self.stats

    def request_stop(self) -> None:
        """Thread-safe stop request (drain, then exit)."""
        if self._loop is not None and self._stop_event is not None:
            # The loop may already be gone (e.g. a shutdown control op beat
            # us to it); a second stop request is then simply a no-op.
            with contextlib.suppress(RuntimeError):
                self._loop.call_soon_threadsafe(self._stop_event.set)

    async def stop(self, *, drain: bool = True) -> None:
        """Stop accepting, optionally drain admitted queries, close up."""
        if self._stopped:
            return
        self._stopped = True
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if drain and self._queue is not None:
            with contextlib.suppress(asyncio.TimeoutError, TimeoutError):
                await asyncio.wait_for(
                    self._queue.join(), self.config.drain_timeout_s
                )
        if self._dispatcher is not None:
            self._dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._dispatcher
        for conn in list(self._connections):
            await conn.close()
        self._executor.shutdown(wait=True)
        if self._stop_event is not None:
            self._stop_event.set()

    # ------------------------------------------------------------ connections
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        conn = _Connection(writer)
        if self._draining or self._active >= self.config.max_connections:
            self.stats.rejected_connections += 1
            self._tel_inc("gateway.rejected_connections")
            await conn.send(
                self._overloaded(
                    None, "connection limit reached", self._retry_after()
                ).to_dict()
            )
            await conn.close()
            return
        self._active += 1
        self.stats.connections += 1
        self._connections.add(conn)
        self._tel_inc("gateway.connections")
        self._tel_gauge("gateway.active_connections", self._active)
        peer = writer.get_extra_info("peername")
        client_key = str(peer[0]) if isinstance(peer, tuple) and peer else "local"
        try:
            while not self._draining:
                try:
                    if self.config.idle_timeout_s is not None:
                        line = await asyncio.wait_for(
                            reader.readline(), self.config.idle_timeout_s
                        )
                    else:
                        line = await reader.readline()
                except (asyncio.TimeoutError, TimeoutError):
                    await conn.send(
                        {"status": "error",
                         "error": "idle timeout exceeded, closing connection"}
                    )
                    break
                except ValueError:
                    # StreamReader limit overrun: the line never terminated
                    # inside max_line_bytes.  Report and close — the stream
                    # cannot be resynchronised reliably.
                    self.stats.bad_requests += 1
                    self._tel_inc("gateway.bad_requests")
                    await conn.send(
                        {"status": "error",
                         "error": (
                             "request line exceeds the "
                             f"{self.config.max_line_bytes}-byte limit"
                         )}
                    )
                    break
                except (ConnectionError, OSError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                await self._handle_line(line.strip(), conn, client_key)
        finally:
            self._active -= 1
            self._connections.discard(conn)
            self._tel_gauge("gateway.active_connections", self._active)
            await conn.close()

    async def _handle_line(
        self, line: bytes, conn: _Connection, client_key: str
    ) -> None:
        try:
            request = parse_request_line(
                line, max_line_bytes=self.config.max_line_bytes
            )
        except ParameterError as exc:
            self.stats.bad_requests += 1
            self._tel_inc("gateway.bad_requests")
            await conn.send({"status": "error", "error": str(exc)})
            return
        if isinstance(request, dict):
            await self._handle_control(request, conn)
            return
        now = time.monotonic()
        bucket = self._bucket_for(client_key, now)
        for query in request:
            if bucket is not None and not bucket.take(now):
                self.stats.shed_rate_limited += 1
                self._tel_inc("gateway.shed")
                self._tel_inc("gateway.shed_rate_limited")
                await conn.send(
                    self._overloaded(
                        query.id,
                        f"rate limit of {self.config.rate_limit_per_s:g}/s "
                        "exceeded",
                        max(
                            bucket.retry_after(),
                            self.config.retry_after_floor_s,
                        ),
                    ).to_dict()
                )
                continue
            await self._admit(query, conn, now)

    def _bucket_for(self, client_key: str, now: float) -> _TokenBucket | None:
        if self.config.rate_limit_per_s is None:
            return None
        bucket = self._buckets.get(client_key)
        if bucket is None:
            bucket = _TokenBucket(
                self.config.rate_limit_per_s, self.config.rate_limit_burst, now
            )
            self._buckets[client_key] = bucket
        return bucket

    # -------------------------------------------------------------- admission
    async def _admit(self, query: IMQuery, conn: _Connection, now: float) -> None:
        predicted = self._predicted_wait_s()
        if query.deadline_s is not None and predicted > query.deadline_s:
            # The queue alone is predicted to eat the whole deadline:
            # shedding now beats queueing into a guaranteed timeout.
            self.stats.shed_deadline += 1
            self._tel_inc("gateway.shed")
            self._tel_inc("gateway.shed_deadline")
            await conn.send(
                self._overloaded(
                    query.id,
                    f"predicted queue wait {predicted:.3f}s exceeds the "
                    f"query deadline of {query.deadline_s:g}s",
                    max(predicted, self.config.retry_after_floor_s),
                ).to_dict()
            )
            return
        if self._queue.qsize() >= self._queue_capacity:
            self.stats.shed_queue_full += 1
            self._tel_inc("gateway.shed")
            self._tel_inc("gateway.shed_queue_full")
            await conn.send(
                self._overloaded(
                    query.id,
                    f"admission queue of depth {self._queue_capacity} "
                    "is full",
                    self._retry_after(),
                ).to_dict()
            )
            return
        self._queue.put_nowait(_Pending(query, conn, now))
        self.stats.accepted += 1
        self._tel_inc("gateway.accepted")
        self._tel_gauge("gateway.queue_depth", self._queue.qsize())

    def set_admission(
        self,
        *,
        queue_depth: int | None = None,
        rate_limit_per_s: float | None = None,
        queue_deadline_s: float | None = None,
    ) -> dict[str, Any]:
        """Retune admission control live (the control-plane knob).

        Only the supplied knobs change; the new config is validated by
        :class:`GatewayConfig` itself (``dataclasses.replace`` re-runs
        ``__post_init__``).  Existing per-client token buckets are updated
        in place so a rate change applies to connected clients too.
        Returns the effective admission settings.
        """
        updates: dict[str, Any] = {}
        if queue_depth is not None:
            updates["queue_depth"] = int(queue_depth)
        if rate_limit_per_s is not None:
            updates["rate_limit_per_s"] = float(rate_limit_per_s)
        if queue_deadline_s is not None:
            updates["queue_deadline_s"] = float(queue_deadline_s)
        if updates:
            self.config = dataclasses.replace(self.config, **updates)
            self._queue_capacity = self.config.queue_depth
            if rate_limit_per_s is not None:
                for bucket in self._buckets.values():
                    bucket.rate = self.config.rate_limit_per_s
            self._tel_gauge("gateway.queue_capacity", self._queue_capacity)
            if self.config.rate_limit_per_s is not None:
                self._tel_gauge(
                    "gateway.rate_limit_per_s", self.config.rate_limit_per_s
                )
        return {
            "queue_depth": self._queue_capacity,
            "rate_limit_per_s": self.config.rate_limit_per_s,
            "queue_deadline_s": self.config.queue_deadline_s,
        }

    def _predicted_wait_s(self) -> float:
        if self._ema_query_s is None or self._queue is None:
            return 0.0
        return self._queue.qsize() * self._ema_query_s

    def _retry_after(self) -> float:
        return max(self._predicted_wait_s(), self.config.retry_after_floor_s)

    @staticmethod
    def _overloaded(
        query_id: str | None, reason: str, retry_after_s: float
    ) -> IMResponse:
        return IMResponse(
            status="overloaded",
            id=query_id,
            error=f"overloaded: {reason}",
            retry_after_s=round(float(retry_after_s), 6),
        )

    # --------------------------------------------------------------- dispatch
    async def _dispatch_loop(self) -> None:
        while True:
            batch = [await self._queue.get()]
            batch.extend(await self._coalesce())
            try:
                await self._serve_batch(batch)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # dispatcher must never die silently
                self.stats.errors += len(batch)
                self._tel_inc("gateway.errors", len(batch))
                for p in batch:
                    with contextlib.suppress(Exception):
                        await p.conn.send(
                            IMResponse(
                                status="error",
                                id=p.query.id,
                                error=f"internal: {type(exc).__name__}: {exc}",
                            ).to_dict()
                        )
            finally:
                for _ in batch:
                    self._queue.task_done()
                self._tel_gauge("gateway.queue_depth", self._queue.qsize())

    async def _coalesce(self) -> list[_Pending]:
        """Collect more queries for the batch whose first query was popped.

        Waiting for company pays only when a joining query saves a batch
        that costs more than the wait, so the dispatcher waits up to one
        batch window only after a batch that took at least that long;
        otherwise it takes what is already queued.
        """
        extra: list[_Pending] = []
        cfg = self.config
        if cfg.batch_max > 1 and 0 < cfg.batch_window_s <= self._last_batch_s:
            deadline = self._loop.time() + cfg.batch_window_s
            while len(extra) < cfg.batch_max - 1:
                remaining = deadline - self._loop.time()
                if remaining <= 0:
                    break
                try:
                    extra.append(
                        await asyncio.wait_for(self._queue.get(), remaining)
                    )
                except (asyncio.TimeoutError, TimeoutError):
                    break
        else:
            while len(extra) < cfg.batch_max - 1:
                try:
                    extra.append(self._queue.get_nowait())
                except asyncio.QueueEmpty:
                    break
        return extra

    async def _serve_batch(self, batch: list[_Pending]) -> None:
        tel = telemetry.get()
        now = time.monotonic()
        live: list[tuple[_Pending, IMQuery]] = []
        for p in batch:
            wait = now - p.enqueued_at
            if tel.enabled:
                tel.registry.histogram("gateway.queue_wait_s").observe(wait)
            if wait > self.config.queue_deadline_s:
                # Stale work: the queue deadline bounds how old a query may
                # be when it reaches the engine, which in turn bounds the
                # queue-wait component of every accepted query's latency.
                self.stats.shed_stale += 1
                self._tel_inc("gateway.shed")
                self._tel_inc("gateway.shed_stale")
                await p.conn.send(
                    self._overloaded(
                        p.query.id,
                        f"queued for {wait:.3f}s, beyond the "
                        f"{self.config.queue_deadline_s:g}s queue deadline",
                        self._retry_after(),
                    ).to_dict()
                )
                continue
            query = p.query
            if query.deadline_s is not None:
                remaining = query.deadline_s - wait
                if remaining <= 0:
                    self.stats.timeouts += 1
                    self._tel_inc("gateway.timeouts")
                    await p.conn.send(
                        IMResponse(
                            status="timeout",
                            id=query.id,
                            error=(
                                f"TimeoutError: deadline of {query.deadline_s}s "
                                f"expired after {wait:.3f}s in the gateway queue"
                            ),
                            latency_s=wait,
                        ).to_dict()
                    )
                    continue
                # The engine measures deadlines from *its* submission time,
                # so hand it only what the queue has not already spent.
                query = dataclasses.replace(query, deadline_s=remaining)
            live.append((p, query))
        if not live:
            return

        t0 = time.perf_counter()
        try:
            responses = await self._loop.run_in_executor(
                self._executor, self._execute, [q for _, q in live]
            )
        except Exception as exc:  # engine blew up: report, keep serving
            self.stats.errors += len(live)
            self._tel_inc("gateway.errors", len(live))
            for p, q in live:
                await p.conn.send(
                    IMResponse(
                        status="error",
                        id=q.id,
                        error=f"{type(exc).__name__}: {exc}",
                        latency_s=time.monotonic() - p.enqueued_at,
                    ).to_dict()
                )
            return
        elapsed = self._last_batch_s = time.perf_counter() - t0
        per_query = elapsed / len(live)
        warm = all(r.ok and r.cached for r in responses)
        if self._ema_query_s is None or (warm and not self._ema_warm):
            self._ema_query_s = per_query
            self._ema_warm = warm
        elif warm or not self._ema_warm:
            self._ema_query_s = 0.8 * self._ema_query_s + 0.2 * per_query
        self.stats.batches += 1
        if tel.enabled:
            tel.registry.counter("gateway.batches").inc()
            tel.registry.histogram("gateway.batch_size").observe(len(live))
        for (p, _), resp in zip(live, responses):
            latency = time.monotonic() - p.enqueued_at
            resp.latency_s = latency  # end-to-end, queue wait included
            if resp.ok:
                self.stats.ok += 1
            elif resp.status == "timeout":
                self.stats.timeouts += 1
                self._tel_inc("gateway.timeouts")
            else:
                self.stats.errors += 1
                self._tel_inc("gateway.errors")
            if tel.enabled:
                tel.registry.counter("gateway.responses").inc()
                tel.registry.histogram("gateway.request_latency_s").observe(
                    latency
                )
            await p.conn.send(resp.to_dict())

    # ---------------------------------------------------------------- control
    async def _handle_control(
        self, request: dict[str, Any], conn: _Connection
    ) -> None:
        op = request.get("op")
        if op == "ping":
            await conn.send({"status": "ok", "op": "ping"})
            return
        if op == "stats":
            await conn.send(self.stats_snapshot())
            return
        if op == "shutdown":
            await conn.send({"status": "ok", "op": "shutdown"})
            if self._stop_event is not None:
                self._stop_event.set()
            return
        await conn.send({"status": "error", "error": f"unknown op {op!r}"})

    def stats_snapshot(self) -> dict[str, Any]:
        """Gateway + fronted-engine counters as one JSON-able dict."""
        doc: dict[str, Any] = {
            "status": "ok",
            "op": "stats",
            "gateway": {
                **self.stats.to_dict(),
                "active_connections": self._active,
                "queue_depth": self._queue.qsize() if self._queue else 0,
                "queue_capacity": self._queue_capacity,
                "queue_deadline_s": self.config.queue_deadline_s,
                "ema_query_s": self._ema_query_s,
                "predicted_wait_s": self._predicted_wait_s(),
                "rate_limit_per_s": self.config.rate_limit_per_s,
                "rate_buckets": self._bucket_snapshot(),
            },
        }
        snapshot = getattr(self._engine, "stats_snapshot", None)
        if callable(snapshot):
            doc.update(snapshot())
        tel = telemetry.get()
        if tel.enabled:
            doc["counters"] = tel.snapshot()["counters"]
        return doc

    def _bucket_snapshot(self) -> dict[str, Any]:
        """Token-bucket fill summary: how close clients are to rate sheds.

        ``min_fill`` is the lowest tokens/burst fraction over all known
        clients — 0.0 means at least one client is fully throttled, 1.0
        means nobody has spent a token.  Fill is read as-of the last
        ``take``; buckets refill lazily, so an idle bucket under-reports
        until its owner's next request.
        """
        buckets = list(self._buckets.values())
        if not buckets:
            return {"clients": 0, "min_fill": 1.0, "tokens": 0.0}
        fills = [b.tokens / b.burst for b in buckets]
        return {
            "clients": len(buckets),
            "min_fill": round(min(fills), 6),
            "tokens": round(sum(b.tokens for b in buckets), 6),
        }

    # -------------------------------------------------------------- telemetry
    @staticmethod
    def _tel_inc(name: str, amount: float = 1) -> None:
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter(name).inc(amount)

    @staticmethod
    def _tel_gauge(name: str, value: float) -> None:
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.gauge(name).set(value)


@contextlib.contextmanager
def serve_in_thread(
    engine: Any, *, config: GatewayConfig | None = None
) -> Iterator[GatewayServer]:
    """Run a gateway on a background thread (tests, benchmarks, loadgen).

    Yields the started :class:`GatewayServer` (``server.host`` /
    ``server.port`` carry the bound address); the server is drained and
    stopped when the block exits.
    """
    server = GatewayServer(engine, config=config)
    started = threading.Event()
    failures: list[BaseException] = []

    def _run() -> None:
        async def _main() -> None:
            try:
                await server.start()
            finally:
                started.set()
            await server._stop_event.wait()
            await server.stop()

        try:
            asyncio.run(_main())
        except BaseException as exc:  # surface bind errors to the caller
            failures.append(exc)
            started.set()

    thread = threading.Thread(target=_run, name="gateway-server", daemon=True)
    thread.start()
    if not started.wait(timeout=10):
        raise TimeoutError("gateway server failed to start within 10s")
    if failures:
        raise failures[0]
    try:
        yield server
    finally:
        server.request_stop()
        thread.join(timeout=15)
