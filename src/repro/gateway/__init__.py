"""repro.gateway — async TCP serving gateway with admission control.

The serving surfaces below this layer (`repro serve`, `repro shard
serve`, `repro update`) are single-threaded JSON-lines loops on
stdin/stdout.  The gateway puts a network front-end over the same wire
protocol and adds the overload behaviour a real deployment needs before
"heavy traffic from millions of users" (ROADMAP.md) is even pronounceable:

- :mod:`repro.gateway.server` — :class:`GatewayServer`, the asyncio TCP
  loop: connection caps and idle/line-length bounds, a bounded admission
  queue with deadline-aware load shedding (structured ``"overloaded"``
  responses carrying ``retry_after_s``, never a hang), per-client
  token-bucket rate limiting, and micro-batch coalescing so one engine
  call answers every compatible in-flight client;
- :mod:`repro.gateway.client` — :class:`GatewayClient` /
  :class:`AsyncGatewayClient` plus the canonical wire-encoding helpers
  (the single definition of how queries become lines), with
  reconnect/backoff through :class:`~repro.resilience.retry.RetryPolicy`
  and ``retry_after_s``-honouring overload retries;
- :mod:`repro.gateway.loadgen` — open- and closed-loop traffic generation
  with zipf-skewed query mixes and streaming percentile/shed-rate
  accounting.

Any engine speaking ``execute(queries) -> responses`` can sit behind the
gateway: the local :class:`~repro.service.engine.QueryEngine`, a
:class:`~repro.shard.cluster.ShardCluster`, or a
:class:`~repro.dynamic.serving.DynamicService`.  Typical use::

    from repro.gateway import GatewayClient, GatewayConfig, serve_in_thread
    from repro.service import EngineConfig, IMQuery, QueryEngine

    engine = QueryEngine(config=EngineConfig(artifact_dir="artifacts/"))
    with serve_in_thread(engine, config=GatewayConfig(queue_depth=64)) as srv:
        with GatewayClient(srv.host, srv.port) as client:
            resp = client.query(IMQuery(dataset="amazon", k=10))

From the shell: ``repro gateway serve|query|loadgen`` (docs/gateway.md).
"""

from repro.gateway.client import (
    DEFAULT_PORT,
    AsyncGatewayClient,
    GatewayClient,
    GatewayOverloadedError,
    decode_response_line,
    encode_control,
    encode_queries,
)
from repro.gateway.loadgen import LoadGenConfig, LoadStats, run_loadgen
from repro.gateway.server import (
    GatewayConfig,
    GatewayServer,
    GatewayStats,
    serve_in_thread,
)

__all__ = [
    "DEFAULT_PORT",
    "GatewayConfig",
    "GatewayServer",
    "GatewayStats",
    "serve_in_thread",
    "GatewayClient",
    "AsyncGatewayClient",
    "GatewayOverloadedError",
    "encode_queries",
    "encode_control",
    "decode_response_line",
    "LoadGenConfig",
    "LoadStats",
    "run_loadgen",
]
