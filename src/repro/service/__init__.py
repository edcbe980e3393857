"""repro.service — persistent sketch store + cached, batched query serving.

The serving layer turns the per-query cost of influence maximisation from
"full IMM" (graph build + RRR sampling + selection) into "selection kernel
only" for warm traffic, the way a production deployment would sit in front
of the algorithm:

- :mod:`repro.service.protocol` — :class:`IMQuery`/:class:`IMResponse`
  records and the JSON-lines wire format of ``repro serve``;
- :mod:`repro.service.artifacts` — fingerprint-keyed, checksummed ``.npz``
  persistence for sketch stores, and :class:`SketchSpec`, the one name of
  a serving sketch;
- :mod:`repro.service.cache` — the byte-accounted LRU of warm sketches;
- :mod:`repro.service.front` — the per-query lifecycle (validation,
  grouping, deadlines, the ``k`` bound, the answer loop and the
  ``ok``/``error``/``timeout`` responses) that the engine and the shard
  router share;
- :mod:`repro.service.engine` — the batching, deadline-enforcing
  :class:`QueryEngine` on top of :mod:`repro.runtime.backends`;
- :mod:`repro.service.lifecycle` — :class:`GracefulShutdown`, the
  SIGINT/SIGTERM drain used by the ``repro serve`` family (finish the
  in-flight batch, flush telemetry, then exit).

Typical use::

    from repro.service import EngineConfig, IMQuery, QueryEngine

    with QueryEngine(config=EngineConfig(artifact_dir="artifacts/")) as engine:
        cold = engine.query(IMQuery(dataset="amazon", k=10))
        warm = engine.query(IMQuery(dataset="amazon", k=25))  # cache hit
        assert warm.cached

The backend is chosen by ``EngineConfig(backend=..., num_workers=...)``;
``QueryEngine(retry=RetryPolicy(...), faults=FaultPlan(...))`` attaches a
retry policy and a fault plan to every cold sampling pass (see
docs/resilience.md).  When a cold sampling pass fails, the engine degrades
gracefully to the freshest compatible stale artifact (response flag
``degraded: true``) instead of erroring.

From the shell: ``repro query amazon --k 10`` (one-shot) and
``repro serve`` (JSON-lines request loop on stdin/stdout); see
docs/serving.md.
"""

from repro.service.artifacts import (
    SKETCH_SCHEMA_VERSION,
    ArtifactStore,
    SketchSpec,
    load_store,
    read_artifact_meta,
    save_store,
    sketch_fingerprint,
)
from repro.service.cache import CacheEntry, CacheStats, SketchCache
from repro.service.engine import EngineConfig, QueryEngine, ServiceStats
from repro.service.lifecycle import GracefulShutdown, ShutdownRequested
from repro.service.protocol import (
    MAX_LINE_BYTES,
    IMQuery,
    IMResponse,
    parse_request_line,
)

__all__ = [
    "IMQuery",
    "IMResponse",
    "parse_request_line",
    "MAX_LINE_BYTES",
    "ArtifactStore",
    "save_store",
    "load_store",
    "sketch_fingerprint",
    "SketchSpec",
    "read_artifact_meta",
    "SKETCH_SCHEMA_VERSION",
    "SketchCache",
    "CacheEntry",
    "CacheStats",
    "EngineConfig",
    "QueryEngine",
    "ServiceStats",
    "GracefulShutdown",
    "ShutdownRequested",
]
