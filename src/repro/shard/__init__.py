"""repro.shard: partitioned multi-worker serving with exact scatter-gather.

The sharding layer spreads one serving sketch across ``num_shards``
disjoint sub-sketches, each held by ``replication`` interchangeable
workers, and routes queries so the merged greedy selection is
**byte-identical** to the single-node :class:`~repro.service.engine.
QueryEngine` — while a replica death fails over invisibly and a whole
shard loss degrades to an exact answer over the survivors
(``degraded:true``).  See docs/sharding.md.

Layout:

- :mod:`repro.shard.plan` — :class:`ShardPlan`: RRR-set ownership by one
  vectorised hash, replication, sub-sketch fingerprints;
- :mod:`repro.shard.worker` — :class:`ShardWorker`: one replica, a
  :class:`QueryEngine`-backed sub-sketch plus the self-healing scatter
  protocol and fault hooks;
- :mod:`repro.shard.router` — :class:`Router`: scatter-gather selection,
  replica failover, health tracking, degraded answers;
- :mod:`repro.shard.cluster` — :class:`ShardCluster`: plan + workers +
  router as one handle with build/publish/kill/revive.

:class:`SketchSpec`, the name of the sketch every slice is cut from, is
:mod:`repro.service.artifacts`'s, re-exported here.
"""

from repro.service.artifacts import SketchSpec
from repro.shard.cluster import ShardCluster
from repro.shard.plan import ShardPlan, shard_fingerprint
from repro.shard.router import Router, RouterConfig, RouterStats
from repro.shard.worker import ShardWorker

__all__ = [
    "Router",
    "RouterConfig",
    "RouterStats",
    "ShardCluster",
    "ShardPlan",
    "ShardWorker",
    "SketchSpec",
    "shard_fingerprint",
]
