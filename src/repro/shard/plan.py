"""Shard planning: which worker owns which RRR sets, and who its replicas are.

A :class:`ShardPlan` is the one deterministic, side-effect-free description
of a cluster layout that every component — the build pipeline, each
:class:`~repro.shard.worker.ShardWorker`, and the
:class:`~repro.shard.router.Router` — derives the same answers from:

- **set ownership**: RRR set ``i`` of a sketch (identified by its content
  fingerprint ``fp``) belongs to shard ``h(fp, i) mod num_shards``, where
  ``h`` mixes one ``sha256`` of ``fp`` with the set index through
  :func:`repro.kernels.rng.derive_keys`.  The owners of all sets are one
  array expression.  EfficientIMM partitions RRR sets, not vertices
  (§IV-A), so per-shard counters sum exactly under any assignment every
  party computes the same way; the hash spreads sets evenly without
  knowing their sizes, which lets a cold worker stream only its own.
- **replication**: every shard's sub-sketch is held by ``replication``
  interchangeable workers.  Replicas store *identical* data (same
  :func:`shard_fingerprint`, same artifact), which is what lets the router
  fail over mid-query and still produce byte-identical answers.

Ownership is a pure function of ``(plan, fingerprint, num_sets)``; no
component ever needs to ask another who owns a set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError
from repro.kernels.rng import derive_keys
from repro.sketch.store import FlatRRRStore

__all__ = ["ShardPlan", "shard_fingerprint"]


def shard_fingerprint(fingerprint: str, shard: int, plan: "ShardPlan") -> str:
    """Content key of one shard's sub-sketch.

    Replicas of the same shard share this key (they hold identical data),
    while plans of another shard count never collide.  The ``:mod`` suffix
    names the ownership rule, so a slice persisted under another rule is
    never served beside slices of this one.
    """
    key = f"{fingerprint}:shard{int(shard)}/{plan.num_shards}:mod"
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class ShardPlan:
    """Deterministic layout of one serving cluster.

    Attributes
    ----------
    num_shards:
        Number of disjoint sub-sketch partitions.
    replication:
        Workers per shard holding identical copies (R-way replication).
    """

    num_shards: int
    replication: int = 1

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ParameterError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if self.replication <= 0:
            raise ParameterError(
                f"replication must be positive, got {self.replication}"
            )

    # ------------------------------------------------------------- ownership
    def assign_sets(self, fingerprint: str, num_sets: int) -> np.ndarray:
        """Owning shard of every global set index, ``int64[num_sets]``."""
        if num_sets < 0:
            raise ParameterError(f"num_sets must be >= 0, got {num_sets}")
        base = int.from_bytes(
            hashlib.sha256(fingerprint.encode("utf-8")).digest()[:8], "big"
        )
        keys = derive_keys(base, np.arange(num_sets, dtype=np.uint64))
        return (keys % np.uint64(self.num_shards)).astype(np.int64)

    def owned_mask(
        self, fingerprint: str, num_sets: int, shard: int
    ) -> np.ndarray:
        """Boolean mask over global set indices owned by ``shard``."""
        if not (0 <= shard < self.num_shards):
            raise ParameterError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        return self.assign_sets(fingerprint, num_sets) == shard

    def partition_store(
        self, store: FlatRRRStore, fingerprint: str
    ) -> list[FlatRRRStore]:
        """Split a full sketch into one flat store per shard.

        Entry ``s`` of the result is exactly the sub-sketch shard ``s``'s
        workers serve: its owned sets in global order, cut with one gather
        (:meth:`FlatRRRStore.take`).  Per-shard vertex counters sum to the
        full store's counter, which is what makes scatter-gathered
        selection exact.
        """
        owners = self.assign_sets(fingerprint, len(store))
        return [
            store.take(np.flatnonzero(owners == s))
            for s in range(self.num_shards)
        ]

    # --------------------------------------------------------------- workers
    @property
    def num_workers(self) -> int:
        return self.num_shards * self.replication

    def worker_name(self, shard: int, replica: int) -> str:
        return f"s{int(shard)}r{int(replica)}"

    def describe(self) -> dict:
        """JSON-able summary (used by ``repro shard`` and stats snapshots)."""
        return {
            "num_shards": self.num_shards,
            "replication": self.replication,
            "num_workers": self.num_workers,
        }
