"""Shard planning: which worker owns which RRR sets, and who its replicas are.

A :class:`ShardPlan` is the one deterministic, side-effect-free description
of a cluster layout that every component — the build pipeline, each
:class:`~repro.shard.worker.ShardWorker`, and the
:class:`~repro.shard.router.Router` — derives the same answers from:

- **set ownership**: RRR set ``i`` of a sketch (identified by its content
  fingerprint) belongs to exactly one of ``num_shards`` shards.  The
  default ``"hash"`` strategy places ``sha256(fingerprint:i)`` on a
  consistent-hash ring of ``virtual_nodes`` points per shard, so adding a
  shard remaps only ``~1/num_shards`` of the sets; ``"block"`` and
  ``"balanced"`` reuse :func:`repro.runtime.partition.block_partition` /
  :func:`repro.runtime.partition.balanced_partition` for contiguous
  layouts (balanced needs the per-set sizes, so it is only available when
  the whole sketch is materialised — i.e. the build path).
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
from functools import cached_property

import numpy as np

from repro.errors import ParameterError
from repro.runtime.partition import balanced_partition, block_partition
from repro.sketch.store import FlatRRRStore

__all__ = ["ShardPlan", "shard_fingerprint"]

#: Assignment strategies a plan accepts.
STRATEGIES = ("hash", "block", "balanced")


def _ring_point(key: str) -> int:
    """64-bit position of ``key`` on the hash ring."""
    return int.from_bytes(
        hashlib.sha256(key.encode("utf-8")).digest()[:8], "big"
    )


def shard_fingerprint(fingerprint: str, shard: int, plan: "ShardPlan") -> str:
    """Content key of one shard's sub-sketch.

    Replicas of the same shard share this key (they hold identical data),
    while different plans — another shard count, strategy, or ring
    resolution — never collide, so a cluster resize can coexist with the
    old layout in one artifact directory.
    """
    key = (
        f"{fingerprint}:shard{int(shard)}/{plan.num_shards}"
        f":{plan.strategy}:{plan.virtual_nodes}"
    )
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
    strategy:
        ``"hash"`` (consistent hashing over fingerprints, the default),
        ``"block"`` (contiguous equal-count ranges), or ``"balanced"``
        (contiguous ranges balancing total entries — build path only).
    virtual_nodes:
        Ring points per shard under ``"hash"``; more points smooth the
        set-count imbalance between shards.
    """

    num_shards: int
    replication: int = 1
    strategy: str = "hash"
    virtual_nodes: int = 64

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise ParameterError(
                f"num_shards must be positive, got {self.num_shards}"
            )
        if self.replication <= 0:
            raise ParameterError(
                f"replication must be positive, got {self.replication}"
            )
        if self.strategy not in STRATEGIES:
            raise ParameterError(
                f"unknown shard strategy {self.strategy!r}; "
                f"expected one of {STRATEGIES}"
            )
        if self.virtual_nodes <= 0:
            raise ParameterError(
                f"virtual_nodes must be positive, got {self.virtual_nodes}"
            )

    # ------------------------------------------------------------------ ring
    @cached_property
    def _ring(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted ring positions, shard id at each position)."""
        points = np.empty(self.num_shards * self.virtual_nodes, dtype=np.uint64)
        shards = np.empty_like(points, dtype=np.int64)
        i = 0
        for s in range(self.num_shards):
            for v in range(self.virtual_nodes):
                points[i] = _ring_point(f"shard{s}:vnode{v}")
                shards[i] = s
                i += 1
        order = np.argsort(points, kind="stable")
        return points[order], shards[order]

    def owner(self, key: str) -> int:
        """Shard owning ``key``: the first ring point at or after its hash
        (wrapping past the top of the ring back to the first point)."""
        points, shards = self._ring
        idx = int(np.searchsorted(points, np.uint64(_ring_point(key))))
        return int(shards[idx % points.size])

    # ------------------------------------------------------------- ownership
    def assign_sets(
        self,
        fingerprint: str,
        num_sets: int,
        *,
        sizes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Owning shard of every global set index, ``int64[num_sets]``.

        ``sizes`` (per-set entry counts, one per set) is required by the
        ``"balanced"`` strategy and ignored by the others.
        """
        if num_sets < 0:
            raise ParameterError(f"num_sets must be >= 0, got {num_sets}")
        owners = np.empty(num_sets, dtype=np.int64)
        if self.strategy == "hash":
            for i in range(num_sets):
                owners[i] = self.owner(f"{fingerprint}:{i}")
            return owners
        if self.strategy == "balanced":
            if sizes is None:
                raise ParameterError(
                    "the 'balanced' strategy needs per-set sizes; build the "
                    "full sketch first (repro shard build) or use 'hash'/'block'"
                )
            sizes = np.asarray(sizes, dtype=np.float64).ravel()
            if sizes.size != num_sets:
                raise ParameterError(
                    f"got {sizes.size} set sizes for {num_sets} sets"
                )
            bounds = balanced_partition(sizes, self.num_shards)
        else:  # block
            bounds = block_partition(num_sets, self.num_shards)
        for s, (lo, hi) in enumerate(bounds):
            owners[lo:hi] = s
        return owners

    def owned_mask(
        self,
        fingerprint: str,
        num_sets: int,
        shard: int,
        *,
        sizes: np.ndarray | None = None,
    ) -> np.ndarray:
        """Boolean mask over global set indices owned by ``shard``."""
        if not (0 <= shard < self.num_shards):
            raise ParameterError(
                f"shard {shard} out of range [0, {self.num_shards})"
            )
        return self.assign_sets(fingerprint, num_sets, sizes=sizes) == shard

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
        owners = self.assign_sets(
            fingerprint, len(store), sizes=store.sizes()
        )
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
            "strategy": self.strategy,
            "virtual_nodes": self.virtual_nodes,
            "num_workers": self.num_workers,
        }
