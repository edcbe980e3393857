"""Byte-accounted LRU cache of warm sketches, keyed by fingerprint.

The cache follows the memory-accounting convention of the sampler's
modelled budget (:class:`~repro.core.sampling.SamplingConfig`'s
``memory_budget_bytes``) — every insert charges the entry's footprint
against an optional byte budget — but degrades gracefully instead of
raising :class:`~repro.errors.OutOfMemoryModelError`:
least-recently-used entries are evicted until the newcomer fits, and an
entry larger than the whole budget is simply not cached (the engine then
serves that fingerprint cold every time).  An entry is charged its store
and counter once, at insertion; the selections kept over it are the query
front's (:mod:`repro.service.front`), bounded by a record count, not by
this budget.  Evicting never corrupts the entry a caller already holds:
entries are immutable after insertion and eviction only drops the cache's
reference.

The cache keeps plain-Python counters (:class:`CacheStats`) so it works
with telemetry disabled; the engine counts hits and misses as the
``service.cache.*`` counters and mirrors bytes, entries, evictions and
rejections as gauges.

A :class:`CacheEntry` is also the unit a
:class:`~repro.dynamic.serving.DynamicService` publishes and answers
from, with no cache around it: a dynamic epoch is never subject to this
budget.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["CacheEntry", "CacheStats", "SketchCache"]


#: Source of :attr:`CacheEntry.version`: unique within the process.
_versions = itertools.count()


@dataclass(frozen=True)
class CacheEntry:
    """One warm sketch: the flat store, its fused counter, and metadata.

    Every entry built gets a new :attr:`version`, so two entries under
    one fingerprint (a sketch re-warmed with other content, or the same
    slice on another replica) never read as the same instance; a kept
    selection is stamped with it.
    """

    store: Any  # FlatRRRStore (trimmed)
    counter: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)
    #: Unique within the process, set at construction.
    version: int = field(
        default_factory=lambda: next(_versions), init=False, compare=False
    )

    def nbytes(self) -> int:
        """Charged footprint: store arrays + counter."""
        return int(self.store.nbytes() + self.counter.nbytes)


@dataclass
class CacheStats:
    """Cumulative cache behaviour (plain counters, telemetry-independent)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    rejected: int = 0  # entries larger than the whole budget
    bytes: int = 0
    entries: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "hits": self.hits, "misses": self.misses,
            "evictions": self.evictions, "rejected": self.rejected,
            "bytes": self.bytes, "entries": self.entries,
            "hit_rate": self.hit_rate,
        }


class SketchCache:
    """Fingerprint-keyed LRU with a modelled byte budget.

    ``budget_bytes=None`` means unbounded (no eviction); ``0`` caches
    nothing.  Not thread-safe — the engine serialises access.
    """

    def __init__(self, budget_bytes: int | None = None):
        self.budget_bytes = budget_bytes
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def current_bytes(self) -> int:
        return self.stats.bytes

    def get(self, fingerprint: str) -> CacheEntry | None:
        """The entry for ``fingerprint`` (refreshing recency), or ``None``."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        return entry

    def peek(self, fingerprint: str) -> CacheEntry | None:
        """The resident entry for ``fingerprint``, or ``None``, counting
        no hit or miss and leaving recency alone."""
        return self._entries.get(fingerprint)

    def put(self, fingerprint: str, entry: CacheEntry) -> bool:
        """Insert (or refresh) an entry, evicting LRU entries to fit.

        Returns ``True`` when the entry resides in the cache afterwards;
        ``False`` when it alone exceeds the budget and was rejected.  Never
        raises on memory pressure.
        """
        size = entry.nbytes()
        if self.budget_bytes is not None and size > self.budget_bytes:
            self.stats.rejected += 1
            return False
        old = self._entries.pop(fingerprint, None)
        if old is not None:
            self.stats.bytes -= old.nbytes()
        if self.budget_bytes is not None:
            while self._entries and self.stats.bytes + size > self.budget_bytes:
                _, evicted = self._entries.popitem(last=False)
                self.stats.bytes -= evicted.nbytes()
                self.stats.evictions += 1
        self._entries[fingerprint] = entry
        self.stats.bytes += size
        self.stats.entries = len(self._entries)
        return True

    def evict(self, fingerprint: str) -> bool:
        """Drop one entry by key; returns whether it was present."""
        entry = self._entries.pop(fingerprint, None)
        if entry is None:
            return False
        self.stats.bytes -= entry.nbytes()
        self.stats.evictions += 1
        self.stats.entries = len(self._entries)
        return True

    def clear(self) -> None:
        self._entries.clear()
        self.stats.bytes = 0
        self.stats.entries = 0
