"""Byte-accounted LRU cache of warm sketches, keyed by fingerprint.

The cache follows the memory-accounting convention of the sampler's
modelled budget (:class:`~repro.core.sampling.SamplingConfig`'s
``memory_budget_bytes``) — every insert charges the entry's footprint
against an optional byte budget — but degrades gracefully instead of
raising :class:`~repro.errors.OutOfMemoryModelError`:
least-recently-used entries are evicted until the newcomer fits, and an
entry larger than the whole budget is simply not cached (the engine then
serves that fingerprint cold every time).  An entry's charge covers the
selection it keeps (:meth:`CacheEntry.select`, 16 bytes a round); the
engine re-charges the entry (:meth:`SketchCache.recharge`) whenever that
selection grows, so the byte total is always the sum of what the resident
entries hold.  Evicting never corrupts the entry a caller already holds:
an entry's store and counter are immutable and eviction only drops the
cache's reference.

The cache keeps plain-Python counters (:class:`CacheStats`) so it works
with telemetry disabled; the engine mirrors the events onto the
``service.cache.*`` metrics and :func:`repro.telemetry.record_service_stats`
projects the cumulative stats as gauges.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.selection import efficient_select

__all__ = ["CacheEntry", "CacheStats", "SketchCache"]


def _no_rounds() -> np.ndarray:
    return np.empty(0, dtype=np.int64)


#: Source of :attr:`CacheEntry.version`: unique within the process.
_versions = itertools.count()


@dataclass(frozen=True)
class CacheEntry:
    """One warm sketch: the flat store, its fused counter, metadata, and
    the longest greedy selection served from it so far.

    Greedy is prefix-consistent (round ``i`` never depends on later
    rounds), so that selection's first ``k`` seeds and per-round newly
    covered sets answer any ``k`` up to its length.  It lives and dies
    with its entry: a re-warmed fingerprint gets a new entry, and an
    evicted entry takes its selection with it.

    Every entry built gets a new :attr:`version`, so two entries under
    one fingerprint (a slice re-adopted with other content, or the same
    slice on another replica) never read as the same instance.
    """

    store: Any  # FlatRRRStore (trimmed)
    counter: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)
    #: The kept selection's seeds, and the sets each of its rounds newly
    #: covered (0 on fill rounds); empty until the first :meth:`select`.
    seeds: np.ndarray = field(
        default_factory=_no_rounds, init=False, repr=False, compare=False
    )
    newly: np.ndarray = field(
        default_factory=_no_rounds, init=False, repr=False, compare=False
    )
    #: Unique within the process, set at construction.
    version: int = field(
        default_factory=lambda: next(_versions), init=False, compare=False
    )

    def select(self, k: int) -> None:
        """Keep one :func:`~repro.core.selection.efficient_select` at ``k``
        over the store and a copy of the counter, which are never written.
        The engine calls it only for a ``k`` longer than the kept
        selection."""
        sel = efficient_select(self.store, k, 1, initial_counter=self.counter)
        # The only fields set after construction (frozen guards the rest).
        object.__setattr__(self, "seeds", sel.seeds)
        object.__setattr__(
            self, "newly",
            np.array([r["new_covered_sets"] for r in sel.rounds], np.int64),
        )

    def nbytes(self) -> int:
        """Charged footprint: store arrays + counter + kept selection."""
        return int(
            self.store.nbytes() + self.counter.nbytes
            + self.seeds.nbytes + self.newly.nbytes
        )


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
        #: Each resident entry with the bytes charged for it.
        self._entries: "OrderedDict[str, tuple[CacheEntry, int]]" = (
            OrderedDict()
        )
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self._entries

    def current_bytes(self) -> int:
        return self.stats.bytes

    def get(self, fingerprint: str) -> CacheEntry | None:
        """The entry for ``fingerprint`` (refreshing recency), or ``None``."""
        item = self._entries.get(fingerprint)
        if item is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        return item[0]

    def peek(self, fingerprint: str) -> CacheEntry | None:
        """The resident entry for ``fingerprint``, or ``None``, counting
        no hit or miss and leaving recency alone."""
        item = self._entries.get(fingerprint)
        return None if item is None else item[0]

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
            self.stats.bytes -= old[1]
        if self.budget_bytes is not None:
            while self._entries and self.stats.bytes + size > self.budget_bytes:
                _, (_, evicted) = self._entries.popitem(last=False)
                self.stats.bytes -= evicted
                self.stats.evictions += 1
        self._entries[fingerprint] = (entry, size)
        self.stats.bytes += size
        self.stats.entries = len(self._entries)
        return True

    def recharge(self, fingerprint: str, entry: CacheEntry) -> None:
        """Charge ``entry`` its current footprint if it is the entry
        resident under ``fingerprint`` (its kept selection grew): LRU
        entries are evicted to fit, and an entry now larger than the whole
        budget is evicted itself."""
        if self.peek(fingerprint) is entry:
            if not self.put(fingerprint, entry):
                self.evict(fingerprint)

    def evict(self, fingerprint: str) -> bool:
        """Drop one entry by key; returns whether it was present."""
        item = self._entries.pop(fingerprint, None)
        if item is None:
            return False
        self.stats.bytes -= item[1]
        self.stats.evictions += 1
        self.stats.entries = len(self._entries)
        return True

    def clear(self) -> None:
        self._entries.clear()
        self.stats.bytes = 0
        self.stats.entries = 0
