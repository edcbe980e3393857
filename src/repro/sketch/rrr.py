"""Single RRR-set representations and the adaptive switching policy.

The paper (§IV-C) observes that a one-size-fits-all representation loses both
ways: sorted vertex lists make membership O(log s) and cost O(s log s) to
sort, while bitmaps of |V| bits waste memory on the many small sets.
EfficientIMM therefore switches per set:

- *small* sets  -> sorted ``int32`` vertex list (:class:`ListRRR`);
- *dense* sets  -> packed bitmap with O(1) membership (:class:`BitmapRRR`).

The crossover used by :class:`AdaptivePolicy` is the memory-equality point:
a list costs ``4 * s`` bytes, a bitmap ``n / 8`` bytes, so the bitmap wins
when ``s > n / 32``.  The policy exposes the threshold as a tunable fraction
so the ablation benchmarks can sweep it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ParameterError

__all__ = ["RRRSet", "ListRRR", "BitmapRRR", "AdaptivePolicy", "make_rrr"]


class RRRSet(ABC):
    """One reverse-reachable set over a vertex space of size ``num_vertices``."""

    __slots__ = ("num_vertices",)

    def __init__(self, num_vertices: int):
        self.num_vertices = int(num_vertices)

    @property
    @abstractmethod
    def size(self) -> int:
        """Number of vertices in the set."""

    @abstractmethod
    def vertices(self) -> np.ndarray:
        """The member vertices as a sorted ``int32`` array."""

    @abstractmethod
    def contains(self, v: int) -> bool:
        """Membership test for a single vertex."""

    @abstractmethod
    def contains_many(self, vs: np.ndarray) -> np.ndarray:
        """Vectorised membership test; returns a boolean array."""

    @abstractmethod
    def nbytes(self) -> int:
        """Modelled storage footprint in bytes."""

    @property
    def coverage(self) -> float:
        """Fraction of the vertex space this set covers (Table I's metric)."""
        return self.size / self.num_vertices if self.num_vertices else 0.0

    #: Short representation tag used in reports ("list" / "bitmap").
    kind: str = "?"


class ListRRR(RRRSet):
    """Sorted ``int32`` vertex list; membership via binary search.

    This is the representation Ripples uses for *every* set — the paper's
    point is that its O(s log s) sort and O(log s) membership are wasteful
    for the large SCC-driven sets.
    """

    __slots__ = ("_verts",)
    kind = "list"

    def __init__(self, vertices: np.ndarray, num_vertices: int):
        super().__init__(num_vertices)
        arr = np.asarray(vertices, dtype=np.int32).ravel()
        # The sort is charged to this representation by design: it is the
        # O(s log s) cost the paper attributes to Ripples' pipeline.
        self._verts = np.sort(arr)

    @property
    def size(self) -> int:
        return int(self._verts.size)

    def vertices(self) -> np.ndarray:
        return self._verts

    def contains(self, v: int) -> bool:
        i = int(np.searchsorted(self._verts, v))
        return i < self._verts.size and int(self._verts[i]) == int(v)

    def contains_many(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int32)
        idx = np.searchsorted(self._verts, vs)
        idx_clipped = np.minimum(idx, max(self._verts.size - 1, 0))
        if self._verts.size == 0:
            return np.zeros(vs.shape, dtype=bool)
        return self._verts[idx_clipped] == vs

    def nbytes(self) -> int:
        return int(self._verts.nbytes)


class BitmapRRR(RRRSet):
    """Packed-bit membership array; O(1) membership, O(n/8) bytes.

    Used by EfficientIMM for the dense sets produced inside a giant SCC,
    where it is both smaller than the list *and* turns the selection phase's
    membership checks into single bit probes.
    """

    __slots__ = ("_bits", "_size")
    kind = "bitmap"

    def __init__(self, vertices: np.ndarray, num_vertices: int):
        super().__init__(num_vertices)
        arr = np.asarray(vertices, dtype=np.int64).ravel()
        if arr.size and (arr.min() < 0 or arr.max() >= num_vertices):
            raise ParameterError("vertex id outside bitmap universe")
        mask = np.zeros(num_vertices, dtype=bool)
        mask[arr] = True
        self._bits = np.packbits(mask)
        self._size = int(mask.sum())

    @property
    def size(self) -> int:
        return self._size

    def vertices(self) -> np.ndarray:
        mask = np.unpackbits(self._bits, count=self.num_vertices).astype(bool)
        return np.flatnonzero(mask).astype(np.int32)

    def contains(self, v: int) -> bool:
        v = int(v)
        if not (0 <= v < self.num_vertices):
            return False
        return bool((self._bits[v >> 3] >> (7 - (v & 7))) & 1)

    def contains_many(self, vs: np.ndarray) -> np.ndarray:
        vs = np.asarray(vs, dtype=np.int64)
        byte = self._bits[vs >> 3]
        return ((byte >> (7 - (vs & 7))) & 1).astype(bool)

    def nbytes(self) -> int:
        return int(self._bits.nbytes)


@dataclass(frozen=True)
class AdaptivePolicy:
    """Chooses a representation per set, per §IV-C.

    ``bitmap_fraction`` is the size threshold as a fraction of |V|: a set
    larger than ``bitmap_fraction * n`` becomes a bitmap.  The default 1/32
    is the memory-equality crossover for 4-byte ids; ``auto`` callers can
    sweep it (Figure 5-adjacent ablation).
    """

    bitmap_fraction: float = 1.0 / 32.0

    def __post_init__(self) -> None:
        if not (0.0 < self.bitmap_fraction <= 1.0):
            raise ParameterError(
                f"bitmap_fraction must be in (0, 1], got {self.bitmap_fraction}"
            )

    def threshold(self, num_vertices: int) -> int:
        """Set-size above which the bitmap representation is selected."""
        return int(self.bitmap_fraction * num_vertices)

    def choose(self, set_size: int, num_vertices: int) -> str:
        return "bitmap" if set_size > self.threshold(num_vertices) else "list"


def make_rrr(
    vertices: np.ndarray,
    num_vertices: int,
    *,
    policy: AdaptivePolicy | None = None,
    kind: str | None = None,
) -> RRRSet:
    """Build an RRR set with an explicit ``kind`` or an adaptive ``policy``.

    Exactly one selection mechanism applies: pass ``kind`` ("list" or
    "bitmap") to force a representation (the Ripples baseline always forces
    "list"), or rely on ``policy`` (defaults to :class:`AdaptivePolicy`).
    """
    arr = np.asarray(vertices, dtype=np.int32).ravel()
    if kind is None:
        kind = (policy or AdaptivePolicy()).choose(arr.size, num_vertices)
    if kind == "list":
        return ListRRR(arr, num_vertices)
    if kind == "bitmap":
        return BitmapRRR(arr, num_vertices)
    raise ParameterError(f"unknown RRR representation {kind!r}")
