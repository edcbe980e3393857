"""The flat RRR-set store: every set's vertices in one CSR layout.

:class:`FlatRRRStore` is the one mutable in-memory store: every set's
vertices, ascending, concatenated into one ``int32`` array with an
``int64`` offsets array (CSR-of-sets).  All selection kernels consume this
layout because it vectorises counting (`bincount`) and per-set slicing.
Sets come in the same way, as CSR ``(vertices, sizes)``, and one
validator checks every set before it is written.

The paper's other layouts are not kept as second copies of the sets:

- EfficientIMM's adaptive list/bitmap sets (§IV-C) are priced from the set
  sizes by :class:`~repro.sketch.rrr.AdaptivePolicy` (footprint, budget
  check and build cost in :mod:`repro.core.sampling`);
- the RRR-partitioned, worker-local layout (§IV-A/B) is a list of flat
  stores, one per worker or shard, each cut from the full store by one
  gather (:meth:`FlatRRRStore.take`;
  :meth:`~repro.shard.plan.ShardPlan.partition_store`).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterator

import numpy as np

from repro._util import stable_argsort
from repro.errors import ParameterError

__all__ = ["FlatRRRStore", "gather_rows"]

_GROW = 1.5  # amortised growth factor for the flat arrays


def content_fingerprint(
    num_vertices: int, sizes: np.ndarray, vertices: np.ndarray
) -> str:
    """Content hash of a store: vertex space + per-set sizes + flat entries.

    :meth:`FlatRRRStore.fingerprint` hashes the store's *logical* content
    (global set order, concatenated vertices), never its growth slack, so
    two stores holding the same sets in the same order fingerprint
    identically — a trimmed store, one rebuilt by
    :meth:`FlatRRRStore.from_arrays`, or a shared-memory view.  The hex16
    output matches the artifact/sketch fingerprint width and keys
    :mod:`repro.shm` segment names.
    """
    h = hashlib.sha256()
    h.update(b"rrr-store/1:")
    h.update(int(num_vertices).to_bytes(8, "little"))
    h.update(np.ascontiguousarray(sizes, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(vertices, dtype=np.int32).tobytes())
    return h.hexdigest()[:16]


def gather_rows(
    offsets: np.ndarray, values: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR ``(offsets, values)``, concatenated in
    order, and their lengths: one vectorised index, no per-row copy.

    The one gather behind :meth:`FlatRRRStore.take`,
    :meth:`FlatRRRStore.membership_pairs`, the dynamic maintainer's repairs
    and selection's per-round cover (:class:`~repro.core.selection.CoverStep`).
    """
    lo = offsets[rows]
    lengths = offsets[rows + 1] - lo
    starts = np.cumsum(lengths) - lengths
    index = np.arange(int(lengths.sum()), dtype=np.int64)
    return values[index + np.repeat(lo - starts, lengths)], lengths


def _check_sets(
    num_vertices: int, vertices, sizes
) -> tuple[np.ndarray, np.ndarray]:
    """The CSR sets ``(vertices, sizes)`` as ``int32`` and ``int64`` arrays,
    once they are checked: set *j* is the next ``sizes[j]`` entries.

    The one check of every set a caller writes into a store.  Raises
    :class:`ParameterError` unless every size is ``>= 0``, the sizes sum
    to the number of vertices, and each set is strictly ascending in
    ``[0, num_vertices)``.  Ids are range-checked as given, so the
    ``int32`` cast cannot wrap a wide one into range.
    """
    raw = np.asarray(vertices).ravel()
    sizes = np.asarray(sizes, dtype=np.int64).ravel()
    if sizes.size and sizes.min() < 0:
        raise ParameterError("set sizes must be >= 0")
    if int(sizes.sum()) != raw.size:
        raise ParameterError(
            f"sizes sum to {int(sizes.sum())} but there are {raw.size} vertices"
        )
    verts = raw.astype(np.int32, copy=False)
    rising = verts[1:] > verts[:-1]
    # A set may start below the end of the set before it.
    ends = np.cumsum(sizes)
    rising[ends[(ends > 0) & (ends < verts.size)] - 1] = True
    if not rising.all():
        raise ParameterError("each set's vertices must be strictly ascending")
    if raw.size and (raw.min() < 0 or raw.max() >= num_vertices):
        raise ParameterError(f"vertex ids must lie in [0, {num_vertices})")
    return verts, sizes


class FlatRRRStore:
    """Concatenated RRR sets: ``offsets[i]:offsets[i+1]`` slices set ``i``.

    Sets are written only in CSR form ``(vertices, sizes)``, through
    :meth:`append_csr`, :meth:`from_arrays` and :meth:`replace_sets`, and
    each is checked strictly ascending in ``[0, num_vertices)`` before
    anything is written.  The store never sorts: the kernels emit sets
    ascending, and the sort the paper charges Ripples per set is
    modelled, in ``charge_per_set``, not paid here.
    """

    def __init__(self, num_vertices: int):
        self.num_vertices = int(num_vertices)
        self._offsets = np.zeros(16, dtype=np.int64)
        self._verts = np.empty(64, dtype=np.int32)
        self._num_sets = 0
        self._num_entries = 0

    # --------------------------------------------------------------- append
    def append_csr(self, vertices: np.ndarray, sizes: np.ndarray) -> None:
        """Add ``len(sizes)`` sets at once from CSR form: set *j* is the
        next ``sizes[j]`` entries of ``vertices``, strictly ascending.

        One checked bulk copy, the path every sampler streams its batches
        through.  A malformed batch raises :class:`ParameterError` and
        adds nothing.
        """
        verts, sizes = _check_sets(self.num_vertices, vertices, sizes)
        need = self._num_entries + verts.size
        if need > self._verts.size:
            new_cap = max(int(self._verts.size * _GROW), need)
            self._verts = np.resize(self._verts, new_cap)
        last = self._num_sets + sizes.size
        if last + 1 > self._offsets.size:
            new_cap = max(int(self._offsets.size * _GROW) + 2, last + 1)
            self._offsets = np.resize(self._offsets, new_cap)
        self._verts[self._num_entries : need] = verts
        self._offsets[self._num_sets + 1 : last + 1] = (
            np.cumsum(sizes) + self._num_entries
        )
        self._num_entries = need
        self._num_sets = last

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        offsets: np.ndarray,
        vertices: np.ndarray,
    ) -> "FlatRRRStore":
        """Rebuild a store directly from its flat arrays (deserialisation).

        The sets are checked as in :meth:`append_csr` (``offsets`` must
        start at 0) and copied, never re-sorted, so a store round-trips
        bit for bit.
        """
        offsets = np.array(offsets, dtype=np.int64).ravel()
        if offsets.size < 1 or offsets[0] != 0:
            raise ParameterError("offsets must start with 0")
        verts, _ = _check_sets(num_vertices, vertices, np.diff(offsets))
        store = cls(num_vertices)
        store._offsets = offsets
        store._verts = verts.copy()
        store._num_sets = offsets.size - 1
        store._num_entries = int(verts.size)
        return store

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return self._num_sets

    def get(self, i: int) -> np.ndarray:
        """View of set ``i``'s vertices (no copy)."""
        if not (0 <= i < self._num_sets):
            raise IndexError(f"set index {i} out of range [0, {self._num_sets})")
        return self._verts[self._offsets[i] : self._offsets[i + 1]]

    def take(self, indices: np.ndarray) -> "FlatRRRStore":
        """A new store holding sets ``indices``, in that order, cut with one
        gather of their entries (:func:`gather_rows`).

        Each index must lie in ``[0, len(self))``; a negative one raises
        rather than counting from the end.  The copy is already ascending,
        so it is not re-checked, and it carries no growth slack.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size and (idx.min() < 0 or idx.max() >= self._num_sets):
            raise IndexError(f"set indices must lie in [0, {self._num_sets})")
        verts, sizes = gather_rows(self.offsets, self.vertices, idx)
        out = FlatRRRStore(self.num_vertices)
        out._offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=out._offsets[1:])
        out._verts = verts
        out._num_sets = int(idx.size)
        out._num_entries = int(verts.size)
        return out

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(self._num_sets):
            yield self.get(i)

    @property
    def offsets(self) -> np.ndarray:
        """Offsets array view, length ``len(self) + 1``."""
        return self._offsets[: self._num_sets + 1]

    @property
    def vertices(self) -> np.ndarray:
        """Flat concatenated vertices view, length ``total_entries``."""
        return self._verts[: self._num_entries]

    @property
    def total_entries(self) -> int:
        return self._num_entries

    def sizes(self) -> np.ndarray:
        """Per-set sizes."""
        return np.diff(self.offsets)

    # ---------------------------------------------------------- bulk kernels
    def vertex_counts(self) -> np.ndarray:
        """Occurrences of each vertex across all sets (one ``bincount``).

        This is the "initialise global counter" loop of Algorithm 2 in its
        fully vectorised serial form.
        """
        return np.bincount(self.vertices, minlength=self.num_vertices).astype(
            np.int64
        )

    def sets_containing(self, v: int) -> np.ndarray:
        """Ascending indices of the sets that contain vertex ``v`` (none for
        a ``v`` outside ``[0, num_vertices)``): :meth:`membership_pairs`
        of the one vertex."""
        return self.membership_pairs(np.array([v]))[0]

    def membership_pairs(
        self, vertices: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every ``(set, i)`` with ``vertices[i]`` in set ``set``, as two
        aligned arrays (``i`` ascending, then set ascending).

        One scan of the flat vertex array against a mark per queried
        vertex, then a sort of the hits alone to group them by vertex, so a
        query costs one pass over the entries however few vertices it
        asks about, and the store keeps no index beside its sets.  A
        vertex outside ``[0, num_vertices)`` is in no set; a vertex queried
        twice gets its pairs twice.
        """
        n = self.num_vertices
        vs = np.asarray(vertices, dtype=np.int64).ravel()
        asked = np.flatnonzero((vs >= 0) & (vs < n))
        mark = np.zeros(n, dtype=bool)
        mark[vs[asked]] = True
        hits = np.flatnonzero(mark[self.vertices])
        hit_verts = self.vertices[hits]
        hit_sets = np.searchsorted(self.offsets, hits, side="right") - 1
        hit_sets = hit_sets[stable_argsort(hit_verts)]
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(hit_verts, minlength=n), out=ptr[1:])
        sets, lengths = gather_rows(ptr, hit_sets, vs[asked])
        return sets, np.repeat(asked, lengths)

    # ------------------------------------------------------------- mutation
    def replace_sets(
        self, indices: np.ndarray, vertices: np.ndarray, sizes: np.ndarray
    ) -> "FlatRRRStore":
        """Splice new sets into existing set slots, in place.

        ``indices`` must be strictly increasing set indices; the CSR sets
        ``(vertices, sizes)``, checked as in :meth:`append_csr`, replace
        them in that order and may have any size.  One vectorised pass:
        the new offsets from the replaced sizes, one masked copy of the
        kept entries and one copy of the new ones, so the cost is
        O(total_entries) however many sets change.  Returns ``self``.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if np.any(np.diff(idx) <= 0):
            raise ParameterError("replace_sets indices must be strictly increasing")
        if idx.size and (idx[0] < 0 or idx[-1] >= self._num_sets):
            raise ParameterError(
                f"replace_sets index out of range [0, {self._num_sets})"
            )
        verts, new_sizes = _check_sets(self.num_vertices, vertices, sizes)
        if new_sizes.size != idx.size:
            raise ParameterError(
                f"got {idx.size} indices but {new_sizes.size} replacement sets"
            )
        if idx.size == 0:
            return self
        keep = np.ones(self._num_sets, dtype=bool)
        keep[idx] = False
        all_sizes = self.sizes()
        kept = self.vertices[np.repeat(keep, all_sizes)]
        all_sizes[idx] = new_sizes
        offsets = np.zeros(self._num_sets + 1, dtype=np.int64)
        np.cumsum(all_sizes, out=offsets[1:])
        out = np.empty(int(offsets[-1]), dtype=np.int32)
        at_kept = np.repeat(keep, all_sizes)
        out[at_kept] = kept
        out[~at_kept] = verts
        self._offsets, self._verts = offsets, out
        self._num_entries = out.size
        return self

    def nbytes(self) -> int:
        """Modelled footprint: the *logical* arrays, not the growth slack."""
        return int(self._num_entries * 4 + (self._num_sets + 1) * 8)

    def capacity_bytes(self) -> int:
        """Physical footprint of the backing arrays, growth slack included."""
        return int(self._verts.nbytes + self._offsets.nbytes)

    def trim(self) -> "FlatRRRStore":
        """Drop the amortised growth slack so the physical footprint equals
        :meth:`nbytes`.  Call before caching or serialising a store that has
        stopped growing; appending afterwards re-grows normally.  Returns
        ``self`` for chaining."""
        if self._verts.size != self._num_entries:
            self._verts = self._verts[: self._num_entries].copy()
        if self._offsets.size != self._num_sets + 1:
            self._offsets = self._offsets[: self._num_sets + 1].copy()
        return self

    def fingerprint(self) -> str:
        """Layout-independent content hash (see :func:`content_fingerprint`)."""
        return content_fingerprint(self.num_vertices, self.sizes(), self.vertices)

