"""Compressed sparse row (CSR) directed graph with per-edge probabilities.

The CSR layout mirrors what Ripples and EfficientIMM both use in C++: three
flat arrays (``indptr``, ``indices``, ``probs``) giving contiguous, cache-
friendly adjacency traversal.  The reverse (transpose) graph used by reverse
influence sampling is computed once and cached, exactly as the C++ codes
materialise the transposed CSR before sampling; so is the content hash the
serving layer keys a graph by.  Nothing writes a graph's arrays in place,
which is what makes both caches sound.

Design notes (per the HPC-Python guides this repo follows):

- all hot-path state is held in contiguous numpy arrays, never Python object
  graphs;
- neighbour access returns *views*, not copies;
- ``indices`` is ``int32`` (sufficient for every replica dataset and half the
  memory traffic of ``int64`` — the same width EfficientIMM uses), ``indptr``
  is ``int64`` so edge counts above 2**31 remain representable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro._util import stable_argsort
from repro.errors import GraphConstructionError

__all__ = ["CSRGraph"]

VERTEX_DTYPE = np.int32
OFFSET_DTYPE = np.int64
PROB_DTYPE = np.float64


@dataclass
class CSRGraph:
    """A directed graph ``G = (V, E)`` in CSR form with edge probabilities.

    Attributes
    ----------
    num_vertices:
        ``|V|``; vertices are the integers ``0 .. num_vertices - 1``.
    indptr:
        ``int64`` array of length ``num_vertices + 1``; row ``u``'s
        out-edges live in ``indices[indptr[u]:indptr[u+1]]``.
    indices:
        ``int32`` array of length ``|E|``: the out-neighbour of each edge.
    probs:
        ``float64`` array aligned with ``indices``.  Under the IC model
        ``probs[e]`` is the independent activation probability of edge ``e``;
        under the LT model it is the (in-neighbour-normalised) edge weight.
    """

    num_vertices: int
    indptr: np.ndarray
    indices: np.ndarray
    probs: np.ndarray
    _transpose: "CSRGraph | None" = field(default=None, repr=False, compare=False)
    #: :func:`~repro.graph.io.graph_fingerprint`'s hash, computed once.
    _fingerprint: str | None = field(default=None, repr=False, compare=False)

    # ------------------------------------------------------------------ ctor
    def __post_init__(self) -> None:
        self.num_vertices = int(self.num_vertices)
        self.indptr = np.ascontiguousarray(self.indptr, dtype=OFFSET_DTYPE)
        self.indices = np.ascontiguousarray(self.indices, dtype=VERTEX_DTYPE)
        self.probs = np.ascontiguousarray(self.probs, dtype=PROB_DTYPE)
        self._validate()

    def _validate(self) -> None:
        n, m = self.num_vertices, self.indices.shape[0]
        if n < 0:
            raise GraphConstructionError(f"negative vertex count {n}")
        if self.indptr.shape != (n + 1,):
            raise GraphConstructionError(
                f"indptr has shape {self.indptr.shape}, expected ({n + 1},)"
            )
        if self.probs.shape != (m,):
            raise GraphConstructionError(
                f"probs has shape {self.probs.shape}, expected ({m},)"
            )
        if n == 0:
            if m != 0:
                raise GraphConstructionError("edges present in empty graph")
            return
        if self.indptr[0] != 0 or self.indptr[-1] != m:
            raise GraphConstructionError("indptr must start at 0 and end at |E|")
        if np.any(np.diff(self.indptr) < 0):
            raise GraphConstructionError("indptr must be non-decreasing")
        if m and (self.indices.min() < 0 or self.indices.max() >= n):
            raise GraphConstructionError("edge endpoint out of range")
        # Written so that NaN, which fails every comparison, is rejected too.
        if m and not np.all((0.0 <= self.probs) & (self.probs <= 1.0)):
            raise GraphConstructionError("edge probabilities must lie in [0, 1]")

    # ------------------------------------------------------------- accessors
    @property
    def num_edges(self) -> int:
        """``|E|``."""
        return int(self.indices.shape[0])

    def out_degree(self, u: int | np.ndarray | None = None) -> np.ndarray | int:
        """Out-degree of ``u`` (or the full degree vector when ``u is None``)."""
        degs = np.diff(self.indptr)
        if u is None:
            return degs
        return degs[u] if not np.isscalar(u) else int(degs[int(u)])

    def neighbors(self, u: int) -> np.ndarray:
        """View of ``u``'s out-neighbours (no copy)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edge_probs(self, u: int) -> np.ndarray:
        """View of the probabilities of ``u``'s out-edges (aligned with
        :meth:`neighbors`)."""
        return self.probs[self.indptr[u] : self.indptr[u + 1]]

    def iter_edges(self) -> Iterator[tuple[int, int, float]]:
        """Yield ``(u, v, p)`` triples.  For tests/IO, not hot paths."""
        for u in range(self.num_vertices):
            lo, hi = self.indptr[u], self.indptr[u + 1]
            for e in range(lo, hi):
                yield u, int(self.indices[e]), float(self.probs[e])

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(src, dst, prob)`` as three aligned flat arrays."""
        src = np.repeat(
            np.arange(self.num_vertices, dtype=VERTEX_DTYPE), np.diff(self.indptr)
        )
        return src, self.indices.copy(), self.probs.copy()

    # ----------------------------------------------------------- structure
    def transpose(self) -> "CSRGraph":
        """The reverse graph G^T (in-edges become out-edges); cached.

        Reverse influence sampling traverses in-edges, so both frameworks
        build the transposed CSR up front; we mirror that and memoise it.
        The probability of edge ``(u, v)`` is preserved on ``(v, u)``.
        The reverse graph holds no link back, so a graph nothing else uses
        is freed with its transpose at once, without the cycle collector.
        """
        if self._transpose is None:
            src, dst, p = self.edge_array()
            self._transpose = _csr_from_coo(self.num_vertices, dst, src, p)
        return self._transpose

    def with_probs(self, probs: np.ndarray) -> "CSRGraph":
        """A new graph sharing this topology but carrying fresh edge data."""
        return CSRGraph(self.num_vertices, self.indptr, self.indices, probs)

    def has_sorted_rows(self) -> bool:
        """True when every adjacency row is sorted by neighbour id."""
        for u in range(self.num_vertices):
            row = self.neighbors(u)
            if row.size > 1 and np.any(np.diff(row) < 0):
                return False
        return True

    # ----------------------------------------------------------- accounting
    def nbytes(self) -> int:
        """Modelled memory footprint of the CSR arrays (transpose excluded)."""
        return int(self.indptr.nbytes + self.indices.nbytes + self.probs.nbytes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.probs, other.probs)
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CSRGraph(n={self.num_vertices:,}, m={self.num_edges:,})"


def _csr_from_coo(
    n: int, src: np.ndarray, dst: np.ndarray, data: np.ndarray
) -> CSRGraph:
    """Build a CSR graph from COO triples via a counting sort on ``src``.

    Vectorised: one ``bincount`` for degrees, one stable argsort keyed on
    the source vertex to group rows, keeping each row's edges in input order.
    """
    order = stable_argsort(src)
    counts = np.bincount(src, minlength=n).astype(OFFSET_DTYPE)
    indptr = np.concatenate(([0], np.cumsum(counts)))
    return CSRGraph(n, indptr, dst[order], data[order])
