"""Independent Cascade model: forward cascades and the frontier row gather.

Forward cascades use the frontier-at-a-time vectorised BFS pattern: all
edges incident to the current frontier are gathered with one
fancy-indexing pass (:func:`gather_frontier_edges`), one batch of coin
flips decides which are live, and survivors are deduplicated against the
epoch-stamped visited array.  This keeps the per-cascade Python overhead
at O(depth) instead of O(edges).  The reverse BFS that draws RRR sets runs
in :mod:`repro.kernels` over this model's transpose, with the same gather
in its per-set reference.

The live-edge semantics match the model definition exactly: every edge
incident to a newly activated vertex is examined at most once and flips
its own independent coin with the edge's probability.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.graph.csr import CSRGraph

__all__ = ["ICModel", "gather_frontier_edges"]


def gather_frontier_edges(
    graph: CSRGraph, frontier: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate the adjacency rows of every frontier vertex.

    Returns aligned ``(neighbors, probs)`` arrays covering each out-edge of
    each frontier vertex exactly once.  Vectorised row gather: the classic
    ``repeat + cumsum-offset`` trick builds one flat index array addressing
    all rows at once.
    """
    indptr = graph.indptr
    starts = indptr[frontier]
    lengths = (indptr[frontier + 1] - starts).astype(np.int64)
    total = int(lengths.sum())
    if total == 0:
        empty_i = np.empty(0, dtype=graph.indices.dtype)
        empty_p = np.empty(0, dtype=graph.probs.dtype)
        return empty_i, empty_p
    # flat[i] walks each row contiguously: offset of row start + position.
    row_of = np.repeat(np.arange(frontier.size), lengths)
    within = np.arange(total, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(lengths[:-1]))), lengths
    )
    flat = starts[row_of] + within
    return graph.indices[flat], graph.probs[flat]


class ICModel(DiffusionModel):
    """Independent Cascade bound to a graph with per-edge probabilities."""

    name = "IC"

    def forward_sample(self, seeds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One forward cascade: seeds activate, each new activation gets one
        chance per out-edge."""
        seeds = np.asarray(seeds, dtype=np.int64).ravel()
        epoch = self._next_epoch()
        stamp = self._stamp
        stamp[seeds] = epoch
        out: list[np.ndarray] = [seeds.astype(np.int32)]
        frontier = seeds
        while frontier.size:
            nbrs, probs = gather_frontier_edges(self.graph, frontier)
            if nbrs.size == 0:
                break
            live = rng.random(nbrs.size) < probs
            cand = nbrs[live]
            if cand.size == 0:
                break
            cand = np.unique(cand)
            fresh = cand[stamp[cand] != epoch]
            if fresh.size == 0:
                break
            stamp[fresh] = epoch
            out.append(fresh.astype(np.int32))
            frontier = fresh.astype(np.int64)
        return np.concatenate(out)

