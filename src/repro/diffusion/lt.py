"""Linear Threshold model: forward threshold cascades and the reverse rows.

**Reverse view.** Under LT's live-edge interpretation (Kempe et al.),
every vertex independently selects *at most one* in-edge, choosing edge
``(u, v)`` with probability ``w_uv`` and no edge with the remaining
``1 - sum_u w_uv``.  A reverse-reachable set rooted at ``r`` is therefore a
*path*: follow the (single) selected in-edge from ``r`` until either no edge
is selected or an already-visited vertex is reached.  This is why Table I/
§III observes LT RRR sets are much smaller than IC's while theta is much
larger.  The walks themselves run in :mod:`repro.kernels`; this model
holds the per-vertex cumulative weight rows over the transpose CSR they
read, so picking an in-neighbour proportionally to weight is one binary
search — O(log indegree).

**Forward simulation.** Thresholds ``T_v ~ U[0, 1]`` are drawn per cascade;
each round adds the out-weights of newly active vertices into an incoming-
mass accumulator (one ``np.add.at`` scatter) and activates vertices whose
mass crosses their threshold.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.diffusion.ic import gather_frontier_edges
from repro.graph.csr import CSRGraph

__all__ = ["LTModel"]


class LTModel(DiffusionModel):
    """Linear Threshold model bound to a graph with normalised weights."""

    name = "LT"

    def __init__(self, graph: CSRGraph):
        super().__init__(graph)
        rev = self.reverse_graph
        # Per-row cumulative incoming weights: cum[indptr[v]:indptr[v+1]] is
        # the running sum of v's in-edge weights; the row total may be < 1,
        # the slack being the "select no edge" probability.
        self._cum = _row_cumsum(rev)
        self._incoming_mass = np.zeros(graph.num_vertices)
        self._mass_stamp = np.zeros(graph.num_vertices, dtype=np.int64)

    def forward_sample(self, seeds: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        seeds = np.asarray(seeds, dtype=np.int64).ravel()
        n = self.graph.num_vertices
        thresholds = rng.random(n)
        epoch = self._next_epoch()
        stamp = self._stamp
        stamp[seeds] = epoch
        # Reset incoming mass lazily via its own epoch stamps.
        mass, mstamp = self._incoming_mass, self._mass_stamp
        out: list[np.ndarray] = [seeds.astype(np.int32)]
        frontier = seeds
        while frontier.size:
            nbrs, wts = gather_frontier_edges(self.graph, frontier)
            if nbrs.size == 0:
                break
            nbrs64 = nbrs.astype(np.int64)
            stale = mstamp[nbrs64] != epoch
            if np.any(stale):
                reset = nbrs64[stale]
                mass[reset] = 0.0
                mstamp[reset] = epoch
            np.add.at(mass, nbrs64, wts)
            cand = np.unique(nbrs64)
            crossed = cand[
                (stamp[cand] != epoch) & (mass[cand] >= thresholds[cand])
            ]
            if crossed.size == 0:
                break
            stamp[crossed] = epoch
            out.append(crossed.astype(np.int32))
            frontier = crossed
        return np.concatenate(out)


def _row_cumsum(graph: CSRGraph) -> np.ndarray:
    """Cumulative sum of edge weights within each CSR row (vectorised).

    Computed as a global cumsum minus each row's starting prefix, avoiding a
    Python loop over rows.
    """
    if graph.num_edges == 0:
        return np.empty(0)
    total = np.cumsum(graph.probs)
    row_starts = graph.indptr[:-1]
    # Prefix value just before each row begins, broadcast to its edges.
    before = np.where(row_starts > 0, total[row_starts - 1], 0.0)
    lengths = np.diff(graph.indptr)
    return total - np.repeat(before, lengths)
