"""Influence of a seed set, estimated by forward live-edge simulation.

This is the benchmark's quality oracle.  It shares no code with the
program: it reads only the graph's CSR arrays and simulates cascades
forward from the seeds, where the program samples reverse-reachable sets
backwards from random roots.  A bug that every sampling path in the
program shares therefore still shows up as a drop in this number.

Both models use the live-edge view (Kempe, Kleinberg & Tardos 2003): under
IC every edge is live independently with its probability; under LT every
vertex keeps at most one in-edge, edge ``(u, v)`` with probability
``w(u, v)``.  The spread of ``S`` is the expected number of vertices
reachable from ``S`` over live edges.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order


def _lt_slices(dst: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Start of each edge's slice in its destination's cumulative in-weight."""
    order = np.argsort(dst, kind="stable")
    d_sorted = dst[order]
    csum = np.concatenate(([0.0], np.cumsum(weights[order])))
    first = np.searchsorted(d_sorted, d_sorted, side="left")
    lo = np.empty(dst.size)
    lo[order] = csum[np.arange(dst.size)] - csum[first]
    return lo


def live_edge_spread(
    indptr: np.ndarray,
    indices: np.ndarray,
    probs: np.ndarray,
    model: str,
    seeds,
    *,
    worlds: int = 1000,
    seed: int = 0,
    block: int = 100,
) -> float:
    """Expected share of vertices reached from ``seeds``, over ``worlds``
    live-edge worlds drawn from ``seed``.

    ``block`` worlds are simulated at once as one block-diagonal graph with
    a super-source wired to the seeds of every world, so a single
    breadth-first search covers the whole block.
    """
    n = len(indptr) - 1
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
    dst = np.asarray(indices, dtype=np.int64)
    probs = np.asarray(probs, dtype=np.float64)
    seeds = np.unique(np.asarray(seeds, dtype=np.int64))
    if model not in ("IC", "LT"):
        raise ValueError(f"model must be 'IC' or 'LT', got {model!r}")
    lo = _lt_slices(dst, probs) if model == "LT" else None
    rng = np.random.default_rng(seed)
    reached = 0
    for start in range(0, worlds, block):
        b = min(block, worlds - start)
        if lo is None:
            live = rng.random((b, dst.size)) < probs
        else:
            r = rng.random((b, n))[:, dst]
            live = (r >= lo) & (r < lo + probs)
        world, edge = np.nonzero(live)
        base = world * n
        source = b * n
        rows = np.concatenate([src[edge] + base, np.full(b * seeds.size, source)])
        cols = np.concatenate(
            [dst[edge] + base, (np.arange(b)[:, None] * n + seeds).ravel()]
        )
        g = csr_matrix(
            (np.ones(rows.size, dtype=np.int8), (rows, cols)),
            shape=(source + 1, source + 1),
        )
        reached += breadth_first_order(
            g, source, directed=True, return_predecessors=False
        ).size - 1
    return reached / (worlds * n)


def top_weighted_degree(indptr: np.ndarray, probs: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` vertices of largest total out-edge weight (ties: lowest id)."""
    n = len(indptr) - 1
    out_weight = np.bincount(
        np.repeat(np.arange(n), np.diff(indptr)), weights=probs, minlength=n
    )
    return np.argsort(-out_weight, kind="stable")[:k]


def relative_spreads(
    indptr: np.ndarray,
    indices: np.ndarray,
    probs: np.ndarray,
    model: str,
    answers,
    baseline,
    *,
    worlds: int = 1000,
    seed: int = 0,
) -> list[float]:
    """Spread of each seed set in ``answers`` over the spread of
    ``baseline``, all on the same simulated worlds.

    Common worlds cancel most of the simulation noise, and a baseline
    computed on the same graph cancels most of the difference between
    inputs, so the ratio moves with the answer's quality.
    """
    def spread(seeds) -> float:
        return live_edge_spread(indptr, indices, probs, model, seeds, worlds=worlds, seed=seed)

    theirs = spread(baseline)
    ours = {}
    for seeds in answers:
        key = tuple(sorted(seeds))
        if key not in ours:
            ours[key] = spread(seeds)
    return [ours[tuple(sorted(seeds))] / theirs for seeds in answers]
