"""Per-root reference kernel over the counter-based RNG streams.

This is the *semantic specification* the batched kernel must match: one RRR
set at a time, consuming its stream ``u(key, 0), u(key, 1), ...`` in the
canonical traversal order —

IC (reverse probabilistic BFS):
    level by level; within a level, frontier vertices ascending; within a
    frontier vertex, in-edges in reverse-CSR row order.  One counter tick
    per examined edge.

LT (reverse weighted walk):
    one counter tick per step, drawn only when the current vertex has at
    least one in-edge (matching :meth:`LTModel.reverse_sample`, which
    checks ``hi == lo`` before consuming randomness).

The traversal order fixes the coins; each set is then returned sorted,
as the batched kernel emits it.  It shares only :mod:`repro.kernels.rng`
with the batched implementation, so their byte-identity
(``tests/test_kernels.py``) is a real cross-check rather than two calls
into common code.
"""

from __future__ import annotations

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.diffusion.ic import gather_frontier_edges
from repro.errors import ParameterError
from repro.kernels.rng import counter_uniforms

__all__ = ["sample_scalar", "scalar_one_set"]


def scalar_one_set(
    model: DiffusionModel, root: int, key: int
) -> tuple[np.ndarray, int]:
    """Draw one RRR set from one counter stream: ``(sorted vertices, edges)``."""
    kind = getattr(model, "name", "?")
    if kind == "IC":
        return _ic_one(model, root, key)
    if kind == "LT":
        return _lt_one(model, root, key)
    raise ParameterError(f"kernel sampling supports IC/LT, not {kind!r}")


def sample_scalar(
    model: DiffusionModel, roots: np.ndarray, keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample one set per ``(root, key)`` pair, independently.

    Returns CSR-style ``(flat_vertices int32, sizes int64, edges int64)``.
    """
    flats: list[np.ndarray] = []
    sizes = np.zeros(len(roots), dtype=np.int64)
    edges = np.zeros(len(roots), dtype=np.int64)
    for i, (root, key) in enumerate(zip(roots, keys)):
        verts, cost = scalar_one_set(model, int(root), int(key))
        flats.append(verts)
        sizes[i] = verts.size
        edges[i] = cost
    flat = (
        np.concatenate(flats) if flats else np.empty(0, dtype=np.int32)
    )
    return flat, sizes, edges


def _ic_one(model, root: int, key: int) -> tuple[np.ndarray, int]:
    rev = model.reverse_graph
    stamp = model._stamp
    epoch = model._next_epoch()
    stamp[root] = epoch
    out = [np.array([root], dtype=np.int32)]
    frontier = np.array([root], dtype=np.int64)
    edges = 0
    ctr = 0
    while frontier.size:
        nbrs, probs = gather_frontier_edges(rev, frontier)
        edges += nbrs.size
        if nbrs.size == 0:
            break
        u = counter_uniforms(key, np.arange(ctr, ctr + nbrs.size, dtype=np.int64))
        ctr += nbrs.size
        cand = nbrs[u < probs]
        if cand.size == 0:
            break
        cand = np.unique(cand)
        fresh = cand[stamp[cand] != epoch]
        if fresh.size == 0:
            break
        stamp[fresh] = epoch
        out.append(fresh.astype(np.int32))
        frontier = fresh.astype(np.int64)
    return np.sort(np.concatenate(out)), edges


def _lt_one(model, root: int, key: int) -> tuple[np.ndarray, int]:
    rev = model.reverse_graph
    indptr, indices, cum = rev.indptr, rev.indices, model._cum
    stamp = model._stamp
    epoch = model._next_epoch()
    out = [root]
    stamp[root] = epoch
    v = root
    ctr = 0
    one = np.ones(1, dtype=np.int64)
    while True:
        lo, hi = indptr[v], indptr[v + 1]
        if hi == lo:
            break
        r = float(counter_uniforms(key, ctr * one)[0])
        ctr += 1
        row = cum[lo:hi]
        if r >= row[-1]:
            break
        u = int(indices[lo + np.searchsorted(row, r, side="right")])
        if stamp[u] == epoch:
            break  # walked into the existing path: live-edge cycle
        stamp[u] = epoch
        out.append(u)
        v = u
    verts = np.sort(np.asarray(out, dtype=np.int32))
    return verts, int(verts.size)  # LT cost convention: path length
