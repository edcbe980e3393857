"""The per-set reverse traversal over the counter-based RNG streams.

This is the one per-set reverse sampler in the program and the *semantic
specification* the batched kernel must match: one RRR set at a time,
consuming its stream ``u(key, 0), u(key, 1), ...`` in the canonical
traversal order —

IC (reverse probabilistic BFS, :func:`ic_levels`):
    level by level; within a level, frontier vertices ascending; within a
    frontier vertex, in-edges in reverse-CSR row order.  One counter tick
    per examined edge.

LT (reverse weighted walk, :func:`lt_steps`):
    one counter tick per step, drawn only when the current vertex has at
    least one in-edge.

:func:`scalar_one_set` collects the levels or steps into one set, returned
sorted as the batched kernel emits it;
:func:`repro.simmachine.instrumented.trace_sampling` turns the same levels
and steps into address streams.  The module shares only
:mod:`repro.kernels.rng` with the batched implementation, so their
byte-identity (``tests/test_kernels.py``) is a real cross-check rather
than two calls into common code.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.diffusion.base import DiffusionModel
from repro.diffusion.ic import gather_frontier_edges
from repro.errors import ParameterError
from repro.kernels.rng import counter_uniforms

__all__ = ["ic_levels", "lt_steps", "sample_scalar", "scalar_one_set"]


def scalar_one_set(
    model: DiffusionModel, root: int, key: int
) -> tuple[np.ndarray, int]:
    """Draw one RRR set from one counter stream: ``(sorted vertices, edges)``."""
    kind = getattr(model, "name", "?")
    if kind == "IC":
        out = [np.array([root], dtype=np.int32)]
        edges = 0
        for _frontier, examined, fresh in ic_levels(model, root, key):
            edges += examined.size
            out.append(fresh.astype(np.int32))
        return np.sort(np.concatenate(out)), edges
    if kind == "LT":
        path = [root] + [u for _v, u, fresh in lt_steps(model, root, key) if fresh]
        verts = np.sort(np.asarray(path, dtype=np.int32))
        return verts, int(verts.size)  # LT cost convention: path length
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


def ic_levels(
    model: DiffusionModel, root: int, key: int
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The IC reverse BFS from ``root`` on stream ``key``, level by level.

    Yields ``(frontier, examined, fresh)`` per level: the level's vertices
    (ascending, the root alone first), the in-neighbour of every in-edge
    it examines, in draw order, and the vertices it newly reaches
    (ascending; empty at the last level).
    """
    rev = model.reverse_graph
    stamp = model._stamp
    epoch = model._next_epoch()
    stamp[root] = epoch
    frontier = np.array([root], dtype=np.int64)
    ctr = 0
    while frontier.size:
        examined, probs = gather_frontier_edges(rev, frontier)
        u = counter_uniforms(
            key, np.arange(ctr, ctr + examined.size, dtype=np.int64)
        )
        ctr += examined.size
        cand = np.unique(examined[u < probs])
        fresh = cand[stamp[cand] != epoch]
        stamp[fresh] = epoch
        yield frontier, examined, fresh
        frontier = fresh.astype(np.int64)


def lt_steps(
    model: DiffusionModel, root: int, key: int
) -> Iterator[tuple[int, int, bool]]:
    """The LT reverse walk from ``root`` on stream ``key``, draw by draw.

    Yields ``(v, u, fresh)`` for each uniform the walk draws at vertex
    ``v`` (a vertex with no in-edges draws none and ends the walk): ``u``
    is the in-neighbour picked, ``-1`` when the draw falls in the row's
    slack, and ``fresh`` whether ``u`` is new to the path.  The walk goes
    on from ``u`` exactly when ``fresh``; otherwise it closed a live-edge
    cycle or stopped.
    """
    rev = model.reverse_graph
    indptr, indices, cum = rev.indptr, rev.indices, model._cum
    stamp = model._stamp
    epoch = model._next_epoch()
    stamp[root] = epoch
    v = root
    ctr = np.zeros(1, dtype=np.int64)
    while indptr[v + 1] > indptr[v]:
        lo, hi = indptr[v], indptr[v + 1]
        r = float(counter_uniforms(key, ctr)[0])
        ctr += 1
        # cum[hi - 1] is the row's total in-weight (<= 1); beyond it, no edge.
        if r >= cum[hi - 1]:
            yield v, -1, False
            return
        u = int(indices[lo + np.searchsorted(cum[lo:hi], r, side="right")])
        fresh = bool(stamp[u] != epoch)
        stamp[u] = epoch
        yield v, u, fresh
        if not fresh:
            return
        v = u
