"""The one sampling entry point, its streaming helpers, and telemetry.

Every sampler (``RRRSampler``, ``parallel_generate`` workers, the shard
cold build, the dynamic maintainer, the distributed ranks) draws through a
:class:`KernelSampler`: hand it ``(roots, keys)`` or global set indices,
get CSR-style ``(flat, sizes, edges)`` back — whole, or streamed one
kernel pass at a time (:data:`~repro.kernels.batched.BATCH_SIZE` IC sets or
:data:`~repro.kernels.batched.LT_BATCH_SIZE` LT walks) so a caller can
bulk-append each pass into its store without holding a whole extend twice
— and the ``kernels.*`` metric family (docs/observability.md) is emitted
for every draw and insert-extension when a telemetry session is active.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

import numpy as np

from repro import telemetry
from repro.diffusion.base import DiffusionModel
from repro.kernels.batched import BatchedSampler
from repro.kernels.rng import coin_key, derive_keys, roots_for_indices

__all__ = ["KernelSampler", "indexed_draws"]

Draws = tuple[np.ndarray, np.ndarray, np.ndarray]


def indexed_draws(
    seed: int, indices: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(roots, keys)`` of the sets with the given global indices.

    Both are pure functions of ``(seed, index)``, so any partition of the
    index space — across batches, workers, processes or shards — yields
    the same bytes per set.
    """
    indices = np.asarray(indices, dtype=np.int64)
    return (
        roots_for_indices(seed, indices, num_vertices),
        derive_keys(coin_key(seed), indices),
    )


class KernelSampler:
    """The batched kernel bound to a model, reusable across calls.

    Keeps the kernel's epoch-stamp scratch alive between calls and owns
    the ``kernels.*`` telemetry.
    """

    def __init__(self, model: DiffusionModel):
        self.model = model
        self._batched = BatchedSampler(model)

    def sample_for_roots(self, roots: np.ndarray, keys: np.ndarray) -> Draws:
        """Draw one set per ``(root, key)``: ``(flat, sizes, edges)``."""
        tel = telemetry.get()
        t0 = time.perf_counter() if tel.enabled else 0.0
        self._batched.collect_occupancy = tel.enabled
        out = self._batched.sample(roots, keys)
        if tel.enabled:
            _flat, sizes, edges = out
            self._record(tel, sizes.size, edges, time.perf_counter() - t0)
        return out

    def stream(self, roots: np.ndarray, keys: np.ndarray) -> Iterator[Draws]:
        """:meth:`sample_for_roots`, one kernel pass of sets per yielded
        triple."""
        step = self._batched.batch_size
        for lo in range(0, len(roots), step):
            yield self.sample_for_roots(roots[lo : lo + step], keys[lo : lo + step])

    def stream_indexed(self, seed: int, start: int, count: int) -> Iterator[Draws]:
        """Stream the sets with global indices ``start .. start+count``."""
        indices = np.arange(start, start + count, dtype=np.int64)
        yield from self.stream(
            *indexed_draws(seed, indices, self.model.graph.num_vertices)
        )

    def sample_indexed(self, seed: int, start: int, count: int) -> Draws:
        """The sets with global indices ``start .. start+count``, whole."""
        indices = np.arange(start, start + count, dtype=np.int64)
        return self.sample_for_roots(
            *indexed_draws(seed, indices, self.model.graph.num_vertices)
        )

    def grow(self, members, frontier, keys, counters) -> tuple[np.ndarray, np.ndarray]:
        """Extend existing IC sets from new frontiers; see
        :meth:`BatchedSampler.grow`.  Recorded like a draw, except that
        ``kernels.sets`` counts only sets drawn, so it does not move."""
        tel = telemetry.get()
        t0 = time.perf_counter() if tel.enabled else 0.0
        self._batched.collect_occupancy = tel.enabled
        flat, sizes, edges = self._batched._grow(members, frontier, keys, counters)
        if tel.enabled:
            self._record(tel, 0, edges, time.perf_counter() - t0)
        return flat, sizes

    def _record(self, tel, sets: int, edges: np.ndarray, elapsed: float) -> None:
        examined = int(edges.sum())
        reg = tel.registry
        reg.counter("kernels.sets").inc(sets)
        reg.counter("kernels.edges").inc(examined)
        reg.counter("kernels.calls").inc()
        if elapsed > 0:
            if sets:
                reg.gauge("kernels.sets_per_sec").set(sets / elapsed)
            reg.gauge("kernels.edges_per_sec").set(examined / elapsed)
        occupancy = self._batched.occupancy
        reg.counter("kernels.levels").inc(len(occupancy))
        reg.histogram("kernels.batch_occupancy").observe_many(occupancy)
        occupancy.clear()
