"""The one sampling entry point, its streaming helpers, and telemetry.

Every sampler (``RRRSampler``, ``parallel_generate`` workers, the shard
cold build, the dynamic maintainer, the distributed ranks) draws through a
:class:`KernelSampler`: hand it ``(roots, keys)`` or global set indices,
get CSR-style ``(flat, sizes, edges)`` back — whole, or streamed one
:data:`~repro.kernels.batched.BATCH_SIZE` batch at a time so a caller can
bulk-append each batch into its store without holding a whole extend twice
— and the ``kernels.*`` metric family (docs/observability.md) is emitted
when a telemetry session is active.
"""

from __future__ import annotations

import time
from collections.abc import Iterator

import numpy as np

from repro import telemetry
from repro.diffusion.base import DiffusionModel
from repro.kernels.batched import BATCH_SIZE, BatchedSampler
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
        self.batch_size = BATCH_SIZE
        self._batched = BatchedSampler(model, self.batch_size)

    def sample_for_roots(self, roots: np.ndarray, keys: np.ndarray) -> Draws:
        """Draw one set per ``(root, key)``: ``(flat, sizes, edges)``."""
        tel = telemetry.get()
        t0 = time.perf_counter() if tel.enabled else 0.0
        self._batched.collect_occupancy = tel.enabled
        out = self._batched.sample(roots, keys)
        if tel.enabled:
            self._record(tel, out, time.perf_counter() - t0)
        return out

    def stream(self, roots: np.ndarray, keys: np.ndarray) -> Iterator[Draws]:
        """:meth:`sample_for_roots`, one batch of sets per yielded triple."""
        for lo in range(0, len(roots), self.batch_size):
            hi = lo + self.batch_size
            yield self.sample_for_roots(roots[lo:hi], keys[lo:hi])

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
        :meth:`BatchedSampler.grow`."""
        return self._batched.grow(members, frontier, keys, counters)

    def _record(self, tel, out: Draws, elapsed: float) -> None:
        _flat, sizes, edges = out
        reg = tel.registry
        reg.counter("kernels.sets").inc(sizes.size)
        reg.counter("kernels.edges").inc(int(edges.sum()))
        reg.counter("kernels.calls").inc()
        if elapsed > 0:
            reg.gauge("kernels.sets_per_sec").set(sizes.size / elapsed)
            reg.gauge("kernels.edges_per_sec").set(int(edges.sum()) / elapsed)
        reg.counter("kernels.levels").inc(len(self._batched.occupancy))
        hist = reg.histogram("kernels.batch_occupancy")
        for frac in self._batched.occupancy:
            hist.observe(frac)
        self._batched.occupancy.clear()
