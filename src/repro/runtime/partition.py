"""Work partitioners: static block and weight-balanced contiguous.

Both frameworks statically partition *something*: Ripples partitions the
vertex id space across threads in ``Find_Most_Influential_Set``; EfficientIMM
partitions the RRR sets.  The partitioners here are shared by the real
kernels, the instrumented kernels, and the cost model, so that every layer
sees exactly the same work distribution.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ParameterError

__all__ = ["block_partition", "balanced_partition"]


def block_partition(num_items: int, num_workers: int) -> list[tuple[int, int]]:
    """Split ``range(num_items)`` into ``num_workers`` contiguous blocks.

    Sizes differ by at most one (the first ``num_items % num_workers``
    blocks get the extra item) — OpenMP's ``schedule(static)``.
    Returns ``[(start, end), ...]``; empty blocks are ``(x, x)``.
    """
    _check(num_items, num_workers)
    base, extra = divmod(num_items, num_workers)
    bounds = []
    start = 0
    for w in range(num_workers):
        size = base + (1 if w < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def balanced_partition(
    weights: np.ndarray, num_workers: int
) -> list[tuple[int, int]]:
    """Contiguous partition approximately balancing total weight per worker.

    Splits at the quantiles of the weight prefix sum: worker ``w`` receives
    the smallest contiguous range whose cumulative weight reaches
    ``(w+1)/p`` of the total.  This is the static analogue of dynamic job
    balancing and is what EfficientIMM uses to seed its per-worker queues
    (locality-preserving: ranges stay contiguous).
    """
    w = np.asarray(weights, dtype=np.float64).ravel()
    _check(w.size, num_workers)
    if np.any(w < 0):
        raise ParameterError("weights must be non-negative")
    total = w.sum()
    if total == 0.0:
        return block_partition(w.size, num_workers)
    prefix = np.cumsum(w)
    targets = total * (np.arange(1, num_workers) / num_workers)
    cuts = np.searchsorted(prefix, targets, side="left") + 1
    cuts = np.clip(cuts, 0, w.size)
    bounds = []
    start = 0
    for c in list(cuts) + [w.size]:
        end = max(int(c), start)
        bounds.append((start, end))
        start = end
    return bounds


def _check(num_items: int, num_workers: int) -> None:
    if num_items < 0:
        raise ParameterError(f"num_items must be >= 0, got {num_items}")
    if num_workers <= 0:
        raise ParameterError(f"num_workers must be positive, got {num_workers}")
