"""The static block partitioner.

Both frameworks statically partition *something*: Ripples partitions the
vertex id space across threads in ``Find_Most_Influential_Set``; EfficientIMM
partitions the RRR sets.  :func:`block_partition` is shared by the selection
kernels, the instrumented kernels, and the cost model, so that every layer
sees exactly the same work distribution.
"""

from __future__ import annotations

from repro.errors import ParameterError

__all__ = ["block_partition"]


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


def _check(num_items: int, num_workers: int) -> None:
    if num_items < 0:
        raise ParameterError(f"num_items must be >= 0, got {num_items}")
    if num_workers <= 0:
        raise ParameterError(f"num_workers must be positive, got {num_workers}")
