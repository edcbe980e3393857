"""The adaptive list/bitmap policy for RRR sets (§IV-C).

The paper observes that a one-size-fits-all representation loses both
ways: sorted vertex lists make membership O(log s) and cost O(s log s) to
sort, while bitmaps of |V| bits waste memory on the many small sets.
EfficientIMM therefore switches per set: *small* sets stay sorted
``int32`` vertex lists, *dense* sets become packed bitmaps with O(1)
membership.

The crossover used by :class:`AdaptivePolicy` is the memory-equality point:
a list costs ``4 * s`` bytes, a bitmap ``n / 8`` bytes, so the bitmap wins
when ``s > n / 32``.  The policy exposes the threshold as a tunable fraction
so the ablation benchmarks can sweep it.

Every set is physically stored once, as an ascending list in a
:class:`~repro.sketch.store.FlatRRRStore`; the policy's threshold prices
each representation from the set sizes alone: the modelled footprint
(:func:`~repro.core.sampling.modelled_store_bytes`), the per-set build
cost (:func:`~repro.core.sampling.charge_per_set`), selection's membership
probes and the simulated-machine replays.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError

__all__ = ["AdaptivePolicy"]


@dataclass(frozen=True)
class AdaptivePolicy:
    """Chooses a representation per set, per §IV-C.

    ``bitmap_fraction`` is the size threshold as a fraction of |V|: a set
    larger than ``bitmap_fraction * n`` becomes a bitmap.  The default 1/32
    is the memory-equality crossover for 4-byte ids; ``auto`` callers can
    sweep it (Figure 5-adjacent ablation).
    """

    bitmap_fraction: float = 1.0 / 32.0

    def __post_init__(self) -> None:
        if not (0.0 < self.bitmap_fraction <= 1.0):
            raise ParameterError(
                f"bitmap_fraction must be in (0, 1], got {self.bitmap_fraction}"
            )

    def threshold(self, num_vertices: int) -> int:
        """Set-size above which the bitmap representation is selected."""
        return int(self.bitmap_fraction * num_vertices)

    def choose(self, set_size: int, num_vertices: int) -> str:
        return "bitmap" if set_size > self.threshold(num_vertices) else "list"

