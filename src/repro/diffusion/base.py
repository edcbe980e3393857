"""Common interface for diffusion models.

A diffusion model binds IC or LT to one weighted graph and supplies:

- :meth:`DiffusionModel.forward_sample` — simulate one cascade from a seed
  set, returning the activated vertices (defines sigma(S) by expectation);
- the reverse views the RRR sampling kernels (:mod:`repro.kernels`) read:
  the transpose graph and an epoch-stamped visited array (LT adds its
  cumulative in-weight rows).  RIS/IMM rests on the equivalence that the
  probability S intersects a random reverse-reachable set equals
  sigma(S) / n.

The epoch-stamped visited array is reused across samples, so drawing many
of them does not re-zero O(n) memory each time — the Python analogue of
the per-thread scratch both C++ frameworks maintain.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.errors import ParameterError
from repro.graph.csr import CSRGraph

__all__ = ["DiffusionModel", "get_model"]


class DiffusionModel(ABC):
    """Base class binding a model to one weighted graph."""

    #: Short name ("IC" or "LT"); used in reports and the CLI.
    name: str = "?"

    def __init__(self, graph: CSRGraph):
        self.graph = graph
        self.reverse_graph = graph.transpose()
        n = graph.num_vertices
        # Epoch-stamped visited array: "visited in the current sample" is
        # (stamp == epoch); bumping the epoch invalidates everything in O(1).
        self._stamp = np.zeros(n, dtype=np.int64)
        self._epoch = 0

    def _next_epoch(self) -> int:
        self._epoch += 1
        return self._epoch

    @abstractmethod
    def forward_sample(
        self, seeds: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Simulate one cascade from ``seeds``; returns activated vertex ids
        (seeds included, no duplicates)."""


def get_model(name: str, graph: CSRGraph) -> DiffusionModel:
    """Factory: ``"IC"`` or ``"LT"`` (case-insensitive) bound to ``graph``."""
    from repro.diffusion.ic import ICModel
    from repro.diffusion.lt import LTModel

    key = name.upper()
    if key == "IC":
        return ICModel(graph)
    if key == "LT":
        return LTModel(graph)
    raise ParameterError(f"unknown diffusion model {name!r} (use 'IC' or 'LT')")
