"""Diffusion models: Independent Cascade and Linear Threshold.

Each model binds to one graph and provides:

- **forward** Monte-Carlo simulation (:mod:`repro.diffusion.spread`) to
  estimate the influence spread sigma(S) of a seed set — used to validate
  end-to-end solution quality against the greedy reference;
- the **reverse** views that :mod:`repro.kernels` reads to draw random
  reverse-reachable (RRR) sets, the primitive of IMM's sampling phase: the
  transpose graph, the visited stamps and LT's cumulative in-weight rows.
  The models draw no RRR sets themselves.
"""

from repro.diffusion.base import DiffusionModel, get_model
from repro.diffusion.ic import ICModel
from repro.diffusion.lt import LTModel
from repro.diffusion.spread import estimate_spread

__all__ = [
    "DiffusionModel",
    "ICModel",
    "LTModel",
    "get_model",
    "estimate_spread",
]
