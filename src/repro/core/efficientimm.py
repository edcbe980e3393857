"""The EfficientIMM facade: all of the paper's optimisations, individually
togglable so the ablation benchmarks (Figure 5, Table II/IV arms) can switch
them off one at a time.

Optimisations and their defaults:

- ``fused_kernels=True`` — Algorithm 3's in-place counter updates;
- ``adaptive_update=True`` — §IV-C counter rebuild-vs-decrement;
- ``adaptive_representation=True`` — §IV-C list/bitmap switching;
- ``dynamic_schedule=True`` — §IV-C producer-consumer job balancing;
- ``num_threads`` — emulated worker count (see DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.imm import run_imm
from repro.core.params import IMMParams, IMMResult
from repro.core.sampling import SamplingConfig
from repro.core.selection import efficient_select
from repro.graph.csr import CSRGraph
from repro.sketch.rrr import AdaptivePolicy

__all__ = ["EfficientIMM"]


@dataclass
class EfficientIMM:
    """EfficientIMM bound to a weighted graph.

    Example
    -------
    >>> from repro.graph import load_dataset
    >>> from repro.core import EfficientIMM, IMMParams
    >>> g = load_dataset("amazon", model="IC")
    >>> res = EfficientIMM(g).run(IMMParams(k=10, epsilon=0.5, theta_cap=2000))
    >>> len(res.seeds)
    10
    """

    graph: CSRGraph
    fused_kernels: bool = True
    adaptive_update: bool = True
    adaptive_representation: bool = True
    dynamic_schedule: bool = True
    bitmap_fraction: float = 1.0 / 32.0
    memory_budget_bytes: int | None = None

    name = "EfficientIMM"

    def sampling_config(self, params: IMMParams) -> SamplingConfig:
        policy = (
            AdaptivePolicy(self.bitmap_fraction)
            if self.adaptive_representation
            else None
        )
        return SamplingConfig(
            num_threads=params.num_threads,
            fused=self.fused_kernels,
            schedule="dynamic" if self.dynamic_schedule else "static",
            adaptive_policy=policy,
            memory_budget_bytes=self.memory_budget_bytes,
        )

    def run(
        self,
        params: IMMParams | None = None,
        *,
        checkpointer=None,
        resume: bool = False,
        fault_plan=None,
    ) -> IMMResult:
        """Execute the full IMM workflow with EfficientIMM's kernels.

        ``checkpointer`` / ``resume`` / ``fault_plan`` pass through to
        :func:`~repro.core.imm.run_imm` (docs/resilience.md).
        """
        params = params or IMMParams()
        policy = (
            AdaptivePolicy(self.bitmap_fraction)
            if self.adaptive_representation
            else AdaptivePolicy(1.0)  # threshold n: never bitmap
        )

        def select(store, k, num_threads, initial_counter: np.ndarray | None):
            return efficient_select(
                store,
                k,
                num_threads,
                initial_counter=initial_counter,
                adaptive_update=self.adaptive_update,
                adaptive_policy=policy,
            )

        return run_imm(
            self.graph,
            params,
            self.sampling_config(params),
            select,
            gather_before_select=False,
            framework=self.name,
            checkpointer=checkpointer,
            resume=resume,
            fault_plan=fault_plan,
        )
