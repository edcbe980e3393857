"""The Ripples baseline facade: the design §II-B/§III describes.

Faithful to the reference implementation's algorithmic choices:

- static ``theta/p`` partitioning of RRR generation;
- every RRR set sorted after generation (no adaptive representation —
  the source of the Table III OOM on Twitter7-class workloads);
- separate Generate/Find kernels with a gather (redistribution) step
  between them;
- vertex-partitioned selection in which every thread traverses all RRR
  sets (binary-searching each) to maintain its private counter slice —
  the memory-traversal pattern behind Figures 1/2 and Table IV.

The static partitioning and the gather change no set and no seed; the
simulated machine prices them (:mod:`repro.simmachine.cost`), and a run
charges neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.imm import run_imm
from repro.core.params import IMMParams, IMMResult
from repro.core.sampling import SamplingConfig
from repro.core.selection import ripples_select
from repro.graph.csr import CSRGraph

__all__ = ["RipplesIMM"]


@dataclass
class RipplesIMM:
    """Ripples-style IMM bound to a weighted graph.

    ``memory_budget_bytes`` models the host's memory: because Ripples stores
    every set as a sorted vector, large workloads exceed it (Table III's
    ``OOM`` entry) where EfficientIMM's adaptive store fits.
    """

    graph: CSRGraph
    memory_budget_bytes: int | None = None

    name = "Ripples"

    def sampling_config(self) -> SamplingConfig:
        return SamplingConfig.ripples(
            memory_budget_bytes=self.memory_budget_bytes
        )

    def run(
        self,
        params: IMMParams | None = None,
        *,
        checkpointer=None,
        resume: bool = False,
        fault_plan=None,
    ) -> IMMResult:
        """Execute the full IMM workflow with Ripples' kernels.

        ``checkpointer`` / ``resume`` / ``fault_plan`` pass through to
        :func:`~repro.core.imm.run_imm` (docs/resilience.md).
        """
        params = params or IMMParams()

        def select(store, k, num_threads, initial_counter: np.ndarray | None):
            # Ripples has no kernel fusion: the counter is always rebuilt
            # inside the selection kernel, whatever the sampler produced.
            del initial_counter
            return ripples_select(store, k, num_threads)

        return run_imm(
            self.graph,
            params,
            self.sampling_config(),
            select,
            framework=self.name,
            checkpointer=checkpointer,
            resume=resume,
            fault_plan=fault_plan,
        )
