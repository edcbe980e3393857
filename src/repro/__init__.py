"""repro — a from-scratch Python reproduction of **EfficientIMM** (SC 2024):
*"Enhancing Scalability and Performance in Influence Maximization with
Optimized Parallel Processing"*.

Public API at a glance::

    from repro import (
        load_dataset, EfficientIMM, RipplesIMM, IMMParams,
        get_model, estimate_spread,
    )

    graph = load_dataset("youtube", model="IC")
    result = EfficientIMM(graph).run(IMMParams(k=50, epsilon=0.5))
    print(result.seeds, result.spread_estimate)

Subpackages:

- :mod:`repro.graph` — CSR graph engine, generators, SNAP-replica datasets;
- :mod:`repro.diffusion` — IC / LT forward simulation and reverse samplers;
- :mod:`repro.sketch` — RRR-set representations, stores, compression;
- :mod:`repro.core` — the IMM algorithm, EfficientIMM, and the Ripples
  baseline;
- :mod:`repro.runtime` — partitioners, the dynamic-schedule model
  (:func:`~repro.runtime.workqueue.simulate_schedule`), and the serial and
  multiprocess execution backends;
- :mod:`repro.resilience` — fault injection, retry policies, and sampling
  checkpoints threaded through the execution layers (docs/resilience.md);
- :mod:`repro.simmachine` — the simulated multi-NUMA machine (caches, NUMA
  placement, cost model) behind the scaling and hardware-counter
  experiments;
- :mod:`repro.bench` — the harness that regenerates every paper table and
  figure;
- :mod:`repro.telemetry` — unified tracing, metrics, and profiling wired
  through all of the above (docs/observability.md)::

      from repro import telemetry
      with telemetry.session() as tel:
          EfficientIMM(graph).run(IMMParams(k=10, theta_cap=2000))
      telemetry.write_report("out/", tel)
"""

from repro import telemetry
from repro.core import EfficientIMM, IMMParams, IMMResult, RipplesIMM, celf_greedy
from repro.diffusion import estimate_spread, get_model
from repro.errors import ReproError
from repro.graph import CSRGraph, dataset_names, load_dataset

__version__ = "1.0.0"

__all__ = [
    "CSRGraph",
    "load_dataset",
    "dataset_names",
    "get_model",
    "estimate_spread",
    "EfficientIMM",
    "RipplesIMM",
    "IMMParams",
    "IMMResult",
    "celf_greedy",
    "ReproError",
    "telemetry",
    "__version__",
]
