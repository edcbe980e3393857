"""Ablation matrix: each EfficientIMM design choice priced one at a time.

The paper presents four optimisations as a package (§IV): kernel fusion,
adaptive counter update, adaptive RRR representation, and dynamic job
balancing.  This bench isolates each one's contribution — it disables the
optimisations one at a time and all at once, re-measures the real kernels,
and prices the workload at 128 modelled threads.

Shape assertions: every single ablation costs something on at least one
axis (time or memory), seeds never change, and the all-off configuration
is the slowest.
"""

import numpy as np
import pytest

from repro.core import EfficientIMM, IMMParams
from repro.core.sampling import SamplingConfig
from repro.core.selection import efficient_select
from repro.graph.datasets import load_dataset
from repro.simmachine.cost import CostModel, KernelCost, RunProfile
from repro.simmachine.topology import perlmutter
from repro.sketch.rrr import AdaptivePolicy

from conftest import print_table


K = 50
THREADS = 128


@pytest.fixture(scope="module")
def workload():
    """One shared sampling pass on the amazon replica."""
    from repro.core.sampling import RRRSampler
    from repro.diffusion.base import get_model

    graph = load_dataset("amazon", model="IC", seed=0)
    sampler = RRRSampler(
        get_model("IC", graph), SamplingConfig.efficientimm(),
        seed=0,
    )
    sampler.extend(1000)
    return graph, sampler


def _price(graph, sampler, *, fused, adaptive_update, adaptive_repr, dynamic):
    """Model the full-run time at 128 threads for one toggle combination."""
    cm = CostModel(perlmutter())
    store = sampler.store
    policy = AdaptivePolicy() if adaptive_repr else None
    kc, sel = KernelCost.measure(
        lambda p: efficient_select(
            store, K, p,
            initial_counter=sampler.counter if fused else None,
            adaptive_update=adaptive_update,
            adaptive_policy=policy or AdaptivePolicy(1.0),
        )
    )
    prof = RunProfile(
        framework="EfficientIMM", dataset="amazon", model="IC",
        n=graph.num_vertices, num_sets=len(store),
        total_entries=store.total_entries,
        per_set_costs=sampler.costs(
            SamplingConfig(fused=fused, adaptive_policy=policy)
        ),
        sampling_schedule="dynamic" if dynamic else "static",
        numa_aware=True, selection=kc,
    )
    stages = cm.total_time_s(prof, THREADS)
    from repro.core.sampling import modelled_store_bytes

    return stages["Total"], modelled_store_bytes(
        store.sizes(), graph.num_vertices, policy
    ), sel.seeds


def test_ablation_matrix(benchmark, workload):
    graph, sampler = workload
    benchmark.pedantic(
        lambda: efficient_select(
            sampler.store, 10, 2, initial_counter=sampler.counter
        ),
        rounds=3, iterations=1,
    )

    configs = {
        "full EfficientIMM": dict(
            fused=True, adaptive_update=True, adaptive_repr=True, dynamic=True
        ),
        "- kernel fusion": dict(
            fused=False, adaptive_update=True, adaptive_repr=True, dynamic=True
        ),
        "- adaptive update": dict(
            fused=True, adaptive_update=False, adaptive_repr=True, dynamic=True
        ),
        "- adaptive representation": dict(
            fused=True, adaptive_update=True, adaptive_repr=False, dynamic=True
        ),
        "- dynamic balancing": dict(
            fused=True, adaptive_update=True, adaptive_repr=True, dynamic=False
        ),
        "all optimisations off": dict(
            fused=False, adaptive_update=False, adaptive_repr=False,
            dynamic=False,
        ),
    }

    from repro.bench.report import Table

    table = Table(
        f"Ablation — EfficientIMM design choices at {THREADS} modelled threads",
        ["configuration", "time (ms)", "vs full", "store bytes"],
    )
    results = {}
    base_seeds = None
    for name, cfg in configs.items():
        t, nbytes, seeds = _price(graph, sampler, **cfg)
        results[name] = (t, nbytes)
        if base_seeds is None:
            base_seeds = seeds
        else:
            assert np.array_equal(seeds, base_seeds), name  # semantics fixed
        table.add_row(
            name, f"{t * 1e3:.3f}",
            f"{t / results['full EfficientIMM'][0]:.2f}x",
            f"{nbytes:,}",
        )
    print_table(table)

    full_t, full_b = results["full EfficientIMM"]
    # Every ablation hurts on some axis.
    assert results["- kernel fusion"][0] > full_t
    assert results["- adaptive update"][0] > 5.0 * full_t  # the big one
    assert results["- adaptive representation"][1] > 2.0 * full_b  # memory
    assert results["- dynamic balancing"][0] >= full_t * 0.99
    # And stacking all regressions is the worst configuration.
    assert results["all optimisations off"][0] == max(
        t for t, _ in results.values()
    )
