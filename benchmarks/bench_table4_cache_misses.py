"""Table IV — simulated L1+L2 cache misses in Find_Most_Influential_Set.

Both selection kernels are replayed as per-thread address streams through
set-associative LRU L1/L2 simulators with the EPYC-7763 geometry; the table
reports total misses and the reduction factor.  Shape assertions: large
(>=10x) reductions on every dataset, with web-Google the smallest reduction
as in the paper.
"""

import pytest

from repro.bench.experiments import PAPER_TABLE4, experiment_table4
from repro.simmachine.instrumented import trace_efficient_selection
from repro.simmachine.topology import perlmutter

from conftest import print_table


@pytest.fixture(scope="module")
def table4():
    return experiment_table4(theta=200, k=10, num_threads=4, seed=3)


def test_table4_cache_misses(benchmark, table4, amazon_store):
    topo = perlmutter()
    benchmark.pedantic(
        lambda: trace_efficient_selection(amazon_store.store, 3, 2, topo),
        rounds=3, iterations=1,
    )

    print_table(table4)
    reductions = {}
    for name, (rip, eimm, reduction) in table4.data.items():
        assert rip > eimm, name
        assert reduction > 10.0, name
        reductions[name] = reduction

    # The paper's ordering extremes: web-Google shows the smallest
    # reduction (22.4x) of the five datasets.
    assert reductions["google"] == min(reductions.values())
    # All reductions within two orders of the paper's (22x - 357x).
    for name, r in reductions.items():
        assert 10.0 < r < 3600.0, (name, r, PAPER_TABLE4[name])


def test_table4_direction_holds_under_lt(benchmark):
    """The paper measures Table IV under IC; the traversal asymmetry is
    model-independent, so the reduction must also hold for LT's tiny-set
    stores (smaller in magnitude: fewer entries to re-traverse)."""
    from repro.core.sampling import RRRSampler, SamplingConfig
    from repro.diffusion.base import get_model
    from repro.graph.datasets import load_dataset
    from repro.simmachine.instrumented import (
        trace_efficient_selection,
        trace_ripples_selection,
    )

    topo = perlmutter()
    g = load_dataset("amazon", model="LT", seed=0)
    sampler = RRRSampler(
        get_model("LT", g), SamplingConfig.efficientimm(), seed=3
    )
    sampler.extend(3000)
    store = sampler.store
    rip = benchmark.pedantic(
        lambda: trace_ripples_selection(store, 10, 4, topo),
        rounds=1, iterations=1,
    )
    eimm = trace_efficient_selection(store, 10, 4, topo)
    reduction = rip.total_misses / max(eimm.total_misses, 1)
    print(f"\nLT cache-miss reduction (amazon, theta=3000): {reduction:.1f}x")
    assert reduction > 2.0
