"""Greedy selection per call (our addition): ``efficient_select`` at k=50
with the fused counter, on the stores whose selection the repository
benchmark (``perf/``) times and on one large IC cell.

| store | sketch | sets |
|---|---|---|
| ``imm-lt`` | amazon replica under LT (a cold imm-lt run's final size) | 56,000 |
| ``imm-ic`` | half-scale amazon replica under IC (imm-ic's final size) | 1,400 |
| ``serve`` | amazon replica under IC (``repro gateway serve``'s default) | 2,000 |
| ``cell`` | amazon replica under IC | 20,000 |

Each row is the best of three calls, next to the store's entries per
set-step, the input of the scan-or-bisect membership rule
(docs/performance.md).  The seeds must equal ``ripples_select``'s, an
independent execution of the same greedy max-cover.  The bench calls
nothing but the two selection kernels, so the same file run against two
checkouts' ``src`` compares them::

    PYTHONPATH=src python -m pytest -q -s benchmarks/bench_selection.py

``REPRO_BENCH_SMOKE=1`` drops the 20,000-set cell and shrinks the other
stores so the CI benchmark-smoke job finishes in seconds.
"""

import os
import time

import pytest

from repro.core.sampling import RRRSampler, SamplingConfig
from repro.core.selection import efficient_select, ripples_select
from repro.diffusion.base import get_model
from repro.graph.datasets import load_dataset

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
K = 50

#: name -> (model, replica scale, sets)
STORES = {
    "imm-lt": ("LT", 1.0, 5_600 if SMOKE else 56_000),
    "imm-ic": ("IC", 0.5, 300 if SMOKE else 1_400),
    "serve": ("IC", 1.0, 300 if SMOKE else 2_000),
}
if not SMOKE:
    STORES["cell"] = ("IC", 1.0, 20_000)


def best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def rows():
    out = []
    for name, (model, scale, num_sets) in STORES.items():
        graph = load_dataset("amazon", model=model, seed=0, scale=scale)
        sampler = RRRSampler(
            get_model(model, graph), SamplingConfig.efficientimm(), seed=0
        )
        sampler.extend(num_sets)
        store, counter = sampler.store, sampler.counter
        depth = int(store.sizes().max()).bit_length()

        def select():
            return efficient_select(store, K, 1, initial_counter=counter)

        seconds = best_of(select)
        seeds = select().seeds.tolist()
        assert seeds == ripples_select(store, K).seeds.tolist(), name
        out.append({
            "store": name, "model": model, "scale": scale,
            "sets": len(store), "entries": store.total_entries,
            "entries_per_set_step": store.total_entries / (len(store) * depth),
            "select_ms": seconds * 1e3,
        })
        del sampler, store, counter
    return out


def test_selection_per_call(rows, bench_record):
    print(f"\nefficient_select, k={K}, fused counter (best of 3):")
    for r in rows:
        print(
            f"  {r['store']:7s} {r['sets']:>7,} sets {r['entries']:>11,} "
            f"entries  {r['entries_per_set_step']:7.1f} entries/set-step  "
            f"{r['select_ms']:8.1f} ms"
        )
    bench_record("selection_k50", k=K, smoke=SMOKE, rows=rows)
    assert [r["store"] for r in rows] == list(STORES)
