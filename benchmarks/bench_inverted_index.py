"""Microbench (our addition): inverted index vs linear scan in the store.

``FlatRRRStore.sets_containing()`` is the provenance query the incremental
maintainer issues once per perturbed endpoint per update batch.  The
linear scan re-reads the whole flat vertex array every call; the lazily
built inverted index pays one ``argsort`` after a mutation and then
answers each query in O(hits).  This bench measures both on a
maintainer-shaped workload — many queries against one frozen store — and
asserts they agree exactly.

``REPRO_BENCH_SMOKE=1`` shrinks the store so the CI benchmark-smoke job
finishes in well under a second.
"""

import os
import time

import numpy as np

from repro.sketch.store import FlatRRRStore

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_VERTICES = 1000 if SMOKE else 4000
NUM_SETS = 400 if SMOKE else 2000
NUM_QUERIES = 50 if SMOKE else 500


def build_store(seed=0):
    rng = np.random.default_rng(seed)
    s = FlatRRRStore(NUM_VERTICES)
    for _ in range(NUM_SETS):
        size = int(rng.integers(1, 60))
        s.append(rng.choice(NUM_VERTICES, size=size, replace=False))
    return s.trim()


def test_index_vs_linear_scan(bench_record):
    store = build_store()
    rng = np.random.default_rng(1)
    queries = rng.integers(0, NUM_VERTICES, size=NUM_QUERIES)

    t0 = time.perf_counter()
    scan = [store.sets_containing(int(v), use_index=False) for v in queries]
    scan_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    indexed = [store.sets_containing(int(v)) for v in queries]
    indexed_s = time.perf_counter() - t0  # includes the one-off build

    t0 = time.perf_counter()
    warm = [store.sets_containing(int(v)) for v in queries]
    warm_s = time.perf_counter() - t0

    for a, b, c in zip(scan, indexed, warm):
        assert np.array_equal(a, b) and np.array_equal(a, c)

    speedup_cold = scan_s / indexed_s if indexed_s else float("inf")
    speedup_warm = scan_s / warm_s if warm_s else float("inf")
    print(
        f"\n{NUM_QUERIES} queries over {NUM_SETS} sets: linear {scan_s:.4f}s, "
        f"index {indexed_s:.4f}s incl. build ({speedup_cold:.1f}x), "
        f"warm {warm_s:.4f}s ({speedup_warm:.1f}x)"
    )
    bench_record(
        "store_inverted_index",
        num_vertices=NUM_VERTICES,
        num_sets=NUM_SETS,
        num_queries=NUM_QUERIES,
        smoke=SMOKE,
        linear_scan_s=scan_s,
        indexed_incl_build_s=indexed_s,
        indexed_warm_s=warm_s,
        speedup_incl_build=speedup_cold,
        speedup_warm=speedup_warm,
    )
    # The index must win on a maintainer-shaped workload even paying for
    # its own build; a tie here means the cache is pointless.
    assert indexed_s < scan_s
    assert warm_s < scan_s
