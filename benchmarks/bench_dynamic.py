"""Dynamic-maintenance bench (our addition): repair vs full recompute.

The claim behind ``repro.dynamic``: after a small update batch, patching
the sketch (provenance invalidation + resample + insert extension) beats
rebuilding it, while the repaired sketch's seeds stay within tolerance of
a full recompute.  This bench sweeps update-batch sizes around the 1%
acceptance point on the skitter replica with a realistic insert-heavy mix
(94% insert / 3% delete / 3% reweight), and records:

- repair vs full-rebuild wall time (the speedup),
- the invalidated fraction (the < 25% resample bound at 1%),
- a quality gate — simulated spread of the repaired sketch's seeds within
  2% of a freshly built sketch's seeds on the updated graph,
- byte-identical determinism of the repair under a fixed seed.

``REPRO_BENCH_SMOKE=1`` shrinks the sketch and skips the sweep so the CI
benchmark-smoke job can execute the full code path in seconds.
"""

import os
import time

import numpy as np
import pytest

from repro.diffusion.base import get_model
from repro.diffusion.spread import estimate_spread
from repro.dynamic import DeltaGraph, IncrementalMaintainer
from repro.graph.datasets import load_dataset

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_SETS = 300 if SMOKE else 2000
K = 10
EVAL_SAMPLES = 50 if SMOKE else 200
BATCH_FRACTIONS = (0.01,) if SMOKE else (0.005, 0.01, 0.02)
SEED = 1


@pytest.fixture(scope="module")
def skitter():
    return load_dataset("skitter", model="IC", seed=0)


def make_batch(delta, fraction, rng):
    """Stage a 94/3/3 insert/delete/reweight batch of ``fraction * m``.

    Inserted and reweighted edges get weak probabilities (0.01-0.1): new
    ties in a stream are weak, and the skitter replica's existing IC
    weights are heavy (median 0.5), so strong synthetic inserts would make
    every extension BFS as expensive as a fresh sample and say nothing
    about the realistic regime."""
    n = delta.num_vertices
    src, dst, _ = delta.compact().edge_array()
    size = max(1, int(round(fraction * src.size)))
    n_ins = int(round(0.94 * size))
    n_del = int(round(0.03 * size))
    n_rew = size - n_ins - n_del
    staged = 0
    while staged < n_ins:
        u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
        if u == v or delta.has_edge(u, v):
            continue
        delta.insert(u, v, float(rng.uniform(0.01, 0.1)))
        staged += 1
    existing = rng.choice(src.size, size=n_del + n_rew, replace=False)
    for j in existing[:n_del]:
        delta.delete(int(src[j]), int(dst[j]))
    for j in existing[n_del:]:
        delta.reweight(int(src[j]), int(dst[j]), float(rng.uniform(0.01, 0.1)))
    return delta.commit()


def repair_once(graph, fraction, *, seed=SEED, batch_seed=7):
    """One build → batch → repair cycle; returns (maintainer, report).

    The committed epoch's graph and its transpose are built before the
    repair is timed: the full rebuild it is compared with reuses both, so
    neither side pays for them."""
    delta = DeltaGraph(graph)
    m = IncrementalMaintainer(delta, num_sets=NUM_SETS, seed=seed)
    commit = make_batch(delta, fraction, np.random.default_rng(batch_seed))
    delta.compact().transpose()
    report = m.apply(commit)
    return m, report


def test_repair_speedup_and_quality(skitter, bench_record):
    rows = []
    for fraction in BATCH_FRACTIONS:
        m, report = repair_once(skitter, fraction)

        # Full recompute on the updated graph: a fresh maintainer at the
        # committed epoch (same sketch shape, its own root draws).
        t0 = time.perf_counter()
        fresh = IncrementalMaintainer(m.delta, num_sets=NUM_SETS, seed=SEED + 1)
        full_s = time.perf_counter() - t0
        speedup = full_s / report.elapsed_s if report.elapsed_s else float("inf")

        rows.append(
            {
                "batch_fraction": fraction,
                "updates": report.inserted + report.deleted + report.reweighted,
                "mode": report.mode,
                "invalidated_fraction": round(report.invalidated_fraction, 4),
                "extended": report.extended,
                "repair_s": round(report.elapsed_s, 4),
                "full_rebuild_s": round(full_s, 4),
                "speedup": round(speedup, 2),
            }
        )

        if fraction == 0.01:
            # Acceptance gates at the 1% point.
            assert report.mode == "repair"
            assert report.invalidated_fraction < 0.25
            assert report.elapsed_s < full_s

            # Quality: repaired seeds vs freshly-built seeds on the updated
            # graph, simulated with a common evaluation stream.
            model = get_model("IC", m.delta.compact())
            repaired = estimate_spread(
                model, m.select(K).seeds, num_samples=EVAL_SAMPLES, seed=123
            )
            rebuilt = estimate_spread(
                model, fresh.select(K).seeds, num_samples=EVAL_SAMPLES, seed=123
            )
            rel = repaired.mean / rebuilt.mean
            rows[-1]["repaired_spread"] = round(repaired.mean, 1)
            rows[-1]["rebuilt_spread"] = round(rebuilt.mean, 1)
            rows[-1]["spread_ratio"] = round(rel, 4)
            assert rel >= 0.98, (
                f"repaired spread {repaired.mean:.1f} more than 2% below "
                f"full recompute {rebuilt.mean:.1f}"
            )

    for r in rows:
        print(
            f"\nbatch {r['batch_fraction']:.1%}: repair {r['repair_s']}s vs "
            f"rebuild {r['full_rebuild_s']}s ({r['speedup']}x), "
            f"invalidated {r['invalidated_fraction']:.1%}"
        )
    bench_record(
        "dynamic_repair_speedup",
        num_sets=NUM_SETS,
        dataset="skitter",
        mix="94/3/3 insert/delete/reweight",
        k=K,
        smoke=SMOKE,
        rows=rows,
    )


def test_repair_deterministic(skitter):
    """Same seed + same update stream -> byte-identical repaired store."""
    a, _ = repair_once(skitter, 0.01)
    b, _ = repair_once(skitter, 0.01)
    assert np.array_equal(a.store.vertices, b.store.vertices)
    assert np.array_equal(a.store.offsets, b.store.offsets)
    assert np.array_equal(a.counter, b.counter)
    assert np.array_equal(a.roots, b.roots)
