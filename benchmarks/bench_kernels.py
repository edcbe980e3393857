"""Batched kernel throughput: sets/s and edges/s versus the scalar path.

The batched kernel's win is in the *dispatch-bound* regime: on a medium
Erdos-Renyi graph (shallow, near-uniform RRR sets) the per-root reference
pays full numpy call overhead for every tiny frontier, while the batched
kernel amortises it across B sets per pass.  On heavy-tailed R-MAT hub
graphs both kernels converge to edge-bound throughput (big frontiers keep
numpy busy either way), so the ER graph here is the honest showcase *and*
the guard: the batched kernel must clear >= 3x scalar sets/s at batch 64
under IC (docs/performance.md records the measured numbers).  Each sweep
also runs the model's default pass (64 IC sets, 16,384 LT walks) and
records its speedup.

Both kernels draw byte-identical sets (asserted here too — a throughput
win that changed the bytes would be a bug, not a speedup).

The edge-bound cell is imm-ic's: 1,600 IC sets on the half-scale amazon
replica at the default pass, each reaching about half the graph, so the
per-edge work of a level (coins, gathers, dedup) is what it measures.  Its
bytes are checked against the scalar oracle once, and it records sets/s
and edges/s there and at two larger passes, which do not pay.

``REPRO_BENCH_SMOKE=1`` shrinks the graph and set counts so the CI
benchmark-smoke job finishes quickly.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.bench.report import Table
from repro.diffusion.base import get_model
from repro.graph.builder import from_edge_array
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi
from repro.graph.weights import assign_ic_weights, assign_lt_weights
from repro.kernels import (
    BatchedSampler,
    KernelSampler,
    indexed_draws,
    sample_scalar,
)

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
N_VERTICES = 8_192 if SMOKE else 32_768
N_EDGES = 32_768 if SMOKE else 131_072
NUM_SETS = 1_024 if SMOKE else 4_096
IC_SCALE = 0.15
SEED = 5
BATCHES = (8, 32, 64, 256)
MIN_IC_SPEEDUP = 3.0
MIN_LT_SPEEDUP = 1.5
REPLICA_SETS = 200 if SMOKE else 1_600
REPLICA_PASSES = (256, 1_024)
REPLICA_REPEATS = 5


def _graph(model: str):
    src, dst = erdos_renyi(N_VERTICES, N_EDGES, seed=SEED)
    g = from_edge_array(src, dst, num_vertices=N_VERTICES)
    if model == "IC":
        return assign_ic_weights(g, scheme="uniform", seed=1, scale=IC_SCALE)
    return assign_lt_weights(g, seed=1)


@pytest.fixture(scope="module", params=("IC", "LT"))
def workload(request):
    model_name = request.param
    return model_name, get_model(model_name, _graph(model_name))


def _sampler(model, kernel: str, batch: int):
    """``sample_indexed(seed, start, count)`` for one kernel configuration."""
    if kernel == "batched":
        draw = BatchedSampler(model, batch).sample
    else:
        def draw(roots, keys):
            return sample_scalar(model, roots, keys)
    n = model.graph.num_vertices
    return lambda seed, start, count: draw(
        *indexed_draws(seed, np.arange(start, start + count), n)
    )


def _throughput(model, kernel: str, batch: int, num_sets: int = NUM_SETS):
    """Best-of-3 sets/s and edges/s for one kernel configuration."""
    sample_indexed = _sampler(model, kernel, batch)
    sample_indexed(SEED, 0, min(num_sets, 256))  # warm scratch
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        flat, sizes, edges = sample_indexed(SEED, 0, num_sets)
        dt = time.perf_counter() - t0
        if best is None or dt < best[0]:
            best = (dt, flat, sizes, edges)
    dt, flat, sizes, edges = best
    return {
        "sets_per_s": num_sets / dt,
        "edges_per_s": float(edges.sum()) / dt,
        "seconds": dt,
        "fingerprint": (flat.tobytes(), sizes.tobytes()),
    }


def test_wallclock_batched_kernel(benchmark, workload):
    _, model = workload
    sampler = KernelSampler(model)
    sampler.sample_indexed(SEED, 0, 256)
    out = benchmark.pedantic(
        lambda: sampler.sample_indexed(SEED, 0, NUM_SETS),
        rounds=3, iterations=1,
    )
    assert out[1].size == NUM_SETS


def test_wallclock_scalar_kernel(benchmark, workload):
    _, model = workload
    sample_indexed = _sampler(model, "scalar", 1)
    out = benchmark.pedantic(
        lambda: sample_indexed(SEED, 0, NUM_SETS),
        rounds=3, iterations=1,
    )
    assert out[1].size == NUM_SETS


def test_kernel_speedup(benchmark, workload, bench_record):
    model_name, model = workload
    benchmark.pedantic(
        lambda: KernelSampler(model).sample_indexed(SEED, 0, 256),
        rounds=1, iterations=1,
    )
    scalar = _throughput(model, "scalar", 1)
    default = BatchedSampler(model).batch_size
    rows = []
    speedup_at = {}
    for batch in sorted({*BATCHES, default}):
        batched = _throughput(model, "batched", batch)
        assert batched["fingerprint"] == scalar["fingerprint"]
        speedup = batched["sets_per_s"] / scalar["sets_per_s"]
        speedup_at[batch] = speedup
        rows.append(
            (
                batch,
                round(batched["sets_per_s"]),
                round(batched["edges_per_s"]),
                f"{speedup:.2f}x",
            )
        )
    table = Table(
        title=f"batched kernel vs scalar [{model_name}] "
        f"(ER n={N_VERTICES} m={N_EDGES}, {NUM_SETS} sets, "
        f"scalar {round(scalar['sets_per_s'])} sets/s)",
        columns=("batch", "sets/s", "edges/s", "speedup"),
        rows=rows,
    )
    print("\n" + table.render())
    bench_record(
        f"kernels_{model_name.lower()}",
        table=table,
        model=model_name,
        num_vertices=N_VERTICES,
        num_edges=N_EDGES,
        num_sets=NUM_SETS,
        scalar_sets_per_s=scalar["sets_per_s"],
        speedup_batch_64=speedup_at[64],
        default_pass=default,
        speedup_default_pass=speedup_at[default],
        smoke=SMOKE,
    )
    floor = MIN_IC_SPEEDUP if model_name == "IC" else MIN_LT_SPEEDUP
    assert speedup_at[64] >= floor, (
        f"batched kernel speedup {speedup_at[64]:.2f}x at batch 64 "
        f"below the {floor}x floor"
    )


def test_edge_bound_replica_cell(benchmark, bench_record):
    """imm-ic's graph and set count, at the default IC pass and at the
    larger passes that do not pay there."""
    g = load_dataset("amazon", model="IC", seed=0, scale=0.5)
    model = get_model("IC", g)
    roots, keys = indexed_draws(
        SEED, np.arange(REPLICA_SETS), g.num_vertices
    )
    default = BatchedSampler(model).batch_size
    got = BatchedSampler(model).sample(roots, keys)
    ref = sample_scalar(model, roots, keys)
    for a, b in zip(got, ref):
        np.testing.assert_array_equal(a, b)
    edges = int(got[2].sum())
    samplers = {p: BatchedSampler(model, p) for p in (default, *REPLICA_PASSES)}
    times = {p: [] for p in samplers}
    for _ in range(REPLICA_REPEATS):  # interleaved, so drift hits every pass
        for p, sampler in samplers.items():
            t0 = time.perf_counter()
            sampler.sample(roots, keys)
            times[p].append(time.perf_counter() - t0)
    benchmark.pedantic(
        lambda: samplers[default].sample(roots, keys), rounds=1, iterations=1
    )
    median = {p: float(np.median(t)) for p, t in times.items()}
    table = Table(
        title=f"edge-bound cell [IC] (amazon x0.5: {g.num_vertices} vertices, "
        f"{g.num_edges} edges; {REPLICA_SETS} sets, {edges} edges examined; "
        f"median of {REPLICA_REPEATS})",
        columns=("pass", "ms", "sets/s", "edges/s"),
        rows=[
            (
                f"{p} (default)" if p == default else p,
                f"{median[p] * 1e3:.0f}",
                round(REPLICA_SETS / median[p]),
                round(edges / median[p]),
            )
            for p in samplers
        ],
    )
    print("\n" + table.render())
    bench_record(
        "kernels_ic_replica",
        table=table,
        model="IC",
        dataset="amazon",
        scale=0.5,
        num_vertices=g.num_vertices,
        num_edges=g.num_edges,
        num_sets=REPLICA_SETS,
        edges_examined=edges,
        repeats=REPLICA_REPEATS,
        default_pass=default,
        seconds_median={str(p): t for p, t in median.items()},
        sets_per_s=REPLICA_SETS / median[default],
        edges_per_s=edges / median[default],
        smoke=SMOKE,
    )
