"""Exact IC oracle: the kernel's RRR estimator against enumerated worlds.

Under IC's live-edge interpretation every edge ``(u, v)`` is independently
live with its probability ``p_uv``, and ``sigma(S)`` is the expected number
of vertices reachable from ``S`` over live edges.  On graphs of at most 12
edges all ``2**m`` worlds can be listed, so ``sigma(S)`` is exact.  This
file computes it in plain Python from the edge list alone — no CSR, no
coins, no kernel code — and checks that ``n * Pr[S hits R]`` over
kernel-drawn RRR sets lands within four binomial standard errors of it, at
the default IC pass and at a small one.  A kernel whose coins fire too
rarely must fail the same check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.diffusion.base import get_model
from repro.diffusion.spread import estimate_spread
from repro.graph.csr import CSRGraph
from repro.kernels import KernelSampler, batched

NUM_SETS = 40_000
Z_BOUND = 4.0
#: Forward cascades per seed set for the forward oracle.
CASCADES = 5_000

#: name -> (num_vertices, [(u, v, p_uv), ...], seed sets S to check).
GRAPHS = {
    # A directed 4-cycle with a chord and a tail that feeds back into it.
    "cycle": (
        5,
        [(0, 1, 0.6), (1, 2, 0.5), (2, 3, 0.7), (3, 0, 0.4), (1, 3, 0.3),
         (3, 4, 0.5), (4, 2, 0.2)],
        [(0,), (4,), (1, 4)],
    ),
    # Self-loops: a live one reaches nothing new.
    "self_loop": (
        4,
        [(0, 1, 0.5), (1, 1, 0.8), (1, 2, 0.6), (2, 2, 0.3), (0, 2, 0.25),
         (2, 3, 0.7), (3, 3, 1.0)],
        [(0,), (1,)],
    ),
    # Parallel edges: each copy flips its own coin.
    "parallel": (
        5,
        [(0, 1, 0.3), (0, 1, 0.4), (1, 2, 0.5), (1, 2, 0.5), (1, 2, 0.2),
         (2, 0, 0.6), (2, 3, 0.35), (0, 3, 0.1), (3, 4, 0.45), (3, 4, 0.45)],
        [(0,), (2,)],
    ),
    # Certain (p = 1) and dead (p = 0) edges, and a source of in-degree 0.
    "certain_and_dead": (
        6,
        [(0, 1, 1.0), (1, 2, 0.0), (2, 3, 1.0), (1, 3, 0.5), (3, 4, 0.0),
         (4, 5, 1.0), (3, 5, 0.4), (5, 2, 0.3), (2, 5, 0.6), (0, 4, 0.7)],
        [(0,), (1, 2)],
    ),
}


def exact_spread(n, edges, seeds):
    """sigma(S) summed over every live-edge world, in plain Python."""
    total = 0.0
    for world in itertools.product((False, True), repeat=len(edges)):
        prob = 1.0
        out = {v: [] for v in range(n)}
        for live, (u, v, p) in zip(world, edges):
            prob *= p if live else 1.0 - p
            if live:
                out[u].append(v)
        if prob == 0.0:
            continue
        reached = set(seeds)
        stack = list(seeds)
        while stack:
            for x in out[stack.pop()]:
                if x not in reached:
                    reached.add(x)
                    stack.append(x)
        total += prob * len(reached)
    return total


def build(n, edges, scale=1.0):
    """A CSR graph with every listed edge, parallel copies and self-loops
    included, its probabilities multiplied by ``scale``."""
    edges = sorted(edges, key=lambda e: e[0])
    src = np.array([u for u, _, _ in edges])
    return CSRGraph(
        n,
        np.concatenate(([0], np.cumsum(np.bincount(src, minlength=n)))),
        np.array([v for _, v, _ in edges]),
        scale * np.array([p for _, _, p in edges]),
    )


def z_scores(graphs=tuple(GRAPHS), seed=11, scale=1.0):
    """One z-score per (graph, S): the RRR estimate's distance from the
    exact spread in binomial standard errors."""
    out = {}
    for name in graphs:
        n, edges, seed_sets = GRAPHS[name]
        ks = KernelSampler(get_model("IC", build(n, edges, scale)))
        flat, sizes, _ = ks.sample_indexed(seed, 0, NUM_SETS)
        owner = np.repeat(np.arange(NUM_SETS), sizes)
        for s in seed_sets:
            hit = np.zeros(NUM_SETS, dtype=bool)
            hit[owner[np.isin(flat, s)]] = True
            p = exact_spread(n, edges, s) / n
            se = np.sqrt(p * (1.0 - p) / NUM_SETS)
            out[name, s] = (hit.mean() - p) / se
    return out


def test_exact_spread_by_hand():
    # 0 -> 1 with p = 0.4: sigma({0}) = 1 + 0.4; a self-loop adds nothing.
    assert exact_spread(2, [(0, 1, 0.4)], (0,)) == pytest.approx(1.4)
    assert exact_spread(2, [(0, 1, 0.4), (1, 1, 0.5)], (0,)) == pytest.approx(1.4)
    # Two parallel copies: 1 is reached unless both are dead.
    assert exact_spread(2, [(0, 1, 0.4), (0, 1, 0.5)], (0,)) == pytest.approx(
        1 + 1 - 0.6 * 0.5
    )
    # A chain 0 -> 1 -> 2 with p = 1 then p = 0.
    assert exact_spread(3, [(0, 1, 1.0), (1, 2, 0.0)], (0,)) == pytest.approx(2.0)
    for n, edges, _ in GRAPHS.values():
        assert len(edges) <= 12


def test_graphs_keep_parallel_edges_and_self_loops():
    for n, edges, _ in GRAPHS.values():
        g = build(n, edges)
        assert g.num_edges == len(edges)
        assert sorted(g.iter_edges()) == sorted(edges)


@pytest.mark.parametrize(
    "batch, graphs",
    # 40,000 sets take 5,715 passes of 7 sets against 625 default passes,
    # so the small pass covers one graph, the one with both parallel edges
    # and a cycle (0 -> 1 -> 2 -> 0).
    [(None, tuple(GRAPHS)), (7, ("parallel",))],
)
def test_estimator_matches_exact_spread(batch, graphs, monkeypatch):
    if batch is not None:
        monkeypatch.setattr(batched, "BATCH_SIZE", batch)
    z = z_scores(graphs)
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= Z_BOUND, (worst, z[worst])


def test_weakened_coins_are_caught():
    z = z_scores(scale=0.9)
    assert max(abs(v) for v in z.values()) > Z_BOUND


def forward_z_scores(scale=1.0, seed=11):
    """One z-score per (graph, S): the forward Monte-Carlo estimate of
    ``estimate_spread`` against the exact spread, in its standard errors."""
    out = {}
    for name, (n, edges, seed_sets) in GRAPHS.items():
        model = get_model("IC", build(n, edges, scale))
        for s in seed_sets:
            est = estimate_spread(model, s, num_samples=CASCADES, seed=seed)
            out[name, s] = (est.mean - exact_spread(n, edges, s)) / est.stderr
    return out


def test_forward_cascades_match_exact_spread():
    z = forward_z_scores()
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= Z_BOUND, (worst, z[worst])


def test_weakened_forward_edges_are_caught():
    z = forward_z_scores(scale=0.9)
    assert max(abs(v) for v in z.values()) > Z_BOUND
