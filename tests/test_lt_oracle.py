"""Exact LT oracle: the kernel's RRR estimator against enumerated worlds.

Under LT's live-edge interpretation every vertex independently keeps at
most one in-edge: edge ``(u, v)`` with probability ``w_uv``, none with the
slack ``1 - sum_u w_uv``.  On graphs of at most six vertices every such
world can be listed, so the expected spread ``sigma(S)`` is exact.  This
file computes it in plain Python from the edge list alone — no CSR, no
cumulative rows, no kernel code — and checks that ``n * Pr[S hits R]``
over kernel-drawn RRR sets lands within four binomial standard errors of
it, at the default LT pass and at a small one.  A kernel whose coins are
shifted must fail the same check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.diffusion.base import get_model
from repro.diffusion.spread import estimate_spread
from repro.graph.builder import GraphBuilder
from repro.kernels import KernelSampler, batched

NUM_SETS = 40_000
Z_BOUND = 4.0
#: Forward cascades per seed set for the forward oracle.
CASCADES = 5_000

#: name -> (num_vertices, [(u, v, w_uv), ...], seed sets S to check).
GRAPHS = {
    # In-weights below 1 everywhere: every step can stop on slack.
    "slack": (
        5,
        [(0, 1, 0.4), (1, 2, 0.5), (0, 2, 0.3), (2, 3, 0.6), (3, 4, 0.7),
         (1, 4, 0.2)],
        [(0,), (1, 3)],
    ),
    # Self-loops: picking one keeps the vertex and adds nothing.
    "self_loop": (
        4,
        [(0, 1, 0.5), (1, 1, 0.3), (1, 2, 0.6), (2, 2, 0.4), (2, 3, 0.5),
         (0, 3, 0.25)],
        [(0,), (2,)],
    ),
    # A directed cycle 0 -> 1 -> 2 -> 0 that walks can close.
    "cycle": (
        5,
        [(0, 1, 0.6), (1, 2, 0.7), (2, 0, 0.5), (2, 3, 0.2), (3, 0, 0.3),
         (3, 4, 0.9), (4, 3, 0.1)],
        [(0,), (3,), (1, 4)],
    ),
    # Six vertices, a 2-cycle, a source (in-degree 0) and one saturated row.
    "mixed": (
        6,
        [(0, 1, 0.5), (2, 1, 0.5), (1, 2, 0.45), (3, 2, 0.3), (1, 3, 0.6),
         (4, 3, 0.2), (3, 4, 0.8), (4, 5, 0.35), (2, 5, 0.25), (0, 5, 0.1)],
        [(0,), (4,), (0, 3)],
    ),
}


def exact_spread(n, edges, seeds):
    """sigma(S) summed over every live-edge world, in plain Python."""
    choices = []
    for v in range(n):
        ins = [(u, w) for u, x, w in edges if x == v]
        choices.append(ins + [(None, 1.0 - sum(w for _, w in ins))])
    total = 0.0
    for world in itertools.product(*choices):
        prob = 1.0
        out = {v: [] for v in range(n)}
        for v, (u, w) in enumerate(world):
            prob *= w
            if u is not None:
                out[u].append(v)
        reached = set(seeds)
        stack = list(seeds)
        while stack:
            for x in out[stack.pop()]:
                if x not in reached:
                    reached.add(x)
                    stack.append(x)
        total += prob * len(reached)
    return total


def build(n, edges):
    b = GraphBuilder(relabel=False, drop_self_loops=False)
    for u, v, w in edges:
        b.add_edge(u, v, w)
    return b.build(num_vertices=n)


def z_scores(graphs=tuple(GRAPHS), seed=11):
    """One z-score per (graph, S): the RRR estimate's distance from the
    exact spread in binomial standard errors."""
    out = {}
    for name in graphs:
        n, edges, seed_sets = GRAPHS[name]
        ks = KernelSampler(get_model("LT", build(n, edges)))
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
    # 0 -> 1 with weight 0.4: sigma({0}) = 1 + 0.4; a self-loop adds nothing.
    assert exact_spread(2, [(0, 1, 0.4)], (0,)) == pytest.approx(1.4)
    assert exact_spread(2, [(0, 1, 0.4), (1, 1, 0.5)], (0,)) == pytest.approx(1.4)
    # Every vertex's in-weights are at most 1, so every world list is a
    # probability distribution.
    for n, edges, _ in GRAPHS.values():
        for v in range(n):
            assert sum(w for _, x, w in edges if x == v) <= 1.0 + 1e-12


@pytest.mark.parametrize(
    "batch, graphs",
    # 40,000 sets take 5,715 passes of 7 walks against 3 default passes, so
    # the small pass covers one graph, the one with both slack and a cycle.
    [(None, tuple(GRAPHS)), (7, ("cycle",))],
)
def test_estimator_matches_exact_spread(batch, graphs, monkeypatch):
    if batch is not None:
        monkeypatch.setattr(batched, "LT_BATCH_SIZE", batch)
    z = z_scores(graphs)
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= Z_BOUND, (worst, z[worst])


def test_shifted_coins_are_caught(monkeypatch):
    uniforms = batched.counter_uniforms
    monkeypatch.setattr(
        batched, "counter_uniforms", lambda keys, ctr: 0.9 * uniforms(keys, ctr)
    )
    z = z_scores()
    assert max(abs(v) for v in z.values()) > Z_BOUND


def forward_z_scores(scale=1.0, seed=11):
    """One z-score per (graph, S): the forward Monte-Carlo estimate of
    ``estimate_spread`` against the exact spread, in its standard errors,
    with every weight of the simulated graph multiplied by ``scale``."""
    out = {}
    for name, (n, edges, seed_sets) in GRAPHS.items():
        model = get_model("LT", build(n, [(u, v, scale * w) for u, v, w in edges]))
        for s in seed_sets:
            est = estimate_spread(model, s, num_samples=CASCADES, seed=seed)
            out[name, s] = (est.mean - exact_spread(n, edges, s)) / est.stderr
    return out


def test_forward_cascades_match_exact_spread():
    z = forward_z_scores()
    worst = max(z, key=lambda key: abs(z[key]))
    assert abs(z[worst]) <= Z_BOUND, (worst, z[worst])


def test_weakened_forward_weights_are_caught():
    z = forward_z_scores(scale=0.9)
    assert max(abs(v) for v in z.values()) > Z_BOUND
