"""Shard slices and routed answers against code the shard layer does not use.

- The slices :meth:`ShardPlan.partition_store` cuts, merged back with a
  plain loop, hold every set of the store exactly once, each slice keeps
  global order, and the per-slice vertex counts add up to the store's.
- A routed answer equals ``greedy_reference`` (the pure-Python greedy of
  test_selection.py) over the sets the answering shards hold, gathered set
  by set from the full sketch: every set when all shards are up, and only
  the surviving shards' sets when one is lost, at open or mid-query.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.parallel_sampling import parallel_generate
from repro.graph.io import graph_fingerprint
from repro.runtime.backends import SerialBackend
from repro.service import IMQuery, sketch_fingerprint
from repro.shard import ShardCluster, ShardPlan

from test_selection import greedy_reference
from test_shard import THETA, small_graph, spec_for, stores

SEED = 3


@given(
    store=stores(),
    num_shards=st.integers(1, 8),
    fingerprint=st.text(min_size=1, max_size=8),
)
@settings(max_examples=80, deadline=None)
def test_slices_partition_the_store(store, num_shards, fingerprint):
    parts = ShardPlan(num_shards=num_shards).partition_store(store, fingerprint)
    assert len(parts) == num_shards
    sets = [tuple(store.get(i).tolist()) for i in range(len(store))]
    want_counts = np.zeros(store.num_vertices, dtype=np.int64)
    for s in sets:
        for v in s:
            want_counts[v] += 1
    merged = []
    counts = np.zeros(store.num_vertices, dtype=np.int64)
    for part in parts:
        local = [tuple(part.get(j).tolist()) for j in range(len(part))]
        # Global order: each slice is a subsequence of the store's sets.
        rest = iter(sets)
        assert all(any(s == t for t in rest) for s in local)
        merged.extend(local)
        counts += part.vertex_counts()
    assert sorted(merged) == sorted(sets), "every set exactly once"
    assert np.array_equal(counts, want_counts)


@pytest.fixture(scope="module")
def sketch():
    """The synth graph, its sketch fingerprint and every set, in order."""
    graph = small_graph()
    fp = sketch_fingerprint(
        graph_fingerprint(graph), "IC", spec_for().epsilon, SEED, THETA
    )
    full = parallel_generate(
        graph, "IC", THETA, num_workers=1, seed=SEED, backend=SerialBackend()
    )
    return graph, fp, [full.get(i).tolist() for i in range(THETA)]


#: (num_shards, lost shard, when it is lost): none, at open, or mid-query.
CASES = [(2, None, None), (3, None, None)] + [
    (num_shards, lost, when)
    for num_shards in (2, 3)
    for lost in (0, num_shards - 1)
    for when in ("open", "mid-query")
]


@pytest.mark.parametrize(
    "num_shards,lost,when", CASES,
    ids=[
        f"{n}-up" if lost is None else f"{n}-lose{lost}-{when}"
        for n, lost, when in CASES
    ],
)
def test_routed_answer_is_greedy_over_the_answering_sets(
    sketch, num_shards, lost, when
):
    graph, fp, sets = sketch
    plan = ShardPlan(num_shards=num_shards)
    queries = [
        IMQuery(dataset="synth", k=k, seed=SEED, theta_cap=THETA)
        for k in (3, 12)
    ]
    with ShardCluster(plan) as cluster:
        cluster.install_graph("synth", graph)
        if when == "open":
            cluster.kill(lost)
        elif when == "mid-query":
            cluster.build(spec_for())  # warm every shard first
            cluster.worker(lost, 0).fail_after(2)  # open, one cover, dead
        responses = cluster.execute(queries)
        resyncs = cluster.router.stats.resyncs
    assert resyncs == (when == "mid-query")
    owners = plan.assign_sets(fp, THETA)
    answering = [s for i, s in enumerate(sets) if owners[i] != lost]
    for query, resp in zip(queries, responses):
        assert resp.status == "ok" and resp.degraded == (lost is not None)
        seeds = greedy_reference(answering, graph.num_vertices, query.k)
        covered = sum(1 for s in answering if set(s) & set(seeds))
        assert resp.seeds == seeds
        assert resp.num_rrrsets == len(answering)
        assert resp.coverage_fraction == covered / len(answering)
