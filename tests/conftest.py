"""Shared fixtures: canonical small graphs and cached replica datasets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.builder import from_edge_array
from repro.graph.csr import CSRGraph
from repro.kernels import KernelSampler, coin_key, derive_keys
from repro.sketch.store import FlatRRRStore


def make_graph(edges, n=None, probs=None) -> CSRGraph:
    """Build a CSRGraph from a list of (u, v) or (u, v, p) tuples."""
    if edges and len(edges[0]) == 3:
        src, dst, p = zip(*edges)
        p = np.asarray(p, dtype=np.float64)
    else:
        src, dst = zip(*edges) if edges else ((), ())
        p = probs
    return from_edge_array(
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        p,
        num_vertices=n,
    )


def csr_sets(sets) -> tuple[np.ndarray, np.ndarray]:
    """``sets`` in the store's CSR form ``(vertices, sizes)``.  Each set is
    sorted here, since a store takes only ascending sets; a repeated
    vertex is left for the store to reject."""
    sets = [np.sort(np.asarray(s, dtype=np.int32).ravel()) for s in sets]
    flat = np.concatenate(sets) if sets else np.empty(0, dtype=np.int32)
    return flat, np.array([s.size for s in sets], dtype=np.int64)


def make_store(num_vertices, sets) -> FlatRRRStore:
    """A :class:`FlatRRRStore` holding ``sets`` in order, written with one
    ``append_csr`` of :func:`csr_sets`."""
    store = FlatRRRStore(num_vertices)
    store.append_csr(*csr_sets(sets))
    return store


def kernel_sets(model, roots, seed=0) -> list[np.ndarray]:
    """The kernel's sets from ``roots``, one counter stream each."""
    roots = np.asarray(roots)
    keys = derive_keys(coin_key(seed), np.arange(roots.size))
    flat, sizes, _ = KernelSampler(model).sample_for_roots(roots, keys)
    return np.split(flat, np.cumsum(sizes)[:-1])


def membership_oracle(store, vertices) -> tuple[np.ndarray, np.ndarray]:
    """``store.membership_pairs(vertices)`` by a pure-Python loop over
    ``store.get(i)``: for each queried vertex in turn, every set holding
    it, as aligned ``(set, query position)`` arrays."""
    members = [store.get(i).tolist() for i in range(len(store))]
    pairs = [
        (i, at)
        for at, v in enumerate(vertices)
        for i, m in enumerate(members)
        if int(v) in m
    ]
    sets, at = zip(*pairs) if pairs else ((), ())
    return np.array(sets, dtype=np.int64), np.array(at, dtype=np.int64)


@pytest.fixture
def line_graph() -> CSRGraph:
    """0 -> 1 -> 2 -> 3 -> 4, all probabilities 1."""
    return make_graph([(i, i + 1, 1.0) for i in range(4)], n=5)


@pytest.fixture
def cycle_graph() -> CSRGraph:
    """Directed 6-cycle, all probabilities 1."""
    return make_graph([(i, (i + 1) % 6, 1.0) for i in range(6)], n=6)


@pytest.fixture
def star_graph() -> CSRGraph:
    """Hub 0 -> leaves 1..8, all probabilities 1."""
    return make_graph([(0, i, 1.0) for i in range(1, 9)], n=9)


@pytest.fixture
def two_triangles() -> CSRGraph:
    """Two disjoint directed triangles {0,1,2} and {3,4,5}."""
    edges = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]
    return make_graph([(u, v, 1.0) for u, v in edges], n=6)


@pytest.fixture
def diamond_graph() -> CSRGraph:
    """0 -> {1, 2} -> 3 with mixed probabilities."""
    return make_graph(
        [(0, 1, 1.0), (0, 2, 0.5), (1, 3, 1.0), (2, 3, 0.25)], n=4
    )


@pytest.fixture
def empty_graph() -> CSRGraph:
    return make_graph([], n=0)


@pytest.fixture
def isolated_graph() -> CSRGraph:
    """Five vertices, zero edges."""
    return make_graph([], n=5)


@pytest.fixture(scope="session")
def amazon_ic() -> CSRGraph:
    """The amazon replica, IC-weighted (session-cached: generation costs)."""
    from repro.graph.datasets import load_dataset

    return load_dataset("amazon", model="IC", seed=0)


@pytest.fixture(scope="session")
def skitter_ic() -> CSRGraph:
    from repro.graph.datasets import load_dataset

    return load_dataset("skitter", model="IC", seed=0)


@pytest.fixture(scope="session")
def amazon_lt() -> CSRGraph:
    from repro.graph.datasets import load_dataset

    return load_dataset("amazon", model="LT", seed=0)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)
