"""The flat store's contract, across every way a store is built.

docs/memory.md states one read/mutation contract, that of
:class:`~repro.sketch.store.FlatRRRStore`.  A store reaches a caller by
one of four routes: ``FlatRRRStore(n)`` filled by ``append_csr``,
``FlatRRRStore.from_arrays``, a shared-memory view attached through
:mod:`repro.shm`, or the compressed baseline decoded with ``to_flat()``.
For the same sets, every route must give the same answers — sizes,
vertex lists, membership (checked against a pure-Python loop), content
fingerprint — and ``replace_sets`` and ``trim`` must leave them agreeing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.sketch.compressed_store import CompressedRRRStore
from repro.sketch.store import FlatRRRStore, content_fingerprint

from conftest import csr_sets, make_store, membership_oracle

N = 40


def _sample_sets(rng=None):
    rng = rng or np.random.default_rng(7)
    return [
        np.sort(
            rng.choice(N, size=int(rng.integers(1, 9)), replace=False)
        ).astype(np.int32)
        for _ in range(25)
    ]


def _compressed(sets, codec):
    store = CompressedRRRStore(N, codec=codec, training_sets=8)
    store.extend(sets)
    store.finalize()
    return store


def _check_same_content(store, ref, name):
    assert len(store) == len(ref), name
    assert store.num_vertices == ref.num_vertices, name
    np.testing.assert_array_equal(store.sizes(), ref.sizes(), err_msg=name)
    np.testing.assert_array_equal(
        store.vertex_counts(), ref.vertex_counts(), err_msg=name
    )
    for i in range(len(ref)):
        np.testing.assert_array_equal(store.get(i), ref.get(i), err_msg=name)
    queries = np.arange(-1, N + 1)
    for got, want in zip(
        store.membership_pairs(queries), membership_oracle(ref, queries)
    ):
        np.testing.assert_array_equal(got, want, err_msg=name)
    for v in range(N):
        np.testing.assert_array_equal(
            store.sets_containing(v), membership_oracle(ref, [v])[0],
            err_msg=name,
        )
    assert [s.tolist() for s in store] == [s.tolist() for s in ref], name
    assert store.fingerprint() == ref.fingerprint(), name


def test_shared_view_satisfies_the_protocol():
    shm = pytest.importorskip("repro.shm")
    flat = make_store(N, _sample_sets())
    with shm.SegmentManager(prefix="tsp") as mgr:
        view = mgr.attach_store(mgr.publish_store(flat))
        try:
            assert isinstance(view, FlatRRRStore)
            _check_same_content(view, flat, "shared view")
            np.testing.assert_array_equal(view.offsets, flat.offsets)
            np.testing.assert_array_equal(view.vertices, flat.vertices)
            assert view.nbytes() == flat.nbytes()
        finally:
            view.detach()
        assert mgr.leaked() == []


def test_implementations_agree_behaviourally():
    sets = _sample_sets()
    ref = make_store(N, sets)
    expected_fp = content_fingerprint(
        N, np.array([s.size for s in sets], dtype=np.int64), np.concatenate(sets)
    )
    assert ref.fingerprint() == expected_fp
    for i, s in enumerate(sets):
        np.testing.assert_array_equal(ref.get(i), s)
    rebuilt = FlatRRRStore.from_arrays(N, ref.offsets, ref.vertices)
    _check_same_content(rebuilt, ref, "from_arrays")
    for codec in ("huffman", "delta-varint"):
        packed = _compressed(sets, codec)
        assert len(packed) == len(sets), codec
        assert packed.num_vertices == N, codec
        np.testing.assert_array_equal(packed.sizes(), ref.sizes(), err_msg=codec)
        for i in range(len(sets)):
            np.testing.assert_array_equal(packed.get(i), ref.get(i), err_msg=codec)
        assert packed.nbytes() > 0, codec
        _check_same_content(packed.to_flat(), ref, codec)


def test_replace_sets_consistent_across_implementations():
    shm = pytest.importorskip("repro.shm")
    sets = _sample_sets()
    rng = np.random.default_rng(11)
    idx = np.array([2, 9, 17], dtype=np.int64)
    new_sets = [
        rng.choice(N, size=int(size), replace=False).astype(np.int32)
        for size in (1, 4, 8)
    ]
    expected = list(sets)
    for j, i in enumerate(idx):
        expected[i] = np.sort(new_sets[j])
    ref = make_store(N, expected)
    vertices, sizes = csr_sets(new_sets)

    flat = make_store(N, sets)
    assert flat.replace_sets(idx, vertices, sizes) is flat
    _check_same_content(flat, ref, "flat")

    base = make_store(N, sets)
    rebuilt = FlatRRRStore.from_arrays(N, base.offsets, base.vertices)
    rebuilt.replace_sets(idx, vertices, sizes)
    _check_same_content(rebuilt, ref, "from_arrays")

    decoded = _compressed(sets, "delta-varint").to_flat()
    decoded.replace_sets(idx, vertices, sizes)
    _check_same_content(decoded, ref, "decoded compressed")

    source = make_store(N, sets)
    with shm.SegmentManager(prefix="tsr") as mgr:
        handle = mgr.publish_store(source)
        view = mgr.attach_store(handle)
        other = mgr.attach_store(handle)
        try:
            view.replace_sets(idx, vertices, sizes)
            _check_same_content(view, ref, "shared view")
            # Copy-on-write: the segment other views read is untouched.
            _check_same_content(other, source, "other shared view")
        finally:
            view.detach()
            other.detach()
        assert mgr.leaked() == []


def test_trim_preserves_content():
    shm = pytest.importorskip("repro.shm")
    sets = _sample_sets()
    ref = make_store(N, sets)
    stores = {
        "flat": make_store(N, sets),
        "from_arrays": FlatRRRStore.from_arrays(N, ref.offsets, ref.vertices),
        "decoded compressed": _compressed(sets, "huffman").to_flat(),
    }
    for name, store in stores.items():
        trimmed = store.trim()
        assert trimmed is store, name
        assert trimmed.capacity_bytes() == trimmed.nbytes(), name
        _check_same_content(trimmed, ref, name)
        trimmed.append_csr(np.array([0, N - 1], dtype=np.int32), [2])
        assert len(trimmed) == len(sets) + 1, name
        np.testing.assert_array_equal(trimmed.get(len(sets)), [0, N - 1])
    with shm.SegmentManager(prefix="tst") as mgr:
        view = mgr.attach_store(mgr.publish_store(ref))
        try:
            _check_same_content(view.trim(), ref, "shared view")
        finally:
            view.detach()
        assert mgr.leaked() == []


def test_make_store_flat_rebuild_from_arrays():
    flat = make_store(N, _sample_sets())
    flat.append_csr(np.array([3, 5], dtype=np.int32), [2])  # leaves slack
    rebuilt = FlatRRRStore.from_arrays(N, flat.offsets, flat.vertices)
    _check_same_content(rebuilt, flat, "from_arrays")
    assert rebuilt.capacity_bytes() == rebuilt.nbytes()
    # The arrays are copied: writing into the inputs leaves the rebuild alone.
    offsets, vertices = flat.offsets.copy(), flat.vertices.copy()
    copied = FlatRRRStore.from_arrays(N, offsets, vertices)
    offsets[1:] = offsets[-1]
    vertices[:] = 0
    _check_same_content(copied, flat, "from_arrays after the inputs changed")
