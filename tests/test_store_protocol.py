"""RRRStore protocol conformance, the drift guard, and make_store.

Three layers of contract enforcement:

- every registered implementation satisfies the runtime-checkable
  :class:`~repro.sketch.protocol.RRRStore` protocol *behaviourally*
  (same answers for the same sets, not just matching names);
- the drift guard: a store class may only expose public surface that is
  either in the protocol or declared in
  :data:`~repro.sketch.protocol.STORE_EXTRAS` — growing a store's API
  requires touching the registry;
- :func:`~repro.sketch.protocol.make_store` builds every kind, and the
  pre-redesign positional form warns with the ``"repro execution API: "``
  prefix pyproject.toml escalates.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.sketch.compressed_store import CompressedRRRStore
from repro.sketch.protocol import (
    PROTOCOL_METHODS,
    STORE_EXTRAS,
    STORE_KINDS,
    RRRStore,
    allowed_surface,
    make_store,
    public_surface,
    store_implementations,
)
from repro.sketch.store import FlatRRRStore, content_fingerprint

N = 40


def _sample_sets(rng=None):
    rng = rng or np.random.default_rng(7)
    return [
        np.sort(
            rng.choice(N, size=int(rng.integers(1, 9)), replace=False)
        ).astype(np.int32)
        for _ in range(25)
    ]


def _instances():
    """One filled instance per registered implementation (global order
    identical across all of them)."""
    sets = _sample_sets()
    out = []
    for cls in store_implementations():
        if cls.__name__ == "SharedFlatRRRStore":
            continue  # exercised via the shm fixture below
        if cls is CompressedRRRStore:
            store = make_store("compressed", num_vertices=N)
        else:
            store = make_store("flat", num_vertices=N)
        store.extend(sets)
        out.append(store)
    return sets, out


# ----------------------------------------------------------------- conformance
def test_every_implementation_satisfies_the_protocol():
    _, stores = _instances()
    assert {type(s) for s in stores} == {FlatRRRStore, CompressedRRRStore}
    for store in stores:
        assert isinstance(store, RRRStore), type(store).__name__


def test_shared_view_satisfies_the_protocol():
    shm = pytest.importorskip("repro.shm")
    sets = _sample_sets()
    flat = make_store("flat", num_vertices=N)
    flat.extend(sets)
    with shm.SegmentManager(prefix="tsp") as mgr:
        view = mgr.attach_store(mgr.publish_store(flat))
        assert isinstance(view, RRRStore)
        assert view.fingerprint() == flat.fingerprint()
        view.detach()


def test_implementations_agree_behaviourally():
    sets, stores = _instances()
    ref = stores[0]
    expected_fp = content_fingerprint(
        N, ref.sizes(), np.concatenate([ref.get(i) for i in range(len(ref))])
    )
    for store in stores:
        name = type(store).__name__
        assert len(store) == len(sets), name
        assert store.num_vertices == N, name
        np.testing.assert_array_equal(store.sizes(), ref.sizes(), err_msg=name)
        np.testing.assert_array_equal(
            store.vertex_counts(), ref.vertex_counts(), err_msg=name
        )
        for i in (0, len(sets) // 2, len(sets) - 1):
            np.testing.assert_array_equal(
                np.sort(store.get(i)), np.sort(ref.get(i)), err_msg=name
            )
        for v in (0, 13, N - 1):
            np.testing.assert_array_equal(
                store.sets_containing(v), ref.sets_containing(v), err_msg=name
            )
        assert store.fingerprint() == expected_fp, name
        assert store.nbytes() > 0, name
        it = list(iter(store))
        assert len(it) == len(sets), name


def test_replace_sets_consistent_across_implementations():
    sets, stores = _instances()
    rng = np.random.default_rng(11)
    idx = np.array([2, 9, 17], dtype=np.int64)
    new_sets = [
        np.sort(rng.choice(N, size=4, replace=False)).astype(np.int32)
        for _ in idx
    ]
    ref_fp = None
    for store in stores:
        name = type(store).__name__
        store.replace_sets(idx, [s.copy() for s in new_sets])
        assert len(store) == len(sets), name
        fp = store.fingerprint()
        if ref_fp is None:
            ref_fp = fp
        assert fp == ref_fp, name


def test_trim_preserves_content():
    _, stores = _instances()
    for store in stores:
        fp = store.fingerprint()
        trimmed = store.trim()
        assert trimmed.fingerprint() == fp, type(store).__name__


# ----------------------------------------------------------------- drift guard
def test_no_store_exposes_unregistered_public_surface():
    """The drift guard: every public method/property is either protocol
    surface or a registered deliberate extra."""
    for cls in store_implementations():
        extra = public_surface(cls) - allowed_surface(cls)
        assert not extra, (
            f"{cls.__name__} grew unregistered public surface {sorted(extra)}; "
            "add it to PROTOCOL_METHODS or STORE_EXTRAS deliberately"
        )


def test_drift_guard_catches_a_new_method():
    class Rogue(FlatRRRStore):
        def surprise(self):  # pragma: no cover - never called
            return 42

    assert "surprise" in public_surface(Rogue) - allowed_surface(Rogue)


def test_registry_covers_all_implementations():
    names = {cls.__name__ for cls in store_implementations()}
    assert {
        "FlatRRRStore",
        "CompressedRRRStore",
        "SharedFlatRRRStore",
    } <= names
    assert "append" in PROTOCOL_METHODS
    assert STORE_EXTRAS[FlatRRRStore]  # non-empty: offsets/vertices/...


# --------------------------------------------------------------------- factory
def test_make_store_builds_every_kind():
    assert make_store("flat", num_vertices=N).num_vertices == N
    assert isinstance(
        make_store("compressed", num_vertices=N), CompressedRRRStore
    )
    assert STORE_KINDS == ("flat", "compressed", "shared")


def test_make_store_flat_rebuild_from_arrays():
    flat = make_store("flat", num_vertices=N)
    flat.extend(_sample_sets())
    rebuilt = make_store(
        "flat",
        num_vertices=N,
        offsets=flat.offsets,
        vertices=flat.vertices,
    )
    assert rebuilt.fingerprint() == flat.fingerprint()


def test_make_store_rejects_unknown_kind_and_bad_options():
    with pytest.raises(ParameterError, match="unknown store kind"):
        make_store("columnar", num_vertices=N)
    with pytest.raises(ParameterError, match="requires num_vertices"):
        make_store("flat")
    for retired in ("adaptive", "partitioned"):
        with pytest.raises(ParameterError, match="unknown store kind"):
            make_store(retired, num_vertices=N)
    with pytest.raises(ParameterError, match="offsets and vertices together"):
        make_store("flat", num_vertices=N, offsets=np.zeros(1, dtype=np.int64))
    with pytest.raises(ParameterError, match="exactly one of"):
        make_store("shared")


def test_make_store_positional_form_rejected():
    with pytest.raises(TypeError):
        make_store("flat", N)
    with pytest.raises(TypeError):
        make_store("flat", N, num_vertices=N)


def test_make_store_shared_attaches_by_handle_name_and_manager():
    from repro import shm

    flat = make_store("flat", num_vertices=N)
    flat.extend(_sample_sets())
    with shm.SegmentManager(prefix="tsf") as mgr:
        handle = mgr.publish_store(flat)
        by_handle = make_store("shared", handle=handle)
        by_name = make_store("shared", name=handle.name)
        by_mgr = make_store("shared", handle=handle, manager=mgr)
        try:
            for view in (by_handle, by_name, by_mgr):
                assert view.fingerprint() == flat.fingerprint()
        finally:
            for view in (by_handle, by_name, by_mgr):
                view.detach()
        assert mgr.leaked() == []
