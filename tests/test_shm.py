"""The shared-memory sketch plane: segments, views, lifecycle edge cases.

Covers the contracts docs/memory.md states:

- publish/attach round-trips are byte-identical (same fingerprint, same
  selection answers) and genuinely zero-copy (a byte poked into the
  segment is visible through an already-attached view);
- lifecycle edges: double close is a no-op, attach-after-unlink raises
  :class:`~repro.errors.ShmError`, a crashed child holding an attach
  cannot break the creator's cleanup, and the startup sweep removes a
  dead owner's orphans while leaving live ones alone;
- copy-on-write: mutating one view privatises it without perturbing the
  segment other views read;
- the integration paths: spawn-mode ``parallel_generate`` equals fork
  byte-for-byte, and a sharded cluster over segments answers exactly like
  one without.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import shm
from repro.core.selection import efficient_select
from repro.errors import ShmError
from repro.shm.segments import open_segment, read_header
from repro.sketch.compressed_store import CompressedRRRStore

from conftest import make_store

N = 60
SHM_DIR = Path("/dev/shm")


def _filled_store(seed=5, num_sets=40):
    rng = np.random.default_rng(seed)
    return make_store(
        N,
        [rng.choice(N, size=int(rng.integers(1, 10)), replace=False)
         for _ in range(num_sets)],
    )


@pytest.fixture
def mgr():
    m = shm.SegmentManager(prefix="tshm")
    yield m
    m.close()
    assert shm.list_segments("tshm") == []


# ------------------------------------------------------------------ round-trip
def test_store_round_trip_is_byte_identical(mgr):
    store = _filled_store()
    handle = mgr.publish_store(store)
    assert len(handle.name) <= 31  # POSIX portability limit
    assert handle.payload_bytes == store.offsets.nbytes + store.vertices.nbytes
    view = mgr.attach_store(handle)
    assert view.fingerprint() == store.fingerprint()
    np.testing.assert_array_equal(view.offsets, store.offsets)
    np.testing.assert_array_equal(view.vertices, store.vertices)
    assert not view.vertices.flags.writeable
    view.detach()


def test_attach_store_by_handle_name_and_manager(mgr):
    store = _filled_store()
    handle = mgr.publish_store(store)
    views = [
        shm.attach_store(handle),
        shm.attach_store(handle.name),
        mgr.attach_store(handle),
    ]
    try:
        for view in views:
            assert view.fingerprint() == store.fingerprint()
    finally:
        for view in views:
            view.detach()
    assert mgr.leaked() == []


def test_graph_round_trip(mgr, diamond_graph):
    handle = mgr.publish_graph(diamond_graph)
    g = mgr.attach_graph(handle)
    assert g.num_vertices == diamond_graph.num_vertices
    np.testing.assert_array_equal(g.indptr, diamond_graph.indptr)
    np.testing.assert_array_equal(g.indices, diamond_graph.indices)
    np.testing.assert_array_equal(g.probs, diamond_graph.probs)
    g.detach()
    assert g.detached


def test_attached_view_sees_segment_bytes(mgr):
    """Zero-copy proof: a byte poked into the raw segment shows up in a
    view that was attached *before* the poke."""
    store = _filled_store()
    handle = mgr.publish_store(store)
    view = mgr.attach_store(handle)
    raw = open_segment(handle.name)
    try:
        header = read_header(raw)
        spec = next(s for s in header["arrays"] if s["name"] == "vertices")
        old = view.vertices[0]
        poked = np.array([int(old) + 1], dtype=np.int32)
        raw.buf[spec["offset"] : spec["offset"] + 4] = poked.tobytes()
        assert view.vertices[0] == old + 1
        raw.buf[spec["offset"] : spec["offset"] + 4] = np.array(
            [old], dtype=np.int32
        ).tobytes()
    finally:
        raw.close()
        view.detach()


def test_publish_is_idempotent_per_fingerprint(mgr):
    store = _filled_store()
    h1 = mgr.publish_store(store)
    h2 = mgr.publish_store(store)
    assert h1 is h2
    assert mgr.handle_for(store.fingerprint()) == h1
    assert mgr.has_store(store.fingerprint())
    assert mgr.handle_for("0" * 16) is None


def test_only_flat_stores_publish(mgr):
    packed = CompressedRRRStore(N)
    rng = np.random.default_rng(9)
    packed.extend(
        [np.sort(rng.choice(N, size=4, replace=False)) for _ in range(15)]
    )
    with pytest.raises(ShmError, match="CompressedRRRStore"):
        mgr.publish_store(packed)
    view = mgr.attach_store(mgr.publish_store(packed.to_flat()))
    assert view.fingerprint() == packed.to_flat().fingerprint()
    assert len(view) == len(packed)
    view.detach()


def test_selection_identical_over_shared_view(mgr):
    store = _filled_store(seed=13, num_sets=80)
    view = mgr.attach_store(mgr.publish_store(store))
    a = efficient_select(store, 5)
    b = efficient_select(view, 5)
    np.testing.assert_array_equal(a.seeds, b.seeds)
    view.detach()


# --------------------------------------------------------------- copy-on-write
def test_mutation_privatises_without_touching_other_views(mgr):
    store = _filled_store()
    handle = mgr.publish_store(store)
    writer = mgr.attach_store(handle)
    reader = mgr.attach_store(handle)
    n0 = len(reader)
    writer.append_csr(np.array([1, 2, 3], dtype=np.int32), [3])
    assert len(writer) == n0 + 1
    assert len(reader) == n0  # untouched
    assert reader.fingerprint() == store.fingerprint()
    writer.detach()
    reader.detach()
    assert mgr.leaked() == []


def test_replace_sets_is_cow(mgr):
    """A CSR splice through one view, of the first and the last set,
    leaves the segment a second view reads byte for byte as published."""
    store = _filled_store()
    handle = mgr.publish_store(store)
    writer = mgr.attach_store(handle)
    reader = mgr.attach_store(handle)
    last = len(store) - 1
    writer.replace_sets(
        np.array([0, last]), np.array([7, 3, 8, 9], dtype=np.int32), [1, 3]
    )
    assert [writer.get(0).tolist(), writer.get(last).tolist()] == [[7], [3, 8, 9]]
    np.testing.assert_array_equal(writer.get(1), store.get(1))
    np.testing.assert_array_equal(reader.offsets, store.offsets)
    np.testing.assert_array_equal(reader.vertices, store.vertices)
    assert reader.fingerprint() == store.fingerprint()
    writer.detach()
    reader.detach()


# ------------------------------------------------------------- lifecycle edges
def test_double_close_and_double_detach_are_noops():
    m = shm.SegmentManager(prefix="tdc")
    view = m.attach_store(m.publish_store(_filled_store()))
    view.detach()
    view.detach()  # idempotent
    assert view.detached
    m.close()
    m.close()  # idempotent
    assert shm.list_segments("tdc") == []


def test_closed_manager_rejects_further_use():
    m = shm.SegmentManager(prefix="tcl")
    m.close()
    with pytest.raises(ShmError, match="closed"):
        m.publish_store(_filled_store())
    with pytest.raises(ShmError, match="closed"):
        m.attach_store("tcl-feedfeedfeedfeed-1")


def test_attach_after_unlink_raises_shm_error():
    m = shm.SegmentManager(prefix="tau")
    handle = m.publish_store(_filled_store())
    m.close()
    with pytest.raises(ShmError, match="not found"):
        shm.attach_store(handle)


def test_mutating_a_detached_view_raises():
    with shm.SegmentManager(prefix="tdm") as m:
        view = m.attach_store(m.publish_store(_filled_store()))
        view.detach()
        with pytest.raises(ShmError, match="detached"):
            view.append_csr(np.array([1], dtype=np.int32), [1])


def test_leak_detector_reports_undetached_views():
    m = shm.SegmentManager(prefix="tlk")
    handle = m.publish_store(_filled_store())
    view = m.attach_store(handle)
    assert m.leaked() == [handle.name]
    view.detach()
    assert m.leaked() == []
    m.close()


def test_invalid_prefix_rejected():
    for bad in ("", "a-b", "a/b"):
        with pytest.raises(ShmError, match="invalid segment prefix"):
            shm.SegmentManager(prefix=bad)


def test_wrong_kind_attach_rejected(mgr, diamond_graph):
    h_graph = mgr.publish_graph(diamond_graph)
    with pytest.raises(ShmError, match="holds kind"):
        mgr.attach_store(h_graph)


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="needs /dev/shm")
def test_orphan_sweep_removes_dead_owners_only():
    # A genuinely dead pid: a shell that has already exited.
    proc = subprocess.run(
        ["sh", "-c", "echo $$"], capture_output=True, text=True, check=True
    )
    dead_pid = int(proc.stdout.strip())
    orphan = SHM_DIR / f"tsw-{'ab' * 8}-{dead_pid:x}"
    orphan.write_bytes(b"\0" * 64)
    live = SHM_DIR / f"tsw-{'cd' * 8}-{os.getpid():x}"
    live.write_bytes(b"\0" * 64)
    try:
        removed = shm.sweep_orphans("tsw")
        assert orphan.name in removed
        assert not orphan.exists()
        assert live.exists()  # live owner's segment untouched
    finally:
        orphan.unlink(missing_ok=True)
        live.unlink(missing_ok=True)


def _crash_holding_attach(name):
    view = shm.attach_store(name)
    assert len(view) > 0
    os._exit(0)  # simulate a crash: no detach, no cleanup


@pytest.mark.skipif(not SHM_DIR.is_dir(), reason="needs /dev/shm")
def test_child_crash_holding_attach_does_not_break_creator():
    m = shm.SegmentManager(prefix="tcc")
    handle = m.publish_store(_filled_store())
    ctx = multiprocessing.get_context("fork")
    p = ctx.Process(target=_crash_holding_attach, args=(handle.name,))
    p.start()
    p.join(timeout=30)
    assert p.exitcode == 0
    # The crashed attacher must not have unlinked the creator's segment...
    assert handle.name in shm.list_segments("tcc")
    view = m.attach_store(handle)
    assert view.fingerprint()
    view.detach()
    # ...and the creator's close still reclaims it.
    m.close()
    assert shm.list_segments("tcc") == []


def test_fork_inherited_manager_never_unlinks():
    m = shm.SegmentManager(prefix="tfk")
    handle = m.publish_store(_filled_store())
    ctx = multiprocessing.get_context("fork")
    p = ctx.Process(target=lambda mm: mm.close(), args=(m,))
    p.start()
    p.join(timeout=30)
    assert p.exitcode == 0
    assert handle.name in shm.list_segments("tfk")  # child close() = bookkeeping only
    m.close()
    assert shm.list_segments("tfk") == []


# ----------------------------------------------------------------- integration
def test_spawn_parallel_generate_matches_fork(amazon_ic):
    from repro.core.parallel_sampling import parallel_generate

    fork_store = parallel_generate(
        amazon_ic, "IC", 60, num_workers=2, seed=3, start_method="fork"
    )
    spawn_store = parallel_generate(
        amazon_ic, "IC", 60, num_workers=2, seed=3, start_method="spawn"
    )
    assert spawn_store.fingerprint() == fork_store.fingerprint()
    np.testing.assert_array_equal(spawn_store.offsets, fork_store.offsets)
    np.testing.assert_array_equal(spawn_store.vertices, fork_store.vertices)
    assert shm.list_segments() == []  # the call unlinked its graph segment


def test_shard_cluster_over_segments_matches_baseline():
    from repro.service.engine import EngineConfig
    from repro.service.protocol import IMQuery
    from repro.shard.cluster import ShardCluster
    from repro.shard.plan import ShardPlan
    from repro.shard.worker import SketchSpec

    spec = SketchSpec(
        dataset="skitter", model="IC", epsilon=0.5, seed=0, num_sets=200
    )
    query = IMQuery(
        dataset="skitter", model="IC", k=8, epsilon=0.5, seed=0, theta_cap=200
    )
    cfg = EngineConfig(persist=False)
    plan = ShardPlan(num_shards=2, replication=2)

    with ShardCluster(plan, engine_config=cfg) as base:
        base.build(spec)
        expected = base.query(query)

    m = shm.SegmentManager(prefix="tcs")
    with ShardCluster(plan, engine_config=cfg, segment_manager=m) as clus:
        summary = clus.build(spec)
        assert all(row["segment"] for row in summary["shards"])
        got = clus.query(query)
        # 2 shards x 2 replicas each hold one zero-copy view.
        assert sum(w.stats.shm_attaches for w in clus.workers) == 4
    assert got.seeds == expected.seeds
    assert m.leaked() == []  # worker close detached every view
    m.close()
    assert shm.list_segments("tcs") == []
