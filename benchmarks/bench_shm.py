"""Shared-memory sketch plane bench: handoff bytes, startup, private RSS.

The :mod:`repro.shm` plane's claim is that moving a sketch or graph to
another process costs a :class:`~repro.shm.SegmentHandle` (a few hundred
bytes), not a pickle of the payload, and that N attached consumers share
one copy of the bytes.  Three measurements, all deterministic under a
fixed seed:

- **handoff** — ``pickle.dumps(store)`` versus ``pickle.dumps(handle)``;
  the redesign's headline number, asserted at >= 5x smaller (in practice
  it is orders of magnitude);
- **startup** — wall-clock of spawn-mode ``parallel_generate`` whose
  workers unpickle the graph versus workers that attach the published
  segment, byte-identical results required;
- **private RSS** — a forked consumer that unpickles its own copy of the
  store versus one that attaches the segment, comparing the *private*
  resident growth each pays (``/proc/self/smaps_rollup``; recorded as -1
  where the kernel lacks it).  The attacher's pages stay shared with the
  publisher, so its private growth is header-sized, not payload-sized.

Every segment is reclaimed before the bench exits; the zero-leak
assertion is part of the bench, not just the tests.

``REPRO_BENCH_SMOKE=1`` shrinks the synthetic sketch so the CI
benchmark-smoke job finishes quickly.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
from pathlib import Path

import numpy as np

from repro import shm
from repro.bench.report import Table
from repro.core.parallel_sampling import _init_worker, parallel_generate
from repro.graph.datasets import load_dataset
from repro.runtime.backends import MultiprocessBackend
from repro.sketch.store import FlatRRRStore

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))
NUM_SETS = 60_000 if SMOKE else 240_000
AVG_SET = 50
N_VERTICES = 50_000
SPAWN_SETS = 40 if SMOKE else 200
SEED = 17


def _synthetic_store():
    """A flat store with ~NUM_SETS * AVG_SET entries (payload in the MBs),
    each set's vertices distinct and ascending, as a store holds them."""
    rng = np.random.default_rng(SEED)
    sizes = rng.integers(AVG_SET // 2, AVG_SET * 2, size=NUM_SETS)
    sets = np.repeat(np.arange(NUM_SETS, dtype=np.int64), sizes)
    keys = np.unique(sets * N_VERTICES + rng.integers(0, N_VERTICES, sets.size))
    offsets = np.zeros(NUM_SETS + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // N_VERTICES, minlength=NUM_SETS), out=offsets[1:])
    vertices = (keys % N_VERTICES).astype(np.int32)
    return FlatRRRStore.from_arrays(N_VERTICES, offsets, vertices)


def _private_kb() -> int | None:
    """This process's private resident memory in KiB (Linux), else None."""
    try:
        text = Path("/proc/self/smaps_rollup").read_text()
    except OSError:  # pragma: no cover - non-Linux / old kernel
        return None
    kb = 0
    for line in text.splitlines():
        if line.startswith(("Private_Clean:", "Private_Dirty:")):
            kb += int(line.split()[1])
    return kb


def _warm_child() -> None:
    """Pre-fault the shared code paths so the measured delta is the payload,
    not copy-on-write page faults from first touching the inherited heap."""
    tiny = FlatRRRStore(4)
    tiny.append_csr(np.array([1, 2], dtype=np.int32), np.array([2]))
    int(pickle.loads(pickle.dumps(tiny)).vertices.sum())


def _consume_pickled(blob, queue):
    """Fork child: unpickle a private copy of the store and touch it."""
    _warm_child()
    before = _private_kb()
    store = pickle.loads(blob)
    int(store.vertices.sum())  # touch every page, no payload-sized temps
    after = _private_kb()
    queue.put(-1 if before is None else max(0, after - before))


def _consume_shared(name, queue):
    """Fork child: attach the published segment and touch it."""
    _warm_child()
    before = _private_kb()
    view = shm.attach_store(name)
    int(view.vertices.sum())  # touch every page — stays shared with the publisher
    after = _private_kb()
    queue.put(-1 if before is None else max(0, after - before))
    view.detach()


def _child_private_kb(target, arg) -> int:
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    p = ctx.Process(target=target, args=(arg, queue))
    p.start()
    result = queue.get(timeout=120)
    p.join(timeout=30)
    return int(result)


def test_shm_handoff_and_rss(bench_record):
    store = _synthetic_store()
    pickled_bytes = len(pickle.dumps(store))

    with shm.SegmentManager(prefix="bshm") as mgr:
        handle = mgr.publish_store(store)
        handle_bytes = len(pickle.dumps(handle))
        ratio = pickled_bytes / handle_bytes

        # Attach cost is a header parse, independent of payload size.
        t0 = time.perf_counter()
        view = mgr.attach_store(handle)
        attach_s = time.perf_counter() - t0
        assert view.fingerprint() == store.fingerprint()
        view.detach()

        pickled_kb = _child_private_kb(_consume_pickled, pickle.dumps(store))
        shared_kb = _child_private_kb(_consume_shared, handle.name)
        assert mgr.leaked() == []
    assert shm.list_segments("bshm") == []  # zero leaked segments

    payload_mb = handle.payload_bytes / 2**20
    print(f"\npayload            {payload_mb:10.1f} MiB")
    print(f"pickled handoff    {pickled_bytes:>12,} B")
    print(f"segment handle     {handle_bytes:>12,} B   ({ratio:,.0f}x smaller)")
    print(f"attach latency     {attach_s * 1e3:10.3f} ms")
    print(f"consumer private RSS: pickled {pickled_kb:,} KiB, "
          f"shared {shared_kb:,} KiB")

    table = Table(
        title="Shared-memory handoff vs pickling",
        columns=["metric", "pickled", "shared"],
    )
    table.add_row("handoff_bytes", pickled_bytes, handle_bytes)
    table.add_row("consumer_private_rss_kb", pickled_kb, shared_kb)
    bench_record(
        "shm_handoff",
        payload_bytes=int(handle.payload_bytes),
        handoff_ratio=float(ratio),
        attach_s=float(attach_s),
        table=table,
    )

    # The redesign's headline: the handle is >= 5x smaller than the pickle.
    assert ratio >= 5, (pickled_bytes, handle_bytes)
    if pickled_kb >= 0 and shared_kb >= 0:
        # The attacher's private growth must undercut a private unpickled
        # copy of a multi-MB payload by at least half.
        assert shared_kb * 2 < pickled_kb, (shared_kb, pickled_kb)


def test_shm_spawn_startup(bench_record):
    graph = load_dataset("amazon", model="IC", seed=0)

    # Baseline: spawn workers that receive the graph as a pickle.
    t0 = time.perf_counter()
    backend = MultiprocessBackend(
        2,
        initializer=_init_worker,
        initargs=(graph, "IC"),
        start_method="spawn",
    )
    try:
        pickled_store = parallel_generate(
            graph, "IC", SPAWN_SETS, num_workers=2, seed=SEED, backend=backend
        )
    finally:
        backend.close()
    pickled_s = time.perf_counter() - t0

    # Shared: spawn workers that attach the published graph segment.
    t0 = time.perf_counter()
    shared_store = parallel_generate(
        graph, "IC", SPAWN_SETS, num_workers=2, seed=SEED, start_method="spawn"
    )
    shared_s = time.perf_counter() - t0

    assert shared_store.fingerprint() == pickled_store.fingerprint()
    assert shm.list_segments() == []  # the call unlinked its graph segment

    print(f"\nspawn startup+run: pickled graph {pickled_s:.2f}s, "
          f"shared segment {shared_s:.2f}s")
    table = Table(
        title="Spawn-mode sampling handoff",
        columns=["mode", "wall_s"],
    )
    table.add_row("pickled_graph", round(pickled_s, 4))
    table.add_row("shared_segment", round(shared_s, 4))
    bench_record(
        "shm_spawn_startup",
        num_sets=SPAWN_SETS,
        pickled_s=float(pickled_s),
        shared_s=float(shared_s),
        table=table,
    )
