"""Zero-copy views over published segments: shared store and shared graph.

Both views subclass the objects they mirror, so every consumer — the
selection kernels, the engine, the shard workers — runs unmodified: a
:class:`SharedFlatRRRStore` *is* a :class:`~repro.sketch.store.FlatRRRStore`
whose backing arrays happen to live in a named shared-memory segment,
mapped read-only.  N attached replicas therefore share one copy of the
bytes; attach cost is a header parse, independent of payload size.

Mutation is copy-on-write: the store's two writers, ``append_csr`` and
``replace_sets``, first privatise the arrays (one copy into process-local
memory), so a writer never perturbs the segment other processes are
reading.  ``detach()`` drops every numpy reference into the mapping
*before* closing it (a live view would make ``mmap.close`` raise
``BufferError``) and is idempotent; after detaching, the view reads as
empty.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import ShmError
from repro.graph.csr import CSRGraph
from repro.shm.segments import SegmentHandle, array_views, open_segment, read_header
from repro.sketch.store import FlatRRRStore

__all__ = ["SharedFlatRRRStore", "SharedCSRGraph", "attach_store", "attach_graph"]


class SharedFlatRRRStore(FlatRRRStore):
    """A flat store whose arrays are read-only views into a shared segment.

    Selection over this store is byte-identical to the store it was
    published from: the arrays are the same bytes, and every kernel only
    reads.  Copy-on-write on mutation; ``detach()`` to unmap.
    """

    def __init__(self, *, shm, header: dict[str, Any], manager=None):
        meta = header["meta"]
        super().__init__(meta["num_vertices"])
        views = array_views(shm, header)
        offsets, vertices = views["offsets"], views["vertices"]
        self._offsets = offsets
        self._verts = vertices
        self._num_sets = int(offsets.size - 1)
        self._num_entries = int(vertices.size)
        self._shm = shm
        self._manager = manager
        self._private = False
        self.segment_name = shm.name

    @property
    def detached(self) -> bool:
        """True once :meth:`detach` has unmapped the segment."""
        return self._shm is None and not self._private

    def _privatize(self) -> None:
        """Copy the arrays into process-local memory before any mutation."""
        if self._private:
            return
        if self._shm is None:
            raise ShmError(
                f"store view on segment {self.segment_name} is detached"
            )
        self._offsets = self._offsets.copy()
        self._verts = self._verts.copy()
        self._private = True

    def append_csr(self, vertices, sizes) -> None:
        self._privatize()
        super().append_csr(vertices, sizes)

    def replace_sets(self, indices, vertices, sizes) -> "SharedFlatRRRStore":
        self._privatize()
        super().replace_sets(indices, vertices, sizes)
        return self

    def detach(self) -> None:
        """Unmap the segment (idempotent).  Every reference into the mapped
        buffer is dropped first; the view reads as empty afterwards unless a
        mutation already privatised the arrays."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        if not self._private:
            self._offsets = np.zeros(1, dtype=np.int64)
            self._verts = np.empty(0, dtype=np.int32)
            self._num_sets = 0
            self._num_entries = 0
        try:
            shm.close()
        except BufferError:
            # A caller still holds a get() sub-view; the mapping lives until
            # that view is garbage-collected, then the OS reclaims it.
            pass
        if self._manager is not None:
            self._manager._release(self.segment_name)
            self._manager = None


class SharedCSRGraph(CSRGraph):
    """A CSR graph whose three arrays are read-only views into a segment.

    Spawn-mode sampling workers attach one of these instead of unpickling
    the graph — the adjacency bytes exist once per host, not once per
    worker.  ``transpose()`` still materialises a private reverse graph
    (its cost is unchanged); ``detach()`` to unmap.
    """

    def __init__(self, *, shm, header: dict[str, Any], manager=None):
        views = array_views(shm, header)
        self._shm_segment = shm
        self._manager = manager
        self.segment_name = shm.name
        super().__init__(
            header["meta"]["num_vertices"],
            views["indptr"],
            views["indices"],
            views["probs"],
        )

    @property
    def detached(self) -> bool:
        """True once :meth:`detach` has unmapped the segment."""
        return self._shm_segment is None

    def detach(self) -> None:
        """Unmap the segment (idempotent); the graph reads as empty after."""
        shm, self._shm_segment = self._shm_segment, None
        if shm is None:
            return
        self.num_vertices = 0
        self.indptr = np.zeros(1, dtype=np.int64)
        self.indices = np.empty(0, dtype=np.int32)
        self.probs = np.empty(0, dtype=np.float64)
        self._transpose = None
        self._fingerprint = None
        try:
            shm.close()
        except BufferError:  # caller still holds a neighbors() sub-view
            pass
        if self._manager is not None:
            self._manager._release(self.segment_name)
            self._manager = None


def _record_attach(header: dict[str, Any]) -> None:
    tel = telemetry.get()
    if not tel.enabled:
        return
    payload = int(
        sum(
            int(np.prod(s["shape"])) * np.dtype(s["dtype"]).itemsize
            for s in header["arrays"]
        )
    )
    tel.registry.counter("shm.attaches").inc()
    tel.registry.counter("shm.copy_avoided_bytes").inc(payload)


def _open(handle_or_name, kind: str):
    name = (
        handle_or_name.name
        if isinstance(handle_or_name, SegmentHandle)
        else str(handle_or_name)
    )
    shm = open_segment(name)
    header = read_header(shm)
    if header.get("kind") != kind:
        shm.close()
        raise ShmError(
            f"segment {name} holds kind {header.get('kind')!r}, expected {kind!r}"
        )
    return shm, header


def attach_store(handle_or_name) -> SharedFlatRRRStore:
    """Attach a published store by handle or name, without a manager.

    The process-lifetime form spawn workers use (nothing to refcount:
    the view lives until the worker exits or calls ``detach()``).
    """
    shm, header = _open(handle_or_name, "flat-store")
    _record_attach(header)
    return SharedFlatRRRStore(shm=shm, header=header)


def attach_graph(handle_or_name) -> SharedCSRGraph:
    """Attach a published graph by handle or name, without a manager."""
    shm, header = _open(handle_or_name, "csr-graph")
    _record_attach(header)
    return SharedCSRGraph(shm=shm, header=header)
