"""Named shared-memory segments: layout, lifecycle, and the refcounted manager.

One segment holds one published object (a flat RRR store or a CSR graph)
in a self-describing layout::

    [ u64 header length | JSON header | padding | arrays, 64-byte aligned ]

The header records each array's name, dtype, shape, and byte offset plus
object-level metadata (``num_vertices``, fingerprint), so a
child process can attach *by name alone* — the only thing that crosses the
process boundary is a :class:`SegmentHandle` a few hundred bytes long,
instead of a multi-GB pickle.

Segment names are fingerprint-keyed — ``<prefix>-<fingerprint16>-<pidhex>``
— which makes publishes idempotent (same content, same name), keeps names
under the 31-character POSIX portability limit, and embeds the creator pid
so :func:`sweep_orphans` can tell a crashed owner's leftovers from a live
one's segments.

Lifecycle rules (docs/memory.md):

- the :class:`SegmentManager` that *creates* a segment owns it and unlinks
  it on :meth:`~SegmentManager.close` (context-manager exit or atexit);
- *attachers* only ever map and unmap; a fork- or spawn-inherited manager
  never unlinks (creator-pid guard), so worker exit cannot pull segments
  out from under the parent;
- attaching suppresses ``multiprocessing``'s resource-tracker
  registration — before Python 3.13 the tracker registers attaches too and
  would unlink the segment when the *attaching* process exits (bpo-39959);
  creators rely on the manager (plus the sweep) instead.
"""

from __future__ import annotations

import atexit
import json
import os
import threading
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from pathlib import Path
from typing import Any

import numpy as np

from repro import telemetry
from repro.errors import ShmError

__all__ = [
    "DEFAULT_PREFIX",
    "SegmentHandle",
    "SegmentManager",
    "list_segments",
    "sweep_orphans",
]

#: Default segment-name prefix ("repro sketch").
DEFAULT_PREFIX = "rs"

_FORMAT = "repro-shm/1"
_ALIGN = 64
_SHM_DIR = Path("/dev/shm")  # Linux; list/sweep degrade gracefully elsewhere


@dataclass(frozen=True)
class SegmentHandle:
    """Picklable pointer to one published segment (what workers receive)."""

    name: str            #: shared-memory segment name (attach key)
    kind: str            #: "flat-store" | "csr-graph"
    fingerprint: str     #: content fingerprint the name was keyed by
    payload_bytes: int   #: bytes of array payload the attacher does NOT copy


# ------------------------------------------------------------------ layout
def _pack_header(
    kind: str, meta: dict[str, Any], arrays: dict[str, np.ndarray]
) -> tuple[bytes, dict[str, int], int]:
    """(header bytes, array offsets, total segment size) for a payload."""
    specs = []
    # Offsets depend on the header length, which depends on the offsets'
    # digit count; reserve generous fixed-width offsets by building the
    # header twice with the second pass's offsets.
    offsets = {name: 0 for name in arrays}
    for _ in range(2):
        specs = [
            {
                "name": name,
                "dtype": str(arr.dtype),
                "shape": list(arr.shape),
                "offset": offsets[name],
            }
            for name, arr in arrays.items()
        ]
        doc = {"format": _FORMAT, "kind": kind, "meta": meta, "arrays": specs}
        header = json.dumps(doc, sort_keys=True).encode("utf-8")
        cursor = 8 + len(header)
        for name, arr in arrays.items():
            cursor += (-cursor) % _ALIGN
            offsets[name] = cursor
            cursor += arr.nbytes
    return header, offsets, cursor


def _write_segment(
    shm: shared_memory.SharedMemory,
    header: bytes,
    offsets: dict[str, int],
    arrays: dict[str, np.ndarray],
) -> None:
    buf = shm.buf
    buf[0:8] = len(header).to_bytes(8, "little")
    buf[8 : 8 + len(header)] = header
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        view = np.frombuffer(
            buf, dtype=arr.dtype, count=arr.size, offset=offsets[name]
        ).reshape(arr.shape)
        view[...] = arr  # the one copy of the publish path


def read_header(shm: shared_memory.SharedMemory) -> dict[str, Any]:
    """Parse and validate a segment's JSON header."""
    try:
        hlen = int.from_bytes(bytes(shm.buf[0:8]), "little")
        if not (0 < hlen <= shm.size - 8):
            raise ValueError(f"implausible header length {hlen}")
        doc = json.loads(bytes(shm.buf[8 : 8 + hlen]).decode("utf-8"))
    except (ValueError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ShmError(f"segment {shm.name}: corrupt header ({exc})") from exc
    if doc.get("format") != _FORMAT:
        raise ShmError(
            f"segment {shm.name}: unknown format {doc.get('format')!r}"
        )
    return doc


def array_views(
    shm: shared_memory.SharedMemory, header: dict[str, Any]
) -> dict[str, np.ndarray]:
    """Zero-copy, read-only numpy views over a segment's arrays."""
    out: dict[str, np.ndarray] = {}
    for spec in header["arrays"]:
        dtype = np.dtype(spec["dtype"])
        shape = tuple(spec["shape"])
        count = int(np.prod(shape)) if shape else 1
        view = np.frombuffer(
            shm.buf, dtype=dtype, count=count, offset=int(spec["offset"])
        ).reshape(shape)
        view.flags.writeable = False
        out[spec["name"]] = view
    return out


# --------------------------------------------------------------- open/attach
_ATTACH_LOCK = threading.Lock()


def open_segment(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment by name, without tracker registration.

    ``SharedMemory(name)`` would register the attach with the resource
    tracker, which before Python 3.13 unlinks the segment when *this*
    process exits (bpo-39959) — pulling it out from under the creator.
    Registration is suppressed for the duration of the open; creators keep
    their own registration, and crashes are covered by the pid sweep.
    """
    with _ATTACH_LOCK:
        real_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError as exc:
            raise ShmError(
                f"segment {name!r} not found — never published, already "
                "unlinked, or a different host"
            ) from exc
        except OSError as exc:  # pragma: no cover - platform-specific failures
            raise ShmError(f"cannot attach segment {name!r}: {exc}") from exc
        finally:
            resource_tracker.register = real_register
    return shm


# ------------------------------------------------------------- host scanning
def list_segments(prefix: str = DEFAULT_PREFIX) -> list[str]:
    """Names of live segments under ``prefix`` (Linux ``/dev/shm`` scan;
    returns ``[]`` on hosts without it)."""
    if not _SHM_DIR.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in _SHM_DIR.glob(f"{prefix}-*"))


def _creator_pid(name: str) -> int | None:
    """The pid embedded in a segment name, or ``None`` if unparsable."""
    try:
        return int(name.rsplit("-", 1)[1], 16)
    except (IndexError, ValueError):
        return None


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other user's pid
        return True
    return True


def sweep_orphans(prefix: str = DEFAULT_PREFIX) -> list[str]:
    """Unlink segments whose embedded creator pid is dead; returns the
    removed names.  Run by :class:`SegmentManager` on startup so a crashed
    (SIGKILLed) owner's segments do not accumulate in ``/dev/shm``; live
    owners' segments are never touched."""
    removed: list[str] = []
    for name in list_segments(prefix):
        pid = _creator_pid(name)
        if pid is None or pid == os.getpid() or _pid_alive(pid):
            continue
        try:
            (_SHM_DIR / name).unlink(missing_ok=True)
        except OSError:  # pragma: no cover - raced with another sweeper
            continue
        removed.append(name)
    if removed:
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("shm.orphans_swept").inc(len(removed))
    return removed


# ------------------------------------------------------------------- manager
class SegmentManager:
    """Refcounted owner of published segments and bookkeeper of attaches.

    Use as a context manager (or rely on the atexit hook)::

        with SegmentManager() as mgr:
            handle = mgr.publish_store(store)
            view = mgr.attach_store(handle)   # zero-copy read-only store
            ...
            view.detach()
        # exit unlinks every segment this manager created

    ``leaked()`` lists segments with views still attached — the leak
    detector the tests (and ``shm.leaked_views`` telemetry) key off.
    Closing is idempotent, safe from ``atexit``, and guarded by creator
    pid: a manager inherited into a worker process closes *views* only and
    never unlinks the parent's segments.
    """

    def __init__(self, *, prefix: str = DEFAULT_PREFIX, sweep: bool = True):
        if not prefix or "-" in prefix or "/" in prefix:
            raise ShmError(
                f"invalid segment prefix {prefix!r} (no '-', no '/', non-empty)"
            )
        self.prefix = prefix
        self._pid = os.getpid()
        self._created: dict[str, shared_memory.SharedMemory] = {}
        self._handles: dict[str, SegmentHandle] = {}
        self._refcounts: dict[str, int] = {}
        self._closed = False
        if sweep:
            sweep_orphans(prefix)
        atexit.register(self.close)

    # ------------------------------------------------------------- publishing
    def segment_name(self, fingerprint: str) -> str:
        return f"{self.prefix}-{fingerprint}-{self._pid:x}"

    def publish_arrays(
        self,
        kind: str,
        arrays: dict[str, np.ndarray],
        meta: dict[str, Any],
        fingerprint: str,
    ) -> SegmentHandle:
        """Copy arrays into a named segment once; idempotent per fingerprint."""
        self._check_open()
        name = self.segment_name(fingerprint)
        existing = self._handles.get(name)
        if existing is not None:
            return existing
        arrays = {k: np.ascontiguousarray(v) for k, v in arrays.items()}
        header, offsets, total = _pack_header(kind, meta, arrays)
        payload = int(sum(a.nbytes for a in arrays.values()))
        try:
            shm = shared_memory.SharedMemory(name=name, create=True, size=total)
        except FileExistsError:
            # Another manager in this same process already published this
            # fingerprint; adopt its segment read-only (no double ownership).
            shm = open_segment(name)
            doc = read_header(shm)
            if doc.get("kind") != kind:
                raise ShmError(
                    f"segment {name} holds kind {doc.get('kind')!r}, "
                    f"expected {kind!r}"
                )
            handle = SegmentHandle(name, kind, fingerprint, payload)
            self._handles[name] = handle
            shm.close()
            return handle
        except OSError as exc:  # pragma: no cover - platform-specific
            raise ShmError(f"cannot create segment {name!r}: {exc}") from exc
        _write_segment(shm, header, offsets, arrays)
        handle = SegmentHandle(name, kind, fingerprint, payload)
        self._created[name] = shm
        self._handles[name] = handle
        tel = telemetry.get()
        if tel.enabled:
            reg = tel.registry
            reg.counter("shm.publishes").inc()
            reg.gauge("shm.segments").set(len(self._created))
            reg.gauge("shm.segment_bytes").set(
                sum(s.size for s in self._created.values())
            )
        return handle

    def publish_store(self, store, *, fingerprint: str | None = None) -> SegmentHandle:
        """Publish a flat store's arrays; returns the attachable handle.

        Only a :class:`~repro.sketch.store.FlatRRRStore` (or a view of one)
        publishes; decode a compressed store with its ``to_flat()`` first.
        """
        from repro.sketch.store import FlatRRRStore

        if not isinstance(store, FlatRRRStore):
            raise ShmError(f"cannot publish store type {type(store).__name__}")
        fp = fingerprint if fingerprint is not None else store.fingerprint()
        return self.publish_arrays(
            "flat-store",
            {"offsets": store.offsets, "vertices": store.vertices},
            {
                "num_vertices": int(store.num_vertices),
                "fingerprint": fp,
            },
            fp,
        )

    def publish_graph(self, graph, *, fingerprint: str | None = None) -> SegmentHandle:
        """Publish a CSR graph's arrays; returns the attachable handle."""
        from repro.graph.io import graph_fingerprint

        fp = fingerprint if fingerprint is not None else graph_fingerprint(graph)
        return self.publish_arrays(
            "csr-graph",
            {
                "indptr": graph.indptr,
                "indices": graph.indices,
                "probs": graph.probs,
            },
            {"num_vertices": int(graph.num_vertices), "fingerprint": fp},
            fp,
        )

    # -------------------------------------------------------------- attaching
    def handle_for(self, fingerprint: str, kind: str = "flat-store") -> SegmentHandle | None:
        """The handle of a published fingerprint, or ``None``."""
        for handle in self._handles.values():
            if handle.fingerprint == fingerprint and handle.kind == kind:
                return handle
        return None

    def has_store(self, fingerprint: str) -> bool:
        return self.handle_for(fingerprint, "flat-store") is not None

    def attach_store(self, handle_or_name):
        """Zero-copy :class:`~repro.shm.views.SharedFlatRRRStore` view."""
        from repro.shm.views import SharedFlatRRRStore

        return self._attach(handle_or_name, "flat-store", SharedFlatRRRStore)

    def attach_graph(self, handle_or_name):
        """Zero-copy :class:`~repro.shm.views.SharedCSRGraph` view."""
        from repro.shm.views import SharedCSRGraph

        return self._attach(handle_or_name, "csr-graph", SharedCSRGraph)

    def _attach(self, handle_or_name, kind: str, view_cls):
        self._check_open()
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
                f"segment {name} holds kind {header.get('kind')!r}, "
                f"expected {kind!r}"
            )
        view = view_cls(shm=shm, header=header, manager=self)
        self._refcounts[name] = self._refcounts.get(name, 0) + 1
        tel = telemetry.get()
        if tel.enabled:
            reg = tel.registry
            reg.counter("shm.attaches").inc()
            payload = int(
                sum(
                    int(np.prod(s["shape"])) * np.dtype(s["dtype"]).itemsize
                    for s in header["arrays"]
                )
            )
            reg.counter("shm.copy_avoided_bytes").inc(payload)
        return view

    def _release(self, name: str) -> None:
        """A view detached; drop its refcount (views call this)."""
        if self._refcounts.get(name, 0) > 0:
            self._refcounts[name] -= 1
        tel = telemetry.get()
        if tel.enabled:
            tel.registry.counter("shm.detaches").inc()

    def unlink(self, fingerprint: str) -> bool:
        """Unlink one segment this manager created; returns whether it
        existed.  Views still attached keep their mapping until detached."""
        name = self.segment_name(fingerprint)
        self._handles.pop(name, None)
        shm = self._created.pop(name, None)
        if shm is None:
            return False
        try:
            shm.close()
        except BufferError:  # a view still maps the buffer; unlink anyway
            pass
        shm.unlink()
        tel = telemetry.get()
        if tel.enabled:
            reg = tel.registry
            reg.counter("shm.unlinks").inc()
            reg.gauge("shm.segments").set(len(self._created))
            reg.gauge("shm.segment_bytes").set(
                sum(s.size for s in self._created.values())
            )
        return True

    # ------------------------------------------------------------ diagnostics
    def leaked(self) -> list[str]:
        """Segment names with views attached through this manager that were
        never detached (sorted)."""
        return sorted(n for n, c in self._refcounts.items() if c > 0)

    def segments(self) -> list[SegmentHandle]:
        """Handles of every segment this manager knows (created or adopted)."""
        return list(self._handles.values())

    # ---------------------------------------------------------------- cleanup
    def _check_open(self) -> None:
        if self._closed:
            raise ShmError("SegmentManager is closed")

    def close(self) -> None:
        """Unlink every created segment; idempotent (double-close is a no-op).

        In a process other than the creator (fork/spawn inheritance) only
        the bookkeeping is dropped — unlinking is the creator's job.
        """
        if self._closed:
            return
        self._closed = True
        try:
            atexit.unregister(self.close)
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
        leaked = self.leaked()
        tel = telemetry.get()
        if tel.enabled and leaked:
            tel.registry.counter("shm.leaked_views").inc(len(leaked))
        created, self._created = self._created, {}
        self._handles.clear()
        self._refcounts.clear()
        if os.getpid() != self._pid:
            return
        for shm in created.values():
            try:
                shm.close()
            except BufferError:  # a view still maps the buffer; unlink anyway
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already swept
                pass
        if tel.enabled:
            reg = tel.registry
            reg.counter("shm.unlinks").inc(len(created))
            reg.gauge("shm.segments").set(0)
            reg.gauge("shm.segment_bytes").set(0)

    def __enter__(self) -> "SegmentManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"{len(self._created)} segment(s)"
        return f"SegmentManager(prefix={self.prefix!r}, {state})"
