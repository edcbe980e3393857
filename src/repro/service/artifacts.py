"""Versioned ``.npz`` persistence for graphs and RRR-sketch stores.

Every artifact is keyed by a **content fingerprint** so a warm `repro
serve`/`repro query` process (or a later one) can skip sampling entirely:

- a *graph* fingerprint (:func:`repro.graph.io.graph_fingerprint`) hashes
  the CSR arrays;
- a *sketch* fingerprint (:func:`sketch_fingerprint`) combines the graph
  fingerprint with everything that determines the sampled sets: diffusion
  model, epsilon, RNG seed, and the sketch size.

Artifacts carry a schema version and a CRC-32 checksum over their payload
arrays; :func:`load_store` and :class:`ArtifactStore` verify both and raise
:class:`~repro.errors.ArtifactError` on any mismatch — a corrupt artifact is
reported (and treated as a cache miss by the engine), never silently served.

The store serializers cover all three RRR-store layouts
(:class:`~repro.sketch.store.FlatRRRStore`,
:class:`~repro.sketch.store.AdaptiveRRRStore`,
:class:`~repro.sketch.store.PartitionedRRRStore`): a loaded store is
selection-kernel-equivalent to the saved one (identical seeds out of
``efficient_select``/``ripples_select``).
"""

from __future__ import annotations

import hashlib
import json
import os
import zipfile
import zlib
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ArtifactError, ParameterError
from repro.graph.csr import CSRGraph
from repro.graph.io import graph_fingerprint, load_npz, save_npz
from repro.sketch.protocol import make_store
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.store import AdaptiveRRRStore, FlatRRRStore, PartitionedRRRStore

__all__ = [
    "SKETCH_SCHEMA_VERSION",
    "sketch_fingerprint",
    "save_store",
    "load_store",
    "read_artifact_meta",
    "ArtifactStore",
]

#: Version of the on-disk sketch artifact schema.
SKETCH_SCHEMA_VERSION = 1


def sketch_fingerprint(
    graph_fp: str,
    model: str,
    epsilon: float,
    seed: int,
    num_sets: int,
) -> str:
    """Content key of one sketch: graph hash + model + epsilon + seed + size.

    The trailing ``:batched`` tag names the counter-keyed sampling stream
    (:mod:`repro.kernels`) the sketch was drawn from.  Sketches drawn from
    the retired sequential-``Generator`` stream were keyed without it, so
    their artifacts are never addressed — they hold different sets for
    the same parameters.
    """
    key = (
        f"{graph_fp}:{str(model).upper()}:{float(epsilon):.12g}:"
        f"{int(seed)}:{int(num_sets)}:batched"
    )
    return hashlib.sha256(key.encode("utf-8")).hexdigest()[:16]


# ----------------------------------------------------------------- internals
def _payload_checksum(arrays: dict[str, np.ndarray]) -> int:
    """CRC-32 over the payload arrays in sorted-key order."""
    crc = 0
    for key in sorted(arrays):
        crc = zlib.crc32(key.encode("utf-8"), crc)
        # memoryview avoids materialising a bytes copy of multi-MB payloads
        crc = zlib.crc32(memoryview(np.ascontiguousarray(arrays[key])), crc)
    return crc & 0xFFFFFFFF


def _flat_arrays(store: FlatRRRStore, prefix: str = "") -> dict[str, np.ndarray]:
    return {
        f"{prefix}offsets": store.offsets,
        f"{prefix}vertices": store.vertices,
    }


def _store_payload(store) -> tuple[str, dict[str, np.ndarray], dict[str, Any]]:
    """(kind, payload arrays, json-able meta) for any supported store."""
    if isinstance(store, FlatRRRStore):
        return "flat", _flat_arrays(store), {}
    if isinstance(store, PartitionedRRRStore):
        arrays: dict[str, np.ndarray] = {}
        for w, part in enumerate(store.parts):
            arrays.update(_flat_arrays(part, prefix=f"part{w}_"))
        return (
            "partitioned",
            arrays,
            {"num_workers": store.num_workers},
        )
    if isinstance(store, AdaptiveRRRStore):
        # Adaptive sets are persisted in the flat layout (each set's sorted
        # vertices); the policy/budget metadata rebuilds the per-set
        # representations on load.
        flat = store.to_flat()
        meta: dict[str, Any] = {
            "policy_bitmap_fraction": (
                store.policy.bitmap_fraction if store.policy is not None else None
            ),
            "budget_bytes": store.budget_bytes,
        }
        return "adaptive", _flat_arrays(flat), meta
    raise ArtifactError(f"cannot serialise store type {type(store).__name__}")


def save_store(
    store,
    path: str | os.PathLike,
    *,
    fingerprint: str = "",
    counter: np.ndarray | None = None,
    meta: dict[str, Any] | None = None,
    compress: bool = True,
) -> Path:
    """Persist any RRR store (plus optional fused counter) as a checksummed
    ``.npz`` artifact; returns the written path.

    ``fingerprint`` and ``meta`` are stored verbatim and verified/exposed by
    :func:`load_store`; ``counter`` is the fused occurrence counter so a warm
    load can feed ``efficient_select(initial_counter=...)`` directly.
    ``compress=False`` trades disk size for write speed — rolling sampling
    checkpoints use it because they are rewritten after every batch and the
    zlib pass dominates the write cost; ``load_store`` reads both forms.
    """
    kind, arrays, store_meta = _store_payload(store)
    if counter is not None:
        arrays = {**arrays, "counter": np.ascontiguousarray(counter, dtype=np.int64)}
    doc = {
        "schema_version": SKETCH_SCHEMA_VERSION,
        "kind": kind,
        "fingerprint": fingerprint,
        "num_vertices": int(store.num_vertices),
        "store_meta": store_meta,
        "meta": dict(meta or {}),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    writer = np.savez_compressed if compress else np.savez
    writer(
        path,
        header=np.frombuffer(
            json.dumps(doc, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        checksum=np.uint32(_payload_checksum(arrays)),
        **arrays,
    )
    return path


def _rebuild_flat(
    path: Path, num_vertices: int, arrays: dict[str, np.ndarray], prefix: str
) -> FlatRRRStore:
    try:
        offsets = arrays[f"{prefix}offsets"]
        vertices = arrays[f"{prefix}vertices"]
    except KeyError as exc:
        raise ArtifactError(f"sketch artifact is missing array {exc}") from exc
    try:
        return FlatRRRStore.from_arrays(num_vertices, offsets, vertices)
    except ParameterError as exc:
        raise ArtifactError(f"{path}: malformed sketch ({exc})") from exc


def load_store(
    path: str | os.PathLike,
    *,
    expect_fingerprint: str | None = None,
):
    """Load an artifact written by :func:`save_store`.

    Returns ``(store, counter, meta)`` where ``counter`` is ``None`` when the
    artifact was saved without one.  Raises :class:`ArtifactError` on a
    missing file, unknown schema, checksum mismatch, (when
    ``expect_fingerprint`` is given) a fingerprint mismatch, or arrays no
    store holds (:meth:`FlatRRRStore.from_arrays`'s checks, and a counter
    whose length is not ``num_vertices``).
    """
    path = Path(path)
    if not path.exists():
        raise ArtifactError(f"{path}: sketch artifact not found")
    try:
        with np.load(path) as data:
            files = set(data.files)
            if "header" not in files or "checksum" not in files:
                raise ArtifactError(f"{path}: not a repro sketch artifact")
            try:
                doc = json.loads(bytes(data["header"]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ArtifactError(f"{path}: corrupt artifact header") from exc
            arrays = {
                k: data[k] for k in files if k not in ("header", "checksum")
            }
            stored_crc = int(data["checksum"])
    except (zlib.error, zipfile.BadZipFile, ValueError, OSError) as exc:
        raise ArtifactError(f"{path}: corrupt artifact archive ({exc})") from exc

    if doc.get("schema_version") != SKETCH_SCHEMA_VERSION:
        raise ArtifactError(
            f"{path}: unsupported sketch schema version {doc.get('schema_version')!r}"
        )
    actual_crc = _payload_checksum(arrays)
    if actual_crc != stored_crc:
        raise ArtifactError(
            f"{path}: checksum mismatch (stored {stored_crc:#010x}, computed "
            f"{actual_crc:#010x}); the artifact is corrupt"
        )
    if expect_fingerprint is not None and doc.get("fingerprint") != expect_fingerprint:
        raise ArtifactError(
            f"{path}: fingerprint mismatch (artifact "
            f"{doc.get('fingerprint')!r}, expected {expect_fingerprint!r})"
        )

    n = int(doc["num_vertices"])
    counter = arrays.pop("counter", None)
    if counter is not None:
        if counter.shape != (n,):
            raise ArtifactError(f"{path}: counter shape {counter.shape} is not ({n},)")
        counter = counter.astype(np.int64, copy=False)
    kind = doc.get("kind")
    store_meta = doc.get("store_meta", {})
    if kind == "flat":
        store = _rebuild_flat(path, n, arrays, "")
    elif kind == "partitioned":
        num_workers = int(store_meta["num_workers"])
        store = make_store("partitioned", num_vertices=n, num_workers=num_workers)
        store.parts = [
            _rebuild_flat(path, n, arrays, f"part{w}_") for w in range(num_workers)
        ]
    elif kind == "adaptive":
        frac = store_meta.get("policy_bitmap_fraction")
        policy = AdaptivePolicy(frac) if frac is not None else None
        store = make_store("adaptive", num_vertices=n, policy=policy, budget_bytes=None)
        flat = _rebuild_flat(path, n, arrays, "")
        for s in flat:
            store.append(s)
        # Restore the budget only after re-appending: the saved contents by
        # construction fit it, so reloading must not re-raise OOM.
        store.budget_bytes = store_meta.get("budget_bytes")
    else:
        raise ArtifactError(f"{path}: unknown store kind {kind!r}")
    return store, counter, doc.get("meta", {})


def read_artifact_meta(path: str | os.PathLike) -> dict[str, Any] | None:
    """Header-only peek at an artifact's ``meta`` dict (no payload checks).

    Reads just the JSON header — cheap even for large sketches — and returns
    ``None`` instead of raising when the file is missing, unreadable, or not
    a repro artifact, so directory scans can skip junk silently.  The
    returned dict additionally carries the header's ``fingerprint`` under
    ``"_fingerprint"``.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            if "header" not in data.files:
                return None
            doc = json.loads(bytes(data["header"]).decode("utf-8"))
    except Exception:
        return None
    if doc.get("schema_version") != SKETCH_SCHEMA_VERSION:
        return None
    meta = dict(doc.get("meta", {}))
    meta["_fingerprint"] = doc.get("fingerprint", "")
    return meta


class ArtifactStore:
    """A directory of fingerprint-keyed graph and sketch artifacts.

    Layout: ``<root>/graph-<gfp>.npz`` (CSR arrays, written through
    :func:`repro.graph.io.save_npz`) and ``<root>/sketch-<fp>.npz``
    (:func:`save_store` payloads).  All loads are integrity-checked; the
    engine treats :class:`ArtifactError` as a cache miss and falls back to
    cold sampling.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    # ----------------------------------------------------------------- paths
    def sketch_path(self, fingerprint: str) -> Path:
        return self.root / f"sketch-{fingerprint}.npz"

    def graph_path(self, graph_fp: str) -> Path:
        return self.root / f"graph-{graph_fp}.npz"

    def has_sketch(self, fingerprint: str) -> bool:
        return self.sketch_path(fingerprint).exists()

    def list_sketches(self) -> list[str]:
        """Fingerprints of every sketch artifact present, sorted."""
        return sorted(
            p.stem.removeprefix("sketch-")
            for p in self.root.glob("sketch-*.npz")
        )

    def newest_sketch(
        self, *, dataset: str | None = None, model: str | None = None
    ) -> str | None:
        """Fingerprint of the freshest sketch matching the filters, or ``None``.

        Scans sketch artifacts newest-first (by mtime) reading only their
        headers; ``dataset``/``model`` match the meta the engine persists
        with every sketch.  This is the graceful-degradation lookup
        (docs/resilience.md): when cold sampling fails, the engine serves
        the freshest *compatible* stale sketch rather than erroring.
        """
        candidates = sorted(
            self.root.glob("sketch-*.npz"),
            key=lambda p: p.stat().st_mtime,
            reverse=True,
        )
        for path in candidates:
            meta = read_artifact_meta(path)
            if meta is None:
                continue
            if dataset is not None and str(meta.get("dataset", "")).lower() != dataset.lower():
                continue
            if model is not None and str(meta.get("model", "")).upper() != model.upper():
                continue
            return path.stem.removeprefix("sketch-")
        return None

    # ----------------------------------------------------------------- graphs
    def save_graph(self, graph: CSRGraph) -> str:
        """Persist a graph under its own fingerprint; returns the fingerprint."""
        gfp = graph_fingerprint(graph)
        path = self.graph_path(gfp)
        if not path.exists():
            save_npz(graph, path)
        return gfp

    def load_graph(self, graph_fp: str) -> CSRGraph:
        path = self.graph_path(graph_fp)
        if not path.exists():
            raise ArtifactError(f"{path}: graph artifact not found")
        return load_npz(path)

    # ---------------------------------------------------------------- sketches
    def save_sketch(
        self,
        fingerprint: str,
        store,
        *,
        counter: np.ndarray | None = None,
        meta: dict[str, Any] | None = None,
    ) -> Path:
        return save_store(
            store,
            self.sketch_path(fingerprint),
            fingerprint=fingerprint,
            counter=counter,
            meta=meta,
        )

    def load_sketch(self, fingerprint: str):
        """(store, counter, meta) for a fingerprint; :class:`ArtifactError`
        when absent or corrupt."""
        return load_store(
            self.sketch_path(fingerprint), expect_fingerprint=fingerprint
        )

    def publish_sketch(self, fingerprint: str, manager):
        """Load a sketch once and publish it into shared memory.

        Returns ``(handle, counter, meta)`` where ``handle`` is the
        :class:`~repro.shm.SegmentHandle` any process on the host can
        attach (``make_store("shared", handle=...)``).  The segment is
        keyed by the *sketch* fingerprint, so repeated publishes of the
        same fingerprint through the same manager reuse the existing
        segment — the disk load and the copy into shared memory happen at
        most once; on the fast path (already published, and the artifact
        carries no counter to re-read) the disk is not touched at all.
        Non-flat stores are flattened in global order, which preserves the
        selection answers and the content hash.
        """
        existing = manager.handle_for(fingerprint)
        path = self.sketch_path(fingerprint)
        if existing is not None:
            meta = read_artifact_meta(path) or {}
            meta.pop("_fingerprint", None)
            # The counter is payload, not header; re-read just that array.
            counter = None
            try:
                with np.load(path) as data:
                    if "counter" in data.files:
                        counter = data["counter"].astype(np.int64, copy=False)
            except Exception:
                counter = None
            return existing, counter, meta
        store, counter, meta = self.load_sketch(fingerprint)
        if isinstance(store, PartitionedRRRStore):
            store = store.merge()
        elif not isinstance(store, FlatRRRStore):
            store = store.to_flat()
        handle = manager.publish_store(store.trim(), fingerprint=fingerprint)
        return handle, counter, meta
