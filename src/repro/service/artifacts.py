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

Sketch artifacts hold a :class:`~repro.sketch.store.FlatRRRStore`
(``kind: flat``), the one store every production path saves: the engine,
shard workers, sampling checkpoints and the incremental maintainer.  A
loaded store is bit-identical to the saved one, so it selects the same
seeds.  Any other ``kind`` is rejected as :class:`ArtifactError`.
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
from repro.sketch.store import FlatRRRStore

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


def save_store(
    store: FlatRRRStore,
    path: str | os.PathLike,
    *,
    fingerprint: str = "",
    counter: np.ndarray | None = None,
    meta: dict[str, Any] | None = None,
    compress: bool = True,
) -> Path:
    """Persist a flat RRR store (plus optional fused counter) as a
    checksummed ``.npz`` artifact; returns the written path.

    ``fingerprint`` and ``meta`` are stored verbatim and verified/exposed by
    :func:`load_store`; ``counter`` is the fused occurrence counter so a warm
    load can feed ``efficient_select(initial_counter=...)`` directly.
    ``compress=False`` trades disk size for write speed — rolling sampling
    checkpoints use it because they are rewritten after every batch and the
    zlib pass dominates the write cost; ``load_store`` reads both forms.
    """
    if not isinstance(store, FlatRRRStore):
        raise ArtifactError(f"cannot serialise store type {type(store).__name__}")
    arrays = {"offsets": store.offsets, "vertices": store.vertices}
    if counter is not None:
        arrays["counter"] = np.ascontiguousarray(counter, dtype=np.int64)
    doc = {
        "schema_version": SKETCH_SCHEMA_VERSION,
        "kind": "flat",
        "fingerprint": fingerprint,
        "num_vertices": int(store.num_vertices),
        "store_meta": {},
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


def load_store(
    path: str | os.PathLike,
    *,
    expect_fingerprint: str | None = None,
):
    """Load an artifact written by :func:`save_store`.

    Returns ``(store, counter, meta)`` where ``counter`` is ``None`` when the
    artifact was saved without one.  Raises :class:`ArtifactError` on a
    missing file, unknown schema, checksum mismatch, (when
    ``expect_fingerprint`` is given) a fingerprint mismatch, a header that
    is not a JSON object with an integer ``num_vertices >= 0``,
    ``kind: flat`` and an object ``meta``, or arrays no store holds
    (:meth:`FlatRRRStore.from_arrays`'s checks, and a counter whose length
    is not ``num_vertices``).
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
            if not isinstance(doc, dict):
                raise ArtifactError(f"{path}: artifact header is not an object")
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

    n = doc.get("num_vertices")
    if type(n) is not int or n < 0:
        raise ArtifactError(
            f"{path}: header num_vertices {n!r} is not an integer >= 0"
        )
    if doc.get("kind") != "flat":
        raise ArtifactError(f"{path}: unknown store kind {doc.get('kind')!r}")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise ArtifactError(f"{path}: header meta {meta!r} is not an object")
    counter = arrays.pop("counter", None)
    if counter is not None:
        if counter.shape != (n,):
            raise ArtifactError(f"{path}: counter shape {counter.shape} is not ({n},)")
        counter = counter.astype(np.int64, copy=False)
    try:
        store = FlatRRRStore.from_arrays(n, arrays["offsets"], arrays["vertices"])
    except KeyError as exc:
        raise ArtifactError(f"{path}: sketch artifact is missing array {exc}") from exc
    except ParameterError as exc:
        raise ArtifactError(f"{path}: malformed sketch ({exc})") from exc
    return store, counter, meta


def read_artifact_meta(path: str | os.PathLike) -> dict[str, Any] | None:
    """Header-only peek at an artifact's ``meta`` dict (no payload checks).

    Reads just the JSON header — cheap even for large sketches — and returns
    ``None`` instead of raising when the file is missing, unreadable, not
    a repro artifact, or its ``meta`` is not an object, so directory scans
    can skip junk silently.  The returned dict additionally carries the
    header's ``fingerprint`` under ``"_fingerprint"``.
    """
    path = Path(path)
    try:
        with np.load(path) as data:
            if "header" not in data.files:
                return None
            doc = json.loads(bytes(data["header"]).decode("utf-8"))
    except Exception:
        return None
    if not isinstance(doc, dict) or doc.get("schema_version") != SKETCH_SCHEMA_VERSION:
        return None
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        return None
    return {**meta, "_fingerprint": doc.get("fingerprint", "")}


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
