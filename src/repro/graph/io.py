"""Graph I/O: SNAP edge-list text files and a fast ``.npz`` binary format.

The SNAP reader accepts exactly what ``snap.stanford.edu`` ships: whitespace-
separated ``src dst [prob]`` lines, ``#``-prefixed comment lines, optional
gzip compression (by file suffix).  The binary format stores the three CSR
arrays directly so the dataset registry can cache generated replicas.
"""

from __future__ import annotations

import gzip
import hashlib
import io
import os
import zlib
from pathlib import Path
from typing import IO

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.builder import GraphBuilder
from repro.graph.csr import CSRGraph

__all__ = [
    "read_snap_edgelist",
    "write_snap_edgelist",
    "read_matrix_market",
    "write_matrix_market",
    "save_npz",
    "load_npz",
    "graph_checksum",
    "graph_fingerprint",
    "GRAPH_NPZ_VERSION",
]


def _open_text(path: str | os.PathLike, mode: str) -> IO[str]:
    p = Path(path)
    if p.suffix == ".gz":
        return io.TextIOWrapper(gzip.open(p, mode + "b"), encoding="utf-8")
    return open(p, mode, encoding="utf-8")


def read_snap_edgelist(
    path: str | os.PathLike,
    *,
    relabel: bool = True,
    make_undirected: bool = False,
    default_prob: float = 1.0,
) -> CSRGraph:
    """Parse a SNAP-style edge list into a canonical CSR graph.

    Lines are ``src dst`` or ``src dst prob``; ``#`` starts a comment.
    ``make_undirected`` mirrors every edge (for SNAP's undirected ``com-*``
    collections, which list each edge once).
    """
    srcs: list[int] = []
    dsts: list[int] = []
    probs: list[float] = []
    any_prob = False
    with _open_text(path, "r") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise GraphFormatError(
                    f"{path}:{lineno}: expected 'src dst [prob]', got {line!r}"
                )
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-integer vertex id in {line!r}"
                ) from exc
            p = default_prob
            if len(parts) == 3:
                try:
                    p = float(parts[2])
                except ValueError as exc:
                    raise GraphFormatError(
                        f"{path}:{lineno}: bad probability in {line!r}"
                    ) from exc
                any_prob = True
            srcs.append(u)
            dsts.append(v)
            probs.append(p)

    b = GraphBuilder(relabel=relabel, default_prob=default_prob)
    src = np.asarray(srcs, dtype=np.int64)
    dst = np.asarray(dsts, dtype=np.int64)
    pr = np.asarray(probs, dtype=np.float64) if any_prob else None
    b.add_edges(src, dst, pr)
    if make_undirected:
        b.add_edges(dst, src, pr)
    return b.build()


def write_snap_edgelist(
    graph: CSRGraph,
    path: str | os.PathLike,
    *,
    write_probs: bool = True,
    header: str | None = None,
) -> None:
    """Write the graph as a SNAP-style edge list (``.gz`` suffix compresses)."""
    src, dst, prob = graph.edge_array()
    with _open_text(path, "w") as fh:
        fh.write(f"# repro CSR graph n={graph.num_vertices} m={graph.num_edges}\n")
        if header:
            for line in header.splitlines():
                fh.write(f"# {line}\n")
        if write_probs:
            for u, v, p in zip(src.tolist(), dst.tolist(), prob.tolist()):
                fh.write(f"{u}\t{v}\t{p:.10g}\n")
        else:
            for u, v in zip(src.tolist(), dst.tolist()):
                fh.write(f"{u}\t{v}\n")


def read_matrix_market(
    path: str | os.PathLike,
    *,
    default_prob: float = 1.0,
) -> CSRGraph:
    """Parse a MatrixMarket coordinate file (the SuiteSparse/HPC format).

    Supports the ``matrix coordinate (real|pattern|integer) (general|
    symmetric)`` headers: ``pattern`` entries get ``default_prob``,
    ``symmetric`` files are expanded to both edge directions (as graph
    codes, Ripples included, consume them).  MatrixMarket ids are 1-based.
    """
    srcs: list[int] = []
    dsts: list[int] = []
    probs: list[float] = []
    with _open_text(path, "r") as fh:
        header = fh.readline().strip().lower()
        if not header.startswith("%%matrixmarket matrix coordinate"):
            raise GraphFormatError(
                f"{path}: not a MatrixMarket coordinate file ({header!r})"
            )
        parts = header.split()
        field = parts[3] if len(parts) > 3 else "real"
        symmetry = parts[4] if len(parts) > 4 else "general"
        if field not in ("real", "pattern", "integer"):
            raise GraphFormatError(f"{path}: unsupported field {field!r}")
        if symmetry not in ("general", "symmetric"):
            raise GraphFormatError(f"{path}: unsupported symmetry {symmetry!r}")

        dims: tuple[int, int, int] | None = None
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("%"):
                continue
            cols = line.split()
            if dims is None:
                if len(cols) != 3:
                    raise GraphFormatError(
                        f"{path}:{lineno}: bad size line {line!r}"
                    )
                dims = (int(cols[0]), int(cols[1]), int(cols[2]))
                if dims[0] != dims[1]:
                    raise GraphFormatError(
                        f"{path}: adjacency matrix must be square, "
                        f"got {dims[0]}x{dims[1]}"
                    )
                continue
            if len(cols) < 2:
                raise GraphFormatError(f"{path}:{lineno}: bad entry {line!r}")
            u, v = int(cols[0]) - 1, int(cols[1]) - 1
            p = default_prob if field == "pattern" or len(cols) < 3 else float(cols[2])
            srcs.append(u)
            dsts.append(v)
            probs.append(p)
            if symmetry == "symmetric" and u != v:
                srcs.append(v)
                dsts.append(u)
                probs.append(p)

    if dims is None:
        raise GraphFormatError(f"{path}: missing size line")
    b = GraphBuilder(relabel=False, default_prob=default_prob)
    b.add_edges(
        np.asarray(srcs, dtype=np.int64),
        np.asarray(dsts, dtype=np.int64),
        np.asarray(probs, dtype=np.float64),
    )
    return b.build(num_vertices=dims[0])


def write_matrix_market(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write the graph as ``matrix coordinate real general`` (1-based ids)."""
    src, dst, prob = graph.edge_array()
    with _open_text(path, "w") as fh:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        fh.write("% written by repro (EfficientIMM reproduction)\n")
        fh.write(
            f"{graph.num_vertices} {graph.num_vertices} {graph.num_edges}\n"
        )
        for u, v, p in zip(src.tolist(), dst.tolist(), prob.tolist()):
            fh.write(f"{u + 1} {v + 1} {p:.10g}\n")


#: Version of the on-disk ``.npz`` graph schema.  Version 2 adds the
#: CRC-32 ``checksum`` field; version-1 archives (no checksum) still load.
GRAPH_NPZ_VERSION = 2


def graph_checksum(graph: CSRGraph) -> int:
    """CRC-32 over the CSR arrays (the integrity check of the binary format)."""
    crc = zlib.crc32(np.int64(graph.num_vertices).tobytes())
    for arr in (graph.indptr, graph.indices, graph.probs):
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc & 0xFFFFFFFF


def graph_fingerprint(graph: CSRGraph) -> str:
    """Content hash of a graph (vertex count + CSR arrays), as a short hex
    string.  This is the ``graph`` component of the serving layer's artifact
    fingerprints (:mod:`repro.service`): two graphs share a fingerprint iff
    their topology and edge probabilities are bit-identical.

    The hash is cached on the graph, so a published epoch is hashed once
    however many engines install it.
    """
    if graph._fingerprint is None:
        h = hashlib.sha256()
        h.update(np.int64(graph.num_vertices).tobytes())
        for arr in (graph.indptr, graph.indices, graph.probs):
            h.update(np.ascontiguousarray(arr).tobytes())
        graph._fingerprint = h.hexdigest()[:16]
    return graph._fingerprint


def save_npz(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Persist the CSR arrays losslessly (compressed ``.npz``).

    The archive carries a schema version and a CRC-32 checksum so
    :func:`load_npz` can detect truncated or tampered artifacts instead of
    constructing a graph from corrupt arrays.
    """
    np.savez_compressed(
        Path(path),
        num_vertices=np.int64(graph.num_vertices),
        indptr=graph.indptr,
        indices=graph.indices,
        probs=graph.probs,
        format_version=np.int64(GRAPH_NPZ_VERSION),
        checksum=np.uint32(graph_checksum(graph)),
    )


def load_npz(path: str | os.PathLike) -> CSRGraph:
    """Load a graph written by :func:`save_npz`, verifying its checksum."""
    try:
        with np.load(Path(path)) as data:
            graph = CSRGraph(
                int(data["num_vertices"]),
                data["indptr"],
                data["indices"],
                data["probs"],
            )
            if "checksum" in data.files:
                expected = int(data["checksum"])
                actual = graph_checksum(graph)
                if actual != expected:
                    raise GraphFormatError(
                        f"{path}: checksum mismatch (stored {expected:#010x}, "
                        f"computed {actual:#010x}); the archive is corrupt"
                    )
            return graph
    except KeyError as exc:
        raise GraphFormatError(f"{path}: not a repro graph archive") from exc
