"""HBMax-style compressed RRR store: the §VI comparison made runnable.

HBMax (Chen et al., PACT'22) attacks IMM's memory footprint by compressing
RRR sets; the paper's critique is that the codec overhead taxes every
access, which EfficientIMM's plain adaptive representations avoid.  This
store makes both sides of the trade-off measurable:

- sets are held as encoded byte blobs (``"huffman"`` over a codebook
  trained on the first sets' vertex frequencies — hub vertices get short
  codes — or ``"delta-varint"``);
- every :meth:`get` decodes (charged to ``decode_seconds``); every append
  encodes (charged to ``encode_seconds``);
- :meth:`nbytes` is the compressed footprint, comparable against
  :func:`repro.core.sampling.modelled_store_bytes` for the other designs.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence

import numpy as np

from repro import telemetry
from repro.errors import OutOfMemoryModelError, ParameterError
from repro.sketch.compress import DeltaVarintCodec, HuffmanCodec
from repro.sketch.store import FlatRRRStore, content_fingerprint
from repro.telemetry.bridge import record_codec_stats

__all__ = ["CompressedRRRStore"]


class CompressedRRRStore:
    """RRR sets stored as compressed blobs, with codec-time accounting.

    Parameters
    ----------
    codec:
        ``"huffman"`` or ``"delta-varint"``.
    training_sets:
        Number of initial sets buffered uncompressed to train the Huffman
        codebook (hub frequencies stabilise quickly); they are encoded
        retroactively once the codebook exists.  Ignored by delta-varint.
    budget_bytes:
        Optional memory-model budget, enforced on the *compressed* size.
    """

    def __init__(
        self,
        num_vertices: int,
        *,
        codec: str = "huffman",
        training_sets: int = 32,
        budget_bytes: int | None = None,
    ):
        if codec not in ("huffman", "delta-varint"):
            raise ParameterError(f"unknown codec {codec!r}")
        self.num_vertices = int(num_vertices)
        self.codec_name = codec
        self.training_sets = int(training_sets)
        self.budget_bytes = budget_bytes
        self._codec = DeltaVarintCodec() if codec == "delta-varint" else None
        self._pending: list[np.ndarray] = []  # pre-codebook buffer
        self._blobs: list[bytes] = []
        self._sizes: list[int] = []
        self._bytes = 0
        self.encode_seconds = 0.0
        self.decode_seconds = 0.0

    # ---------------------------------------------------------------- write
    def append(self, vertices: np.ndarray) -> int:
        arr = np.asarray(vertices, dtype=np.int32).ravel()
        self._sizes.append(arr.size)
        if self._codec is None:
            # Huffman: buffer until the codebook can be trained.
            self._pending.append(arr)
            if len(self._pending) >= self.training_sets:
                self._train_and_flush()
            return len(self._sizes) - 1
        self._encode_one(arr)
        return len(self._sizes) - 1

    def extend(self, sets: Sequence[np.ndarray]) -> None:
        for s in sets:
            self.append(s)

    def _train_and_flush(self) -> None:
        counts = np.zeros(self.num_vertices, dtype=np.int64)
        for s in self._pending:
            np.add.at(counts, s.astype(np.int64), 1)
        self._codec = HuffmanCodec(counts)
        pending, self._pending = self._pending, []
        for s in pending:
            self._encode_one(s)

    def _encode_one(self, arr: np.ndarray) -> None:
        t0 = time.perf_counter()
        blob = self._codec.encode(arr)  # type: ignore[union-attr]
        self.encode_seconds += time.perf_counter() - t0
        new_total = self._bytes + len(blob)
        if self.budget_bytes is not None and new_total > self.budget_bytes:
            raise OutOfMemoryModelError(
                new_total, self.budget_bytes, what="compressed RRR store"
            )
        self._blobs.append(blob)
        self._bytes = new_total
        tel = telemetry.get()
        if tel.enabled:
            # Event counter stays here; the cumulative codec gauges go
            # through the shared bridge like the other stores' stats.
            tel.registry.counter("sketch.compressed.sets").inc()
            record_codec_stats(tel.registry, self)

    def finalize(self) -> None:
        """Force codebook training and flush any buffered sets."""
        if self._codec is None:
            if not self._pending:
                raise ParameterError("cannot finalize an empty huffman store")
            self._train_and_flush()

    # ----------------------------------------------------------------- read
    def __len__(self) -> int:
        return len(self._sizes)

    def get(self, i: int) -> np.ndarray:
        """Decode set ``i`` (sorted ``int32``); codec time is charged."""
        if self._codec is None:
            if i >= len(self._blobs) + len(self._pending):
                raise IndexError(i)
            if i >= len(self._blobs):
                return np.sort(self._pending[i - len(self._blobs)])
        t0 = time.perf_counter()
        out = self._codec.decode(self._blobs[i])
        self.decode_seconds += time.perf_counter() - t0
        tel = telemetry.get()
        if tel.enabled:
            record_codec_stats(tel.registry, self)
        return np.sort(out)

    def __iter__(self) -> Iterator[np.ndarray]:
        for i in range(len(self)):
            yield self.get(i)

    def sizes(self) -> np.ndarray:
        return np.asarray(self._sizes, dtype=np.int64)

    def vertex_counts(self) -> np.ndarray:
        """Occurrences of each vertex across all sets (pays full decode)."""
        total = np.zeros(self.num_vertices, dtype=np.int64)
        for s in self:
            total += np.bincount(s, minlength=self.num_vertices)
        return total

    def sets_containing(self, v: int) -> np.ndarray:
        """Indices of sets containing ``v`` — a decode scan; this is
        exactly the per-access codec tax the §VI comparison charges."""
        v = np.int32(v)
        return np.asarray(
            [i for i in range(len(self)) if np.any(self.get(i) == v)],
            dtype=np.int64,
        )

    def replace_sets(
        self, indices: np.ndarray, new_sets: Sequence[np.ndarray]
    ) -> "CompressedRRRStore":
        """Decode everything, splice the replacements, re-encode through the
        normal append path (retraining the Huffman codebook on the new
        contents); returns ``self``.  O(total entries) in codec time — the
        compressed layout has no cheap in-place splice.
        """
        idx = np.asarray(indices, dtype=np.int64).ravel()
        if idx.size == 0:
            return self
        if np.any(np.diff(idx) <= 0):
            raise ParameterError("replace_sets indices must be strictly increasing")
        if idx[0] < 0 or idx[-1] >= len(self):
            raise ParameterError(
                f"replace_sets index out of range [0, {len(self)})"
            )
        if len(new_sets) != idx.size:
            raise ParameterError(
                f"got {idx.size} indices but {len(new_sets)} replacement sets"
            )
        sets = [self.get(i) for i in range(len(self))]
        for j, i in enumerate(idx.tolist()):
            sets[i] = np.asarray(new_sets[j], dtype=np.int32).ravel()
        self._codec = (
            DeltaVarintCodec() if self.codec_name == "delta-varint" else None
        )
        self._pending = []
        self._blobs = []
        self._sizes = []
        self._bytes = 0
        for s in sets:
            self.append(s)
        return self

    def trim(self) -> "CompressedRRRStore":
        """No-op (blobs carry no growth slack); returns ``self`` so protocol
        callers can chain it like the flat store's."""
        return self

    def nbytes(self) -> int:
        """Compressed footprint (buffered training sets counted raw)."""
        return self._bytes + sum(4 * s.size for s in self._pending)

    @property
    def compression_ratio(self) -> float:
        """Raw-int32 bytes / compressed bytes (>1 means space saved)."""
        raw = 4 * int(self.sizes().sum())
        return raw / max(self.nbytes(), 1)

    def fingerprint(self) -> str:
        """Layout-independent content hash over the *decoded* sets (equal to
        the fingerprint of :meth:`to_flat`'s result)."""
        sets = [self.get(i) for i in range(len(self))]
        return content_fingerprint(
            self.num_vertices,
            self.sizes(),
            np.concatenate(sets) if sets else np.empty(0, dtype=np.int32),
        )

    def to_flat(self) -> FlatRRRStore:
        """Decode everything into a flat store (pays full decode cost)."""
        self.finalize()
        flat = FlatRRRStore(self.num_vertices)
        for i in range(len(self)):
            flat.append(self.get(i))
        return flat
