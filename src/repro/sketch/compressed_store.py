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
from collections.abc import Sequence

import numpy as np

from repro import telemetry
from repro.errors import OutOfMemoryModelError, ParameterError
from repro.sketch.compress import DeltaVarintCodec, HuffmanCodec
from repro.sketch.store import FlatRRRStore
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
        Optional memory-model budget on :meth:`nbytes`: the compressed
        size, plus 4 bytes per vertex of each buffered training set.
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
        self._raw_bytes = 0  # 4 bytes per stored vertex, for compression_ratio
        self._bytes = 0
        self.encode_seconds = 0.0
        self.decode_seconds = 0.0

    # ---------------------------------------------------------------- write
    def append(self, vertices: np.ndarray) -> int:
        """Add one set; returns its index.

        A set the budget refuses raises :class:`OutOfMemoryModelError` and
        leaves the store as it was (the codec time spent is still charged).
        """
        arr = np.asarray(vertices, dtype=np.int32).ravel()
        if self._codec is None and len(self._pending) + 1 < self.training_sets:
            # Huffman: buffer, counted raw, until the codebook can be trained.
            self._check_budget(self.nbytes() + 4 * arr.size)
            self._pending.append(arr)
            self._record(arr)
        else:
            self._flush([arr])
        return len(self._sizes) - 1

    def extend(self, sets: Sequence[np.ndarray]) -> None:
        for s in sets:
            self.append(s)

    def _record(self, arr: np.ndarray) -> None:
        self._sizes.append(arr.size)
        self._raw_bytes += 4 * arr.size

    def _flush(self, new: list[np.ndarray]) -> None:
        """Encode the buffered sets and the ``new`` ones, training the
        Huffman codebook on them first if there is none, then store them;
        raise before storing anything if they would overrun the budget."""
        sets = self._pending + new
        codec = self._codec
        if codec is None:
            counts = np.zeros(self.num_vertices, dtype=np.int64)
            for s in sets:
                np.add.at(counts, s.astype(np.int64), 1)
            codec = HuffmanCodec(counts)
        total = self._bytes
        blobs = []
        for s in sets:
            t0 = time.perf_counter()
            blob = codec.encode(s)
            self.encode_seconds += time.perf_counter() - t0
            total += len(blob)
            self._check_budget(total)
            blobs.append(blob)
        self._codec, self._pending, self._bytes = codec, [], total
        self._blobs += blobs
        for s in new:
            self._record(s)
        tel = telemetry.get()
        if tel.enabled:
            # Event counter stays here; the cumulative codec gauges go
            # through the shared bridge like the other stores' stats.
            tel.registry.counter("sketch.compressed.sets").inc(len(blobs))
            record_codec_stats(tel.registry, self)

    def _check_budget(self, total: int) -> None:
        """Raise if a footprint of ``total`` bytes would overrun the budget."""
        if self.budget_bytes is not None and total > self.budget_bytes:
            raise OutOfMemoryModelError(
                total, self.budget_bytes, what="compressed RRR store"
            )

    def finalize(self) -> None:
        """Force codebook training and flush any buffered sets."""
        if self._codec is None:
            if not self._pending:
                raise ParameterError("cannot finalize an empty huffman store")
            self._flush([])

    # ----------------------------------------------------------------- read
    def __len__(self) -> int:
        return len(self._sizes)

    def get(self, i: int) -> np.ndarray:
        """Decode set ``i`` (sorted ``int32``); codec time is charged."""
        if self._codec is None:
            return np.sort(self._pending[i])
        t0 = time.perf_counter()
        out = self._codec.decode(self._blobs[i])
        self.decode_seconds += time.perf_counter() - t0
        tel = telemetry.get()
        if tel.enabled:
            record_codec_stats(tel.registry, self)
        return np.sort(out)

    def sizes(self) -> np.ndarray:
        return np.asarray(self._sizes, dtype=np.int64)

    def nbytes(self) -> int:
        """Compressed footprint (buffered training sets counted raw)."""
        return self._bytes + sum(4 * s.size for s in self._pending)

    @property
    def compression_ratio(self) -> float:
        """Raw-int32 bytes / compressed bytes (>1 means space saved)."""
        return self._raw_bytes / max(self.nbytes(), 1)

    def to_flat(self) -> FlatRRRStore:
        """Decode everything into a flat store (pays full decode cost) with
        one :meth:`FlatRRRStore.append_csr` call.  :meth:`get` sorts each
        decoded set, since Huffman blobs keep their input order."""
        self.finalize()
        sets = [self.get(i) for i in range(len(self))]
        flat = FlatRRRStore(self.num_vertices)
        flat.append_csr(np.concatenate(sets) if sets else [], self.sizes())
        return flat
