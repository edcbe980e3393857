"""RRR-sketch machinery: the store, the adaptive policy, compression, statistics.

Reverse-reachable (RRR) sets are the sketches IMM samples; how they are
*stored* is one of the paper's contributions (§IV-C "Adaptive RRRset
Representation") and the axis of the HBMax comparison in related work.

- :mod:`repro.sketch.store` — the flat CSR-style store every sampler fills
  and every selection kernel reads, built directly: ``FlatRRRStore(n)``,
  ``FlatRRRStore.from_arrays`` or a :mod:`repro.shm` attach;
- :mod:`repro.sketch.rrr` — the adaptive list/bitmap policy whose
  threshold prices each set's representation (memory model, build cost,
  membership probes);
- :mod:`repro.sketch.compress` — HBMax-style Huffman and delta-varint codecs
  used as the compression baseline ablation, and
  :mod:`repro.sketch.compressed_store`, the store of encoded sets they
  make (no other layer takes it: decode with ``to_flat()`` first);
- :mod:`repro.sketch.stats` — coverage statistics (Table I's columns).
"""

from repro.sketch.compressed_store import CompressedRRRStore
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.stats import CoverageStats, coverage_stats
from repro.sketch.store import FlatRRRStore, content_fingerprint

__all__ = [
    "AdaptivePolicy",
    "FlatRRRStore",
    "CompressedRRRStore",
    "content_fingerprint",
    "CoverageStats",
    "coverage_stats",
]
