"""RRR-sketch machinery: the store, the adaptive policy, compression, statistics.

Reverse-reachable (RRR) sets are the sketches IMM samples; how they are
*stored* is one of the paper's contributions (§IV-C "Adaptive RRRset
Representation") and the axis of the HBMax comparison in related work.

- :mod:`repro.sketch.store` — the flat CSR-style store every sampler fills
  and every selection kernel reads;
- :mod:`repro.sketch.rrr` — the adaptive list/bitmap policy whose
  threshold prices each set's representation (memory model, build cost,
  membership probes);
- :mod:`repro.sketch.compress` — HBMax-style Huffman and delta-varint codecs
  used as the compression baseline ablation;
- :mod:`repro.sketch.stats` — coverage statistics (Table I's columns).
"""

from repro.sketch.compressed_store import CompressedRRRStore
from repro.sketch.protocol import (
    PROTOCOL_METHODS,
    STORE_EXTRAS,
    STORE_KINDS,
    RRRStore,
    make_store,
)
from repro.sketch.rrr import AdaptivePolicy
from repro.sketch.stats import CoverageStats, coverage_stats
from repro.sketch.store import FlatRRRStore, content_fingerprint

__all__ = [
    "AdaptivePolicy",
    "RRRStore",
    "make_store",
    "STORE_KINDS",
    "PROTOCOL_METHODS",
    "STORE_EXTRAS",
    "FlatRRRStore",
    "CompressedRRRStore",
    "content_fingerprint",
    "CoverageStats",
    "coverage_stats",
]
