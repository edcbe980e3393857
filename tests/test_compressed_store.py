"""Tests for the HBMax-style compressed RRR store."""

import numpy as np
import pytest

from repro.errors import OutOfMemoryModelError, ParameterError
from repro.sketch.compressed_store import CompressedRRRStore

from conftest import make_store


def random_sets(n, count, rng, lo=5, hi=60):
    return [
        rng.choice(n, size=rng.integers(lo, hi), replace=False)
        for _ in range(count)
    ]


class TestCompressedStore:
    def test_roundtrip_huffman(self, rng):
        n = 200
        sets = random_sets(n, 50, rng)
        store = CompressedRRRStore(n, codec="huffman", training_sets=8)
        for s in sets:
            store.append(s)
        store.finalize()
        for i, s in enumerate(sets):
            assert np.array_equal(store.get(i), np.sort(s).astype(np.int32))

    def test_roundtrip_varint(self, rng):
        n = 500
        sets = random_sets(n, 30, rng)
        store = CompressedRRRStore(n, codec="delta-varint")
        for s in sets:
            store.append(s)
        for i, s in enumerate(sets):
            assert np.array_equal(store.get(i), np.sort(s).astype(np.int32))

    def test_pending_sets_readable_before_training(self, rng):
        n = 100
        store = CompressedRRRStore(n, codec="huffman", training_sets=50)
        s = rng.choice(n, size=10, replace=False)
        store.append(s)
        assert np.array_equal(store.get(0), np.sort(s).astype(np.int32))

    def test_compression_saves_space_on_skewed_sets(self):
        # Hub-heavy sets (the actual RRR workload shape).
        rng = np.random.default_rng(0)
        n = 1000
        hubs = np.arange(20)
        sets = [
            np.unique(np.concatenate([
                hubs, rng.choice(n, size=30, replace=False)
            ]))
            for _ in range(60)
        ]
        store = CompressedRRRStore(n, codec="huffman", training_sets=16)
        for s in sets:
            store.append(s)
        store.finalize()
        assert store.compression_ratio > 1.0

    def test_codec_overhead_recorded(self, rng):
        n = 300
        store = CompressedRRRStore(n, codec="delta-varint")
        for s in random_sets(n, 20, rng):
            store.append(s)
        for i in range(20):
            store.get(i)
        # The paper's critique: compression pays real codec time.
        assert store.encode_seconds > 0.0
        assert store.decode_seconds > 0.0

    def test_budget_enforced_on_compressed_size(self, rng):
        n = 400
        store = CompressedRRRStore(
            n, codec="delta-varint", budget_bytes=200
        )
        with pytest.raises(OutOfMemoryModelError):
            for s in random_sets(n, 50, rng):
                store.append(s)

    @pytest.mark.parametrize(
        "codec, opts",
        [
            ("delta-varint", {"budget_bytes": 200}),
            ("huffman", {"budget_bytes": 150, "training_sets": 10}),
        ],
        ids=["delta-varint", "huffman"],
    )
    def test_refused_append_leaves_no_trace(self, codec, opts):
        n = 400
        rng = np.random.default_rng(3)
        sets = [rng.choice(n, size=30, replace=False) for _ in range(40)]
        store = CompressedRRRStore(n, codec=codec, **opts)
        appended = 0
        with pytest.raises(OutOfMemoryModelError):
            for s in sets:
                store.append(s)
                appended += 1
        assert len(store) == appended
        assert store.sizes().tolist() == [30] * appended
        for i in range(appended):
            assert np.array_equal(store.get(i), np.sort(sets[i]).astype(np.int32))

    @pytest.mark.parametrize("codec", ["huffman", "delta-varint"])
    def test_footprint_stays_within_budget(self, codec):
        # Buffered Huffman training sets count raw against the budget too:
        # 30-vertex sets take 120 bytes each before the codebook exists.
        n, budget = 400, 150
        rng = np.random.default_rng(3)
        store = CompressedRRRStore(
            n, codec=codec, training_sets=10, budget_bytes=budget
        )
        refused = 0
        for _ in range(12):
            before = (len(store), store.nbytes())
            try:
                store.append(rng.choice(n, size=30, replace=False))
            except OutOfMemoryModelError:
                refused += 1
                assert (len(store), store.nbytes()) == before
            assert store.nbytes() <= budget
        assert refused > 0 and len(store) > 0

    @pytest.mark.parametrize("codec", ["huffman", "delta-varint"])
    def test_codec_gauges_track_the_store(self, rng, codec):
        from repro import telemetry

        n = 300
        sets = random_sets(n, 40, rng)
        with telemetry.session() as tel:
            store = CompressedRRRStore(n, codec=codec, training_sets=8)
            store.extend(sets)
            store.get(5)
        snap = tel.registry.snapshot()
        raw = 4 * sum(len(s) for s in sets)
        assert snap["counters"]["sketch.compressed.sets"] == 40
        assert snap["gauges"]["sketch.compressed.bytes"] == store.nbytes()
        assert snap["gauges"]["sketch.compressed.ratio"] == raw / store.nbytes()
        assert store.compression_ratio == raw / store.nbytes()

    def test_to_flat(self, rng):
        n = 150
        sets = random_sets(n, 12, rng)
        store = CompressedRRRStore(n, codec="huffman", training_sets=4)
        for s in sets:
            store.append(s)
        flat = store.to_flat()
        assert len(flat) == 12
        assert np.array_equal(flat.get(3), np.sort(sets[3]).astype(np.int32))

    def test_sizes(self, rng):
        n = 100
        store = CompressedRRRStore(n, codec="delta-varint")
        store.append(np.arange(7))
        store.append(np.arange(3))
        assert store.sizes().tolist() == [7, 3]

    def test_rejects_unknown_codec(self):
        with pytest.raises(ParameterError):
            CompressedRRRStore(10, codec="zstd")

    def test_finalize_empty_rejected(self):
        with pytest.raises(ParameterError):
            CompressedRRRStore(10, codec="huffman").finalize()

    def test_selection_on_decoded_store_matches_plain(self, rng):
        # End-to-end: greedy over the compressed store's decode equals
        # greedy over the plain store.
        from repro.core.selection import efficient_select

        n = 120
        sets = random_sets(n, 40, rng)
        plain = make_store(n, sets)
        comp = CompressedRRRStore(n, codec="huffman", training_sets=10)
        for s in sets:
            comp.append(s)
        a = efficient_select(plain, 5)
        b = efficient_select(comp.to_flat(), 5)
        assert np.array_equal(a.seeds, b.seeds)
