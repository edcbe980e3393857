"""Tests for repro.service: artifacts, cache, protocol, and the query engine.

Covers the serving-layer acceptance criteria: serialization round-trips for
the CSR graph and the flat RRR store (selection-equivalent after reload),
integrity checks on corrupted and malformed artifacts, LRU byte-budget
behaviour, fingerprint batching with prefix-consistent answers, deadline
timeouts that report instead of hang, and warm queries that skip sampling
entirely (telemetry-verified).
"""

from __future__ import annotations

import gc
import io
import json
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

from repro import telemetry
from repro.core.selection import efficient_select
from repro.errors import ArtifactError, GraphFormatError, ParameterError
from repro.graph.io import graph_checksum, graph_fingerprint, load_npz, save_npz
from repro.runtime.backends import MultiprocessBackend
from repro.sketch import CompressedRRRStore, FlatRRRStore
from repro.service import (
    ArtifactStore,
    CacheEntry,
    EngineConfig,
    IMQuery,
    IMResponse,
    QueryEngine,
    SketchCache,
    SketchSpec,
    load_store,
    parse_request_line,
    read_artifact_meta,
    save_store,
    sketch_fingerprint,
)
from repro.service import front as front_module

from conftest import make_store

THETA = 120  # serving sketch size used throughout (small => fast cold path)


def _random_sets(n, count, seed=0, max_size=12):
    rng = np.random.default_rng(seed)
    return [
        rng.choice(n, size=rng.integers(1, max_size), replace=False)
        for _ in range(count)
    ]


def _flat_store(n=40, count=30, seed=0) -> FlatRRRStore:
    return make_store(n, _random_sets(n, count, seed))


def _spans(tel, name):
    return [s for root in tel.tracer.roots for s in root.find(name)]


def _resign(path, header=None, **arrays):
    """Rewrite a sketch artifact with some payload arrays (and optionally
    the header document) replaced, under a correct checksum, so only the
    new contents can make it invalid.  An array given as ``None`` is
    dropped."""
    from repro.service.artifacts import _payload_checksum

    with np.load(path) as data:
        payload = {k: data[k].copy() for k in data.files}
    payload.update(arrays)
    payload = {k: v for k, v in payload.items() if v is not None}
    if header is not None:
        payload["header"] = np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        )
    body = {k: v for k, v in payload.items() if k not in ("header", "checksum")}
    payload["checksum"] = np.uint32(_payload_checksum(body))
    np.savez_compressed(path, **payload)


def _header(path):
    with np.load(path) as data:
        return json.loads(bytes(data["header"]).decode("utf-8"))


def _malformed(kind, header, offsets, vertices, counter):
    """``_resign`` arguments that break one rule of a valid sketch: a
    duplicated vertex, a set out of order, an id past ``num_vertices``, a
    short counter, a header that is no object, has no integer
    ``num_vertices >= 0`` or a ``meta`` that is no object, or a retired
    store kind laid out as it was saved (``partitioned``: per-worker
    arrays; ``adaptive``: the flat arrays)."""
    if kind == "header_list":
        return {"header": [header]}
    if kind in NON_OBJECT_META:
        return {"header": {**header, "meta": NON_OBJECT_META[kind]}}
    if kind == "no_num_vertices":
        return {"header": {k: v for k, v in header.items() if k != "num_vertices"}}
    if kind == "num_vertices_text":
        return {"header": {**header, "num_vertices": "x"}}
    if kind == "num_vertices_negative":
        return {"header": {**header, "num_vertices": -1}}
    if kind == "partitioned":
        return {
            "header": {
                **header, "kind": "partitioned", "store_meta": {"num_workers": 2},
            },
            "offsets": None, "vertices": None,
            "part0_offsets": offsets, "part0_vertices": vertices,
            "part1_offsets": np.zeros(1, dtype=np.int64),
            "part1_vertices": np.empty(0, dtype=np.int32),
        }
    if kind == "adaptive":
        return {"header": {
            **header, "kind": "adaptive",
            "store_meta": {"policy_bitmap_fraction": 1 / 32, "budget_bytes": None},
        }}
    vertices = vertices.copy()
    i = int(np.flatnonzero(np.diff(offsets) >= 2)[0])  # a set of 2+ entries
    lo = int(offsets[i])
    if kind == "duplicate":
        vertices[lo + 1] = vertices[lo]
    elif kind == "unsorted":
        vertices[[lo, lo + 1]] = vertices[[lo + 1, lo]]
    elif kind == "out_of_range":
        vertices[-1] = header["num_vertices"]  # still the last set's largest
    else:
        return {"counter": counter[:-1]}
    return {"vertices": vertices}


#: Header ``meta`` values that are no JSON object.
NON_OBJECT_META = {"meta_text": "ab", "meta_list": [1, 2], "meta_number": 5}

MALFORMED = {
    "duplicate": "strictly ascending",
    "unsorted": "strictly ascending",
    "out_of_range": "must lie in",
    "short_counter": "counter shape",
    "header_list": "header is not an object",
    "no_num_vertices": "num_vertices None is not an integer",
    "num_vertices_text": "num_vertices 'x' is not an integer",
    "num_vertices_negative": "num_vertices -1 is not an integer >= 0",
    "partitioned": "unknown store kind 'partitioned'",
    "adaptive": "unknown store kind 'adaptive'",
    "meta_text": "header meta 'ab' is not an object",
    "meta_list": r"header meta \[1, 2\] is not an object",
    "meta_number": "header meta 5 is not an object",
}


# --------------------------------------------------------------------- graphs
class TestGraphArtifacts:
    def test_npz_roundtrip(self, diamond_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(diamond_graph, path)
        g2 = load_npz(path)
        assert np.array_equal(g2.indptr, diamond_graph.indptr)
        assert np.array_equal(g2.indices, diamond_graph.indices)
        assert np.array_equal(g2.probs, diamond_graph.probs)
        assert graph_fingerprint(g2) == graph_fingerprint(diamond_graph)

    def test_checksum_detects_tampering(self, diamond_graph, tmp_path):
        path = tmp_path / "g.npz"
        save_npz(diamond_graph, path)
        with np.load(path) as data:
            payload = {k: data[k].copy() for k in data.files}
        payload["probs"][0] -= 0.125  # still a valid prob; checksum now lies
        np.savez_compressed(path, **payload)
        with pytest.raises(GraphFormatError, match="checksum"):
            load_npz(path)

    def test_fingerprint_tracks_content(self, diamond_graph, line_graph):
        assert graph_fingerprint(diamond_graph) == graph_fingerprint(diamond_graph)
        assert graph_fingerprint(diamond_graph) != graph_fingerprint(line_graph)
        assert graph_checksum(diamond_graph) != graph_checksum(line_graph)


# ------------------------------------------------------------- sketch artifacts
class TestSketchArtifacts:
    def test_flat_roundtrip_bitwise(self, tmp_path):
        store = _flat_store()
        path = save_store(store, tmp_path / "s.npz", fingerprint="abc")
        loaded, counter, meta = load_store(path, expect_fingerprint="abc")
        assert counter is None and meta == {}
        assert isinstance(loaded, FlatRRRStore)
        assert np.array_equal(loaded.offsets, store.offsets)
        assert np.array_equal(loaded.vertices, store.vertices)

    @pytest.mark.parametrize("kind", ["flat", "shared"])
    def test_selection_identical_after_reload(self, tmp_path, kind):
        store = make_store(60, _random_sets(60, 50, seed=3))
        before = efficient_select(store, 5, 1)
        if kind == "shared":  # a zero-copy shm view saves like its source
            from repro import shm

            with shm.SegmentManager(prefix="tsv") as mgr:
                view = mgr.attach_store(mgr.publish_store(store))
                path = save_store(view, tmp_path / "s.npz")
                view.detach()
        else:
            path = save_store(store, tmp_path / "s.npz")
        loaded, _, _ = load_store(path)
        assert isinstance(loaded, FlatRRRStore)
        after = efficient_select(loaded, 5, 1)
        assert after.seeds.tolist() == before.seeds.tolist()
        assert after.coverage_fraction == before.coverage_fraction

    def test_only_flat_stores_save(self, tmp_path):
        compressed = CompressedRRRStore(40)
        compressed.extend(_random_sets(40, 5))
        with pytest.raises(ArtifactError, match="CompressedRRRStore"):
            save_store(compressed, tmp_path / "c.npz")
        assert not (tmp_path / "c.npz").exists()

    def test_counter_and_meta_roundtrip(self, tmp_path):
        store = _flat_store()
        counter = store.vertex_counts()
        meta = {"dataset": "amazon", "epsilon": 0.5}
        path = save_store(store, tmp_path / "s.npz", counter=counter, meta=meta)
        _, counter2, meta2 = load_store(path)
        assert np.array_equal(counter2, counter)
        assert meta2 == meta

    def test_fingerprint_mismatch_raises(self, tmp_path):
        path = save_store(_flat_store(), tmp_path / "s.npz", fingerprint="right")
        with pytest.raises(ArtifactError, match="fingerprint mismatch"):
            load_store(path, expect_fingerprint="wrong")

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(ArtifactError, match="not found"):
            load_store(tmp_path / "nope.npz")

    def test_corrupted_payload_fails_integrity(self, tmp_path):
        path = save_store(_flat_store(), tmp_path / "s.npz")
        with np.load(path) as data:
            payload = {k: data[k].copy() for k in data.files}
        payload["vertices"][0] ^= 1  # bit-flip one entry, keep stale checksum
        np.savez_compressed(path, **payload)
        with pytest.raises(ArtifactError, match="checksum mismatch"):
            load_store(path)

    def test_truncated_archive_raises(self, tmp_path):
        path = save_store(_flat_store(), tmp_path / "s.npz")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(ArtifactError):
            load_store(path)

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_payload_rejected(self, tmp_path, kind):
        store = _flat_store()
        counter = store.vertex_counts()
        path = save_store(store, tmp_path / "s.npz", counter=counter)
        _resign(
            path,
            **_malformed(kind, _header(path), store.offsets, store.vertices, counter),
        )
        with pytest.raises(ArtifactError, match=MALFORMED[kind]) as exc:
            load_store(path)
        assert str(path) in str(exc.value)

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.arange(4))
        with pytest.raises(ArtifactError, match="not a repro sketch artifact"):
            load_store(path)

    def test_sketch_fingerprint_components(self):
        base = sketch_fingerprint("g", "IC", 0.5, 0, 100)
        assert base == sketch_fingerprint("g", "ic", 0.5, 0, 100)  # model case
        assert base != sketch_fingerprint("h", "IC", 0.5, 0, 100)
        assert base != sketch_fingerprint("g", "LT", 0.5, 0, 100)
        assert base != sketch_fingerprint("g", "IC", 0.4, 0, 100)
        assert base != sketch_fingerprint("g", "IC", 0.5, 1, 100)
        assert base != sketch_fingerprint("g", "IC", 0.5, 0, 101)

    @pytest.mark.parametrize("kind", sorted(NON_OBJECT_META))
    def test_scans_skip_a_non_object_meta(self, tmp_path, kind):
        """A header-only read of an artifact whose ``meta`` is no object
        returns ``None``, so the stale-sketch scan passes over it to the
        next match instead of raising."""
        art = ArtifactStore(tmp_path)
        meta = {"dataset": "amazon", "model": "IC"}
        good = art.save_sketch("good", _flat_store(), meta=meta)
        bad = art.save_sketch("bad", _flat_store(), meta=meta)
        os.utime(good, (1, 1))  # the bad artifact is the newest
        _resign(bad, header={**_header(bad), "meta": NON_OBJECT_META[kind]})
        assert read_artifact_meta(bad) is None
        assert read_artifact_meta(good) == {**meta, "_fingerprint": "good"}
        assert art.newest_sketch(dataset="amazon", model="IC") == "good"

    def test_artifact_store_directory(self, tmp_path):
        art = ArtifactStore(tmp_path / "arts")
        store = _flat_store()
        art.save_sketch("f00d", store)
        assert art.has_sketch("f00d") and not art.has_sketch("beef")
        loaded, _, _ = art.load_sketch("f00d")
        assert np.array_equal(loaded.vertices, store.vertices)

    def test_failed_rewrite_keeps_the_old_artifact(self, tmp_path, monkeypatch):
        """A rewrite whose writer fails mid-write leaves the artifact
        already on disk loadable, the stale scan still finding it, and no
        temp file behind."""
        art = ArtifactStore(tmp_path)
        good = _flat_store(seed=1)
        meta = {"dataset": "amazon", "model": "IC"}
        path = art.save_sketch("f00d", good, meta=meta)
        writer = np.savez_compressed

        def torn(file, **arrays):
            # Half an archive reaches the file, then the disk fills up.
            buf = io.BytesIO()
            writer(buf, **arrays)
            half = buf.getvalue()[: buf.tell() // 2]
            if hasattr(file, "write"):
                file.write(half)
            else:
                with open(file, "wb") as fh:
                    fh.write(half)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(np, "savez_compressed", torn)
        with pytest.raises(OSError, match="No space left"):
            art.save_sketch("f00d", _flat_store(seed=2), meta=meta)
        monkeypatch.undo()
        loaded, _, _ = art.load_sketch("f00d")
        assert np.array_equal(loaded.offsets, good.offsets)
        assert np.array_equal(loaded.vertices, good.vertices)
        assert art.newest_sketch(dataset="amazon", model="IC") == "f00d"
        assert sorted(tmp_path.iterdir()) == [path]

    def test_overlapping_rewrites_each_land_whole(self, tmp_path, monkeypatch):
        """Two writers of one artifact at once (the second, a nested save
        under another pid, stands in for another process) each rename a
        whole archive of their own: the last rename wins and nothing is
        left behind."""
        first, second = _flat_store(seed=1), _flat_store(seed=2)
        path = tmp_path / "sketch-f00d.npz"
        writer = np.savez_compressed

        def overlapped(file, **arrays):
            monkeypatch.setattr(np, "savez_compressed", writer)
            with monkeypatch.context() as m:
                m.setattr(os, "getpid", lambda: 0)
                save_store(second, path)
            writer(file, **arrays)

        monkeypatch.setattr(np, "savez_compressed", overlapped)
        save_store(first, path)
        loaded, _, _ = load_store(path)
        assert np.array_equal(loaded.vertices, first.vertices)
        assert sorted(tmp_path.iterdir()) == [path]


# --------------------------------------------------------------- sketch specs
#: (dataset, model, epsilon, seed, num_sets) pinned for the spec tests.
SPEC_INPUTS = [
    ("amazon", "IC", 0.5, 0, 300),
    ("amazon", "LT", 0.3, 7, 3000),
    ("synth", "IC", 0.25, 3, 1),
]


class TestSketchSpec:
    @pytest.mark.parametrize("fields", SPEC_INPUTS)
    def test_fingerprint_is_sketch_fingerprint(self, fields):
        _, model, epsilon, seed, num_sets = fields
        spec = SketchSpec(*fields)
        for gfp in ("6fb6b04ca983e2c8", "g"):
            assert spec.fingerprint(gfp) == sketch_fingerprint(
                gfp, model, epsilon, seed, num_sets
            )

    def test_every_sketch_is_keyed_by_sketch_fingerprint(self):
        """The engine's cache, a dynamic service's epoch, a cluster build
        and every replica's slice are keyed from ``sketch_fingerprint`` of
        the same pinned parameters."""
        from test_shard import small_graph

        from repro.dynamic import DynamicService
        from repro.shard import ShardCluster, ShardPlan, shard_fingerprint

        g = small_graph()
        fp = sketch_fingerprint(graph_fingerprint(g), "IC", 0.5, 3, THETA)
        q = IMQuery("synth", k=3, seed=3, theta_cap=THETA)
        with QueryEngine() as eng:
            eng.install_graph("synth", g)
            assert eng.query(q).ok and fp in eng.cache
        with DynamicService("synth", g, num_sets=THETA, seed=3) as svc:
            assert svc.current_fingerprint() == fp
        plan = ShardPlan(num_shards=2)
        slices = [shard_fingerprint(fp, s, plan) for s in range(2)]
        with ShardCluster(plan) as built, ShardCluster(plan) as routed:
            built.install_graph("synth", g)
            summary = built.build(SketchSpec.from_query(q, THETA))
            assert summary["fingerprint"] == fp
            assert [s["shard_fingerprint"] for s in summary["shards"]] == slices
            routed.install_graph("synth", g)
            assert routed.query(q).ok
            assert [
                sub_fp in w.engine.cache
                for w, sub_fp in zip(routed.workers, slices)
            ] == [True, True]

    @pytest.mark.parametrize("fields", SPEC_INPUTS)
    def test_meta_round_trips(self, tmp_path, fields):
        """A spec survives its meta, also through an artifact header; the
        spec's fields win over the extra keys, which are kept."""
        spec = SketchSpec(*fields)
        meta = spec.meta(shard=1, num_shards=2, model="XX", epoch=4)
        assert meta["model"] == spec.model
        assert (meta["shard"], meta["num_shards"], meta["epoch"]) == (1, 2, 4)
        assert SketchSpec.from_meta(spec.dataset, meta, 0) == spec
        path = save_store(_flat_store(), tmp_path / "s.npz", meta=meta)
        on_disk = read_artifact_meta(path)
        assert SketchSpec.from_meta(spec.dataset, on_disk, 0) == spec

    @pytest.mark.parametrize("fields", SPEC_INPUTS)
    def test_query_is_pinned_to_the_spec(self, fields):
        spec = SketchSpec(*fields)
        q = spec.query(5, deadline_s=1.0, id="x")
        q.validate()
        assert (q.k, q.deadline_s, q.id) == (5, 1.0, "x")
        assert SketchSpec.from_query(q, default_theta=1) == spec


# ---------------------------------------------------------------------- cache
def _entry(n=40, count=20, seed=0) -> CacheEntry:
    store = _flat_store(n, count, seed).trim()
    return CacheEntry(store=store, counter=store.vertex_counts())


class TestSketchCache:
    def test_hit_miss_counting(self):
        cache = SketchCache(None)
        assert cache.get("a") is None
        e = _entry()
        assert cache.put("a", e)
        assert cache.get("a") is e
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_order(self):
        e = _entry()
        cache = SketchCache(e.nbytes() * 2)
        cache.put("a", _entry(seed=1))
        cache.put("b", _entry(seed=2))
        cache.get("a")  # refresh a => b is now LRU
        cache.put("c", _entry(seed=3))
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1

    def test_byte_accounting(self):
        cache = SketchCache(None)
        e1, e2 = _entry(seed=1), _entry(seed=2, count=30)
        cache.put("a", e1)
        cache.put("b", e2)
        assert cache.current_bytes() == e1.nbytes() + e2.nbytes()
        cache.evict("a")
        assert cache.current_bytes() == e2.nbytes()
        assert len(cache) == 1

    def test_oversized_entry_rejected_not_raised(self):
        cache = SketchCache(8)  # smaller than any real entry
        assert cache.put("a", _entry()) is False
        assert cache.stats.rejected == 1 and len(cache) == 0

    def test_refresh_same_key_no_double_charge(self):
        cache = SketchCache(None)
        e1, e2 = _entry(seed=1), _entry(seed=2)
        cache.put("a", e1)
        cache.put("a", e2)
        assert cache.current_bytes() == e2.nbytes()
        assert len(cache) == 1

    def test_evicted_entry_still_usable_by_holder(self):
        e = _entry()
        cache = SketchCache(e.nbytes())
        cache.put("a", e)
        held = cache.get("a")
        cache.put("b", _entry(seed=9))  # evicts "a"
        assert "a" not in cache
        # The caller's reference is untouched by eviction.
        sel = efficient_select(held.store, 3, 1, initial_counter=held.counter)
        assert len(sel.seeds) == 3


# ------------------------------------------------------------------- protocol
class TestProtocol:
    def test_from_dict_and_back(self):
        q = IMQuery.from_dict(
            {"dataset": "amazon", "k": 3, "epsilon": 0.4, "id": "q1"}
        )
        assert q.k == 3 and q.id == "q1" and q.model == "IC"
        assert q.to_dict()["dataset"] == "amazon"

    def test_unknown_field_rejected(self):
        with pytest.raises(ParameterError, match="unknown query field"):
            IMQuery.from_dict({"dataset": "amazon", "qqq": 1})

    def test_missing_dataset_rejected(self):
        with pytest.raises(ParameterError, match="dataset"):
            IMQuery.from_dict({"k": 3})

    @pytest.mark.parametrize(
        "bad",
        [
            {"k": 0},
            {"k": "ten"},
            {"epsilon": 0.0},
            {"epsilon": 7.0},
            {"model": "SIR"},
            {"theta_cap": 0},
            {"deadline_s": -1.0},
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ParameterError):
            IMQuery(dataset="amazon", **bad).validate()

    def test_spec_groups_on_sketch_identity(self):
        a = IMQuery(dataset="Amazon", k=5)
        b = IMQuery(dataset="amazon", k=50, deadline_s=1.0, id="x")
        c = IMQuery(dataset="amazon", k=5, epsilon=0.3)
        d = IMQuery(dataset="amazon", k=5, theta_cap=THETA)
        a, b, c, d = (SketchSpec.from_query(q, THETA) for q in (a, b, c, d))
        assert a == b == d
        assert a != c

    def test_parse_request_line_shapes(self):
        single = parse_request_line('{"dataset": "amazon"}')
        assert [q.dataset for q in single] == ["amazon"]
        batch = parse_request_line(
            '{"queries": [{"dataset": "amazon"}, {"dataset": "dblp", "k": 2}]}'
        )
        assert [q.dataset for q in batch] == ["amazon", "dblp"]
        arr = parse_request_line('[{"dataset": "amazon"}]')
        assert len(arr) == 1
        op = parse_request_line('{"op": "stats"}')
        assert op == {"op": "stats"}

    @pytest.mark.parametrize("line", ["not json", "[]", "42", '"hi"'])
    def test_parse_request_line_rejects(self, line):
        with pytest.raises(ParameterError):
            parse_request_line(line)

    def test_response_to_dict_ok_vs_error(self):
        ok = IMResponse(status="ok", seeds=[1, 2], num_rrrsets=10, cached=True)
        doc = ok.to_dict()
        assert doc["seeds"] == [1, 2] and doc["cached"] is True
        err = IMResponse(status="error", error="boom", id="q")
        doc = err.to_dict()
        assert doc["error"] == "boom" and "seeds" not in doc
        json.loads(err.to_json())  # serialisable


class TestProtocolHardening:
    """parse_request_line is the one untrusted-input door (stdin loops and
    the TCP gateway both go through it) — every malformed shape must come
    back as a structured ParameterError, never a bare exception."""

    def test_oversized_line_rejected(self):
        line = '{"dataset": "' + "x" * 300 + '"}'
        with pytest.raises(ParameterError, match="byte limit"):
            parse_request_line(line, max_line_bytes=256)
        with pytest.raises(ParameterError, match="byte limit"):
            parse_request_line(line.encode(), max_line_bytes=256)
        # The default bound is the documented module constant.
        from repro.service import MAX_LINE_BYTES

        assert MAX_LINE_BYTES == 1 << 20

    def test_bytes_lines_are_decoded(self):
        [q] = parse_request_line(b'{"dataset": "amazon", "k": 2}')
        assert q.dataset == "amazon" and q.k == 2

    def test_invalid_utf8_rejected(self):
        with pytest.raises(ParameterError, match="UTF-8"):
            parse_request_line(b'{"dataset": "\xff\xfe"}')

    def test_non_string_op_rejected(self):
        with pytest.raises(ParameterError, match="op must be a string"):
            parse_request_line('{"op": 42}')

    @pytest.mark.parametrize(
        "bad",
        [
            {"k": True},           # bool is not an int on the wire
            {"seed": 1.5},
            {"seed": True},
            {"epsilon": "half"},
            {"theta_cap": True},
            {"deadline_s": "soon"},
            {"id": 7},
            {"dataset": 3},
            {"deadline_s": "5"},   # a numeric string is still a string
            {"deadline_s": True},
            {"deadline_s": float("nan")},
            {"epsilon": "0.5"},
        ],
    )
    def test_wrong_typed_fields_rejected(self, bad):
        doc = {"dataset": "amazon", **bad}
        with pytest.raises(ParameterError):
            parse_request_line(json.dumps(doc))

    def test_response_from_dict_roundtrip(self):
        resp = IMResponse(
            status="overloaded", id="q9", error="overloaded: queue full",
            retry_after_s=0.5,
        )
        back = IMResponse.from_dict(json.loads(resp.to_json()))
        assert back.status == "overloaded"
        assert back.retry_after_s == 0.5 and back.id == "q9"

    def test_response_from_dict_needs_status(self):
        with pytest.raises(ParameterError):
            IMResponse.from_dict({"seeds": [1]})
        with pytest.raises(ParameterError):
            IMResponse.from_dict(["ok"])


# --------------------------------------------------------------------- engine
@pytest.fixture(scope="module")
def engine():
    with QueryEngine(config=EngineConfig(default_theta=THETA)) as eng:
        yield eng


def _q(dataset="amazon", **kw) -> IMQuery:
    kw.setdefault("theta_cap", THETA)
    return IMQuery(dataset=dataset, **kw)


class TestQueryEngine:
    def test_cold_then_warm_prefix_consistent(self, engine):
        cold = engine.query(_q(k=5))
        assert cold.ok and not cold.cached
        assert len(cold.seeds) == 5 and engine.stats.cold_samples == 1
        assert cold.num_rrrsets == THETA
        warm = engine.query(_q(k=9))
        assert warm.ok and warm.cached
        assert engine.stats.cold_samples == 1  # no resampling
        assert warm.seeds[:5] == cold.seeds  # greedy prefix consistency
        assert warm.coverage_fraction >= cold.coverage_fraction

    def test_batch_one_pass_many_k(self, engine):
        before = engine.stats.batches
        qs = [_q(k=k, id=f"k{k}") for k in (2, 7, 4)]
        rs = engine.execute(qs)
        assert engine.stats.batches == before + 1
        assert [r.id for r in rs] == ["k2", "k7", "k4"]  # submission order
        assert all(r.ok for r in rs)
        assert rs[1].seeds[:2] == rs[0].seeds
        assert rs[1].seeds[:4] == rs[2].seeds
        cov = {r.id: r.coverage_fraction for r in rs}
        assert cov["k2"] <= cov["k4"] <= cov["k7"]

    def test_spread_estimate_scales_coverage(self, engine):
        r = engine.query(_q(k=3))
        assert r.spread_estimate == pytest.approx(
            r.coverage_fraction * engine._graphs[("amazon", "IC", 0)].num_vertices
        )

    def test_graph_memo_is_bounded(self):
        """Queries naming more (dataset, model, seed) keys than
        ``MAX_GRAPHS`` keep only the most recently resolved graphs, and
        every answer, one over a graph resolved again included, equals a
        fresh engine's."""
        from repro.service.engine import MAX_GRAPHS

        seeds = range(MAX_GRAPHS + 2)
        queries = [_q("dblp", k=3, theta_cap=40, seed=s) for s in seeds]
        with QueryEngine(config=EngineConfig()) as eng:
            got = [eng.query(queries[0])]
            first = weakref.ref(eng._graphs[("dblp", "IC", 0)])
            gc.disable()  # a dropped graph is freed without the collector
            try:
                got += [eng.query(q) for q in queries[1:]]
                assert first() is None
            finally:
                gc.enable()
            eng.query(queries[2])  # the least recent kept key, refreshed
            got.append(eng.query(queries[0]))  # dropped, resolved again
            kept = {key[2] for key in eng._graphs}
        assert kept == {0, 2, *seeds[-(MAX_GRAPHS - 2):]}
        for q, resp in zip([*queries, queries[0]], got):
            with QueryEngine(config=EngineConfig()) as fresh:
                want = fresh.query(q)
            assert resp.ok and resp.seeds == want.seeds

    def test_expired_deadline_times_out_not_hangs(self, engine):
        r = engine.query(_q(k=5, deadline_s=0.0))
        assert r.status == "timeout" and not r.ok
        assert "TimeoutError" in r.error
        assert engine.stats.timeouts >= 1
        assert engine.query(_q(k=5)).ok  # engine unaffected

    def test_k_exceeding_vertices_is_clean_error(self, engine):
        r = engine.query(_q(k=10**9))
        assert r.status == "error"
        assert "ParameterError" in r.error and "exceeds" in r.error

    def test_invalid_query_does_not_poison_batch(self, engine):
        rs = engine.execute([_q(k=3, id="good"), _q(epsilon=9.0, id="bad")])
        by_id = {r.id: r for r in rs}
        assert by_id["good"].ok
        assert by_id["bad"].status == "error"
        assert "epsilon" in by_id["bad"].error

    def test_unknown_dataset_is_error_response(self, engine):
        r = engine.query(_q(dataset="atlantis"))
        assert r.status == "error" and "atlantis" in r.error

    def test_stats_snapshot_shape(self, engine):
        snap = engine.stats_snapshot()
        assert snap["service"]["queries"] == engine.stats.queries
        assert set(snap["cache"]) >= {"hits", "misses", "bytes", "hit_rate"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ParameterError, match="backend"):
            QueryEngine(config=EngineConfig(backend="gpu"))

    def test_query_engine_positional(self):
        with pytest.raises(TypeError):
            QueryEngine(EngineConfig(default_theta=300))

    def test_query_engine_positional_and_keyword_rejected(self):
        with pytest.raises(TypeError):
            QueryEngine(EngineConfig(), config=EngineConfig())

    def test_closed_serial_engine_samples_in_process(self, monkeypatch):
        """``close()`` must not turn a serial engine into one that forks a
        process pool for its next cold pass."""
        pools = []
        init = MultiprocessBackend.__init__

        def spy(backend, *args, **kwargs):
            pools.append(args)
            init(backend, *args, **kwargs)

        monkeypatch.setattr(MultiprocessBackend, "__init__", spy)
        eng = QueryEngine(config=EngineConfig(default_theta=THETA))
        assert eng.query(_q(k=3, theta_cap=200)).ok
        eng.close()
        after = eng.query(_q(k=3, theta_cap=250))
        assert after.ok and not after.cached
        assert eng.stats.cold_samples == 2
        assert pools == []


class TestEngineTelemetry:
    def test_warm_queries_skip_sampling(self):
        with telemetry.session() as tel:
            with QueryEngine(config=EngineConfig(default_theta=THETA)) as eng:
                eng.query(_q(k=4))
                cold_spans = len(_spans(tel, "sampling.parallel_generate"))
                assert cold_spans == 1
                warm = eng.query(_q(k=6))
            assert warm.cached
            # No new sampling span for the warm query: cache hit skipped it.
            assert len(_spans(tel, "sampling.parallel_generate")) == cold_spans
            counters = tel.registry.snapshot()["counters"]
            assert counters["service.cache.hits"] >= 1
            assert counters["service.cold_samples"] == 1
            assert len(_spans(tel, "service.selection")) == 2

    def test_latency_histogram_and_stat_gauges(self):
        with telemetry.session() as tel:
            with QueryEngine(config=EngineConfig(default_theta=THETA)) as eng:
                for k in (2, 3, 4):
                    assert eng.query(_q(k=k)).ok
            snap = tel.registry.snapshot()
            hist = snap["histograms"]["service.query_latency_s"]
            assert hist["count"] == 3


class TestEnginePersistence:
    def test_artifact_warm_start_across_engines(self, tmp_path):
        cfg = EngineConfig(default_theta=THETA, artifact_dir=tmp_path)
        with QueryEngine(config=cfg) as eng1:
            cold = eng1.query(_q(k=5))
            assert not cold.cached and eng1.stats.artifact_saves == 1
        with QueryEngine(config=cfg) as eng2:  # fresh process-equivalent: empty cache
            warm = eng2.query(_q(k=5))
        assert warm.cached and warm.seeds == cold.seeds
        assert eng2.stats.cold_samples == 0
        assert eng2.stats.artifact_loads == 1

    def test_corrupt_artifact_falls_back_to_cold(self, tmp_path):
        cfg = EngineConfig(default_theta=THETA, artifact_dir=tmp_path)
        with QueryEngine(config=cfg) as eng1:
            cold = eng1.query(_q(k=5))
        (art_file,) = tmp_path.glob("sketch-*.npz")
        raw = bytearray(art_file.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        art_file.write_bytes(bytes(raw))
        with QueryEngine(config=cfg) as eng2:
            r = eng2.query(_q(k=5))
        assert r.ok and r.seeds == cold.seeds  # resampled deterministically
        assert eng2.stats.artifact_corrupt == 1
        assert eng2.stats.cold_samples == 1

    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    def test_malformed_artifact_falls_back_to_cold(self, tmp_path, kind):
        cfg = EngineConfig(default_theta=THETA, artifact_dir=tmp_path)
        with QueryEngine(config=cfg) as eng1:
            cold = eng1.query(_q(k=5))
        (art_file,) = tmp_path.glob("sketch-*.npz")
        with np.load(art_file) as data:
            offsets, vertices = data["offsets"], data["vertices"]
            counter = data["counter"]
        _resign(
            art_file,
            **_malformed(kind, _header(art_file), offsets, vertices, counter),
        )
        with telemetry.session() as tel:
            with QueryEngine(config=cfg) as eng2:
                r = eng2.query(_q(k=5))
            counters = tel.registry.snapshot()["counters"]
        assert r.ok and not r.cached and r.seeds == cold.seeds
        assert counters["service.artifacts.corrupt"] == 1
        assert eng2.stats.artifact_corrupt == 1
        assert eng2.stats.cold_samples == 1

    def test_artifact_with_old_store_meta_loads(self, tmp_path):
        """Every artifact written while flat stores had a sort flag carries
        it in the header's store meta; such artifacts load unchanged."""
        cfg = EngineConfig(default_theta=THETA, artifact_dir=tmp_path)
        with QueryEngine(config=cfg) as eng1:
            cold = eng1.query(_q(k=5))
        (art_file,) = tmp_path.glob("sketch-*.npz")
        header = _header(art_file)
        assert header["store_meta"] == {}
        _resign(art_file, header={**header, "store_meta": {"sort_sets": True}})
        with QueryEngine(config=cfg) as eng2:
            warm = eng2.query(_q(k=5))
        assert warm.cached and warm.seeds == cold.seeds
        assert eng2.stats.artifact_loads == 1 and eng2.stats.cold_samples == 0

    def test_legacy_keyed_artifact_never_read(self, tmp_path):
        """Sketches drawn by the retired sequential-Generator sampler were
        keyed without the stream tag; an artifact under such a key is never
        addressed, so its sets cannot stand in for the keyed sketch."""
        import hashlib

        from repro.graph.datasets import load_dataset

        q = _q(k=5)
        graph = load_dataset(q.dataset, model=q.model, seed=q.seed)
        legacy_key = (
            f"{graph_fingerprint(graph)}:{q.model}:{float(q.epsilon):.12g}:"
            f"{q.seed}:{THETA}"
        )
        legacy_fp = hashlib.sha256(legacy_key.encode()).hexdigest()[:16]
        bogus = make_store(graph.num_vertices, [[v] for v in range(THETA)])
        ArtifactStore(tmp_path).save_sketch(legacy_fp, bogus)
        cfg = EngineConfig(default_theta=THETA, artifact_dir=tmp_path)
        with QueryEngine(config=cfg) as eng:
            got = eng.query(q)
        with QueryEngine(config=EngineConfig(default_theta=THETA)) as ref:
            want = ref.query(q)
        assert got.ok and got.seeds == want.seeds
        assert eng.stats.artifact_loads == 0 and eng.stats.cold_samples == 1
        assert legacy_fp != sketch_fingerprint(
            graph_fingerprint(graph), q.model, q.epsilon, q.seed, THETA
        )


class TestEngineEviction:
    def test_tiny_budget_evicts_without_corrupting(self):
        # Budget fits roughly one sketch: alternating datasets must evict.
        with QueryEngine(config=EngineConfig(default_theta=THETA)) as probe:
            probe.query(_q(k=3))
            one_entry = probe.cache.current_bytes()
        cfg = EngineConfig(
            default_theta=THETA, cache_budget_bytes=int(one_entry * 1.5)
        )
        with QueryEngine(config=cfg) as eng:
            a1 = eng.query(_q("amazon", k=4))
            d1 = eng.query(_q("dblp", k=4))
            a2 = eng.query(_q("amazon", k=4))
            d2 = eng.query(_q("dblp", k=4))
        assert eng.cache.stats.evictions >= 2
        # Evicted-and-resampled answers are identical (deterministic seed).
        assert a2.seeds == a1.seeds and d2.seeds == d1.seeds
        assert all(r.ok for r in (a1, d1, a2, d2))

    def test_zero_budget_serves_cold_every_time(self):
        with QueryEngine(
            config=EngineConfig(default_theta=THETA, cache_budget_bytes=0)
        ) as eng:
            r1 = eng.query(_q(k=3))
            r2 = eng.query(_q(k=3))
        assert r1.ok and r2.ok and not r2.cached
        assert eng.stats.cold_samples == 2
        assert eng.cache.stats.rejected == 2


def _synth_engine() -> tuple[QueryEngine, int]:
    """An engine serving the 40-vertex ``synth`` graph, and that graph's
    vertex count."""
    from test_shard import small_graph

    graph = small_graph()
    eng = QueryEngine(config=EngineConfig(default_theta=THETA))
    eng.install_graph("synth", graph)
    return eng, graph.num_vertices


def _synth_fp(eng: QueryEngine, theta: int = THETA) -> str:
    """The sketch fingerprint of a ``synth`` query with ``theta_cap=theta``."""
    q = _q("synth", theta_cap=theta)
    _, gfp = eng.resolve_graph("synth", q.model, q.seed)
    return sketch_fingerprint(gfp, q.model, q.epsilon, q.seed, theta)


def _rounds(tel) -> float:
    return tel.registry.counter("selection.rounds").value


class TestEngineKeptSelection:
    """Warm reads come from the longest greedy selection each cached
    sketch has served.  Answers are checked against the pure-Python greedy
    over the sketch's sets and coverage against a plain count of the sets
    the seeds hit."""

    def test_answers_from_the_prefix_or_select_again(self):
        from test_selection import greedy_reference

        eng, n = _synth_engine()
        answers, grown = [], []
        with telemetry.session() as tel:
            for k in (3, 1, 7, 7, 2, 12):
                before = _rounds(tel)
                answers.append(eng.query(_q("synth", k=k)))
                grown.append(_rounds(tel) - before)
            grew = [s.attrs["k"] for s in _spans(tel, "service.selection")]
        # A k past the kept selection runs one selection from scratch;
        # every other k runs no round.
        assert grown == [3, 0, 7, 0, 0, 12]
        assert grew == [3, 7, 12]  # a span only when a selection runs
        assert [r.cached for r in answers] == [False] + [True] * 5
        sets = [set(x.tolist()) for x in eng.cache.get(_synth_fp(eng)).store]
        for r in answers:
            assert r.ok
            assert r.seeds == greedy_reference(sets, n, len(r.seeds))
            hit = sum(1 for x in sets if x & set(r.seeds))
            assert r.coverage_fraction == hit / len(sets)

    def test_rewarm_replaces_the_selection(self):
        from test_selection import greedy_reference

        eng, n = _synth_engine()
        fp = _synth_fp(eng)
        first = eng.query(_q("synth", k=5))  # kept on the sampled sketch
        w = (first.seeds[0] + 1) % n
        sets_b = [[w], [w, (w + 1) % n], [w, (w + 2) % n], [(w + 2) % n]]
        store_b = make_store(n, sets_b)
        assert eng.warm(fp, store_b)
        with telemetry.session() as tel:
            r = eng.query(_q("synth", k=3))
            rounds = _rounds(tel)
        assert r.ok and r.cached and r.num_rrrsets == len(sets_b)
        assert r.seeds == greedy_reference(sets_b, n, 3)
        assert r.seeds[0] == w != first.seeds[0]
        assert rounds == 3  # B's own selection, not A's prefix

    def test_default_theta_shares_the_selection(self):
        # theta_cap omitted reads the engine's default_theta sketch, so a
        # read naming that default reads the same kept selection.
        eng, _ = _synth_engine()
        with telemetry.session() as tel:
            first = eng.query(_q("synth", k=5, theta_cap=None))
            again = eng.query(_q("synth", k=3, theta_cap=THETA))
            assert _rounds(tel) == 5
        assert again.ok and again.cached and again.seeds == first.seeds[:3]

    def test_mixed_theta_spellings_form_one_group(self):
        """A batch mixing a query that omits theta_cap with one naming the
        default is one group: one acquisition, one cold sample, and the
        answers each query gets alone."""
        eng, _ = _synth_engine()
        batch = [_q("synth", k=5, theta_cap=None), _q("synth", k=3)]
        got = eng.execute(batch)
        assert eng.stats.batches == 1 and eng.stats.cold_samples == 1
        assert [r.cached for r in got] == [False, False]
        for q, r in zip(batch, got):
            alone, _ = _synth_engine()
            assert r.ok and r.seeds == alone.query(q).seeds

    def test_eviction_drops_the_selection(self):
        eng, _ = _synth_engine()
        fp = _synth_fp(eng)
        assert eng.query(_q("synth", k=6)).ok
        entry = weakref.ref(eng.cache.get(fp))
        assert eng.cache.evict(fp)
        gc.collect()
        assert entry() is None
        with telemetry.session() as tel:
            again = eng.query(_q("synth", k=4))
            assert _rounds(tel) == 4
        assert again.ok and not again.cached

    def test_kept_selection_is_not_charged(self):
        # An entry is charged its store and counter once, at put; however
        # far its kept selection grows, the byte total does not move.
        eng, n = _synth_engine()
        thetas = (THETA, THETA + 10)
        with telemetry.session() as tel:
            for k in (2, n):  # short selections, then each at its longest
                for theta in thetas:
                    assert eng.query(_q("synth", k=k, theta_cap=theta)).ok
                entries = [eng.cache.peek(_synth_fp(eng, t)) for t in thetas]
                assert eng.cache.current_bytes() == sum(
                    e.store.nbytes() + e.counter.nbytes for e in entries
                )
            assert _rounds(tel) == 2 * (2 + n)
        for theta in thetas:
            assert eng.cache.evict(_synth_fp(eng, theta))
        assert eng.cache.current_bytes() == 0

    def test_kept_selections_are_bounded(self, monkeypatch):
        monkeypatch.setattr(front_module, "MAX_KEPT", 2)
        eng, _ = _synth_engine()
        grown = []
        with telemetry.session() as tel:
            for theta in (60, 70, 80, 80, 70, 60):
                before = _rounds(tel)
                assert eng.query(_q("synth", k=4, theta_cap=theta)).ok
                grown.append(_rounds(tel) - before)
        # Three sketches through a cap of two: the first one's selection
        # was dropped, though its entry is still cached.
        assert grown == [4, 4, 4, 0, 0, 4]
        assert len(eng.cache) == 3

    def test_pass_over_a_rejected_sketch_is_not_kept(self, monkeypatch):
        # With room for one record, keeping a pass over a sketch the cache
        # rejected would push out the resident sketch's selection.
        monkeypatch.setattr(front_module, "MAX_KEPT", 1)
        eng, _ = _synth_engine()
        resident, rejected = THETA, 10 * THETA
        first = eng.query(_q("synth", k=5, theta_cap=resident))
        eng.cache.budget_bytes = eng.cache.current_bytes()
        with telemetry.session() as tel:
            cold = eng.query(_q("synth", k=5, theta_cap=rejected))
            assert _rounds(tel) == 5
            again = eng.query(_q("synth", k=3, theta_cap=resident))
            assert _rounds(tel) == 5  # the resident sketch's prefix
        assert cold.ok and not cold.cached
        assert eng.cache.stats.rejected == 1
        assert _synth_fp(eng, rejected) not in eng.cache
        assert again.ok and again.cached and again.seeds == first.seeds[:3]


class TestServingAcceptance:
    def test_twenty_queries_two_datasets(self):
        """The ISSUE acceptance run: >=20 mixed queries over 2 datasets."""
        rng = np.random.default_rng(7)
        queries = [
            _q(dataset=ds, k=int(k), id=f"{ds}-{i}")
            for i, (ds, k) in enumerate(
                (["amazon", "dblp"][i % 2], rng.integers(1, 12))
                for i in range(20)
            )
        ]
        with telemetry.session() as tel:
            with QueryEngine(config=EngineConfig(default_theta=THETA)) as eng:
                # Serving-loop style: one query per request, like `repro serve`.
                responses = [eng.query(q) for q in queries]
            counters = tel.registry.snapshot()["counters"]
        assert len(responses) == 20 and all(r.ok for r in responses)
        # One cold sampling pass per dataset; everything else is warm.
        assert eng.stats.cold_samples == 2
        assert counters["service.cache.hits"] == 18
        assert eng.cache.stats.hits == 18
        # Prefix consistency across the whole mix, per dataset.
        for ds in ("amazon", "dblp"):
            rs = [r for r, q in zip(responses, queries) if q.dataset == ds]
            longest = max(rs, key=lambda r: len(r.seeds))
            for r in rs:
                assert longest.seeds[: len(r.seeds)] == r.seeds


# ------------------------------------------------------------------------ CLI
class TestCLI:
    def _main(self, argv, capsys):
        from repro.cli import main

        rc = main(argv)
        out = capsys.readouterr()
        return rc, out.out, out.err

    def test_run_bad_epsilon_exits_2(self, capsys):
        rc, _, err = self._main(
            ["run", "amazon", "--epsilon", "7", "--theta-cap", "200"], capsys
        )
        assert rc == 2
        assert err.strip() == "error: epsilon must be in (0, 1], got 7.0"

    def test_run_k_too_large_exits_2(self, capsys):
        rc, _, err = self._main(
            ["run", "amazon", "--k", "99999999", "--theta-cap", "200"], capsys
        )
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    def test_query_bad_epsilon_exits_2(self, capsys):
        rc, _, err = self._main(
            ["query", "amazon", "--epsilon", "9"], capsys
        )
        assert rc == 2 and err.startswith("error:")

    def test_query_k_too_large_exits_2(self, capsys):
        rc, _, err = self._main(
            ["query", "amazon", "--k", "99999999", "--theta-cap", str(THETA)],
            capsys,
        )
        assert rc == 2 and "exceeds" in err

    def test_query_success_json(self, capsys):
        rc, out, _ = self._main(
            ["query", "amazon", "--k", "3", "--theta-cap", str(THETA), "--json"],
            capsys,
        )
        assert rc == 0
        doc = json.loads(out.strip().splitlines()[-1])
        assert doc["status"] == "ok" and len(doc["seeds"]) == 3

    def test_serve_loop_end_to_end(self, tmp_path):
        """Spawn `repro serve`, send cold + warm + stats, check the wire."""
        repo_src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(repo_src))
        lines = "\n".join(
            [
                json.dumps({"dataset": "amazon", "k": 3, "theta_cap": THETA}),
                json.dumps({"dataset": "amazon", "k": 5, "theta_cap": THETA}),
                json.dumps({"op": "stats"}),
                json.dumps({"op": "shutdown"}),
            ]
        )
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "serve",
             "--artifacts", str(tmp_path / "arts")],
            input=lines, capture_output=True, text=True, env=env, timeout=180,
        )
        assert proc.returncode == 0, proc.stderr
        docs = [json.loads(l) for l in proc.stdout.strip().splitlines()]
        q1, q2, stats = docs[0], docs[1], docs[2]
        assert q1["status"] == "ok" and q1["cached"] is False
        assert q2["status"] == "ok" and q2["cached"] is True
        assert q2["seeds"][:3] == q1["seeds"]
        assert stats["cache"]["hits"] == 1
        assert stats["service"]["cold_samples"] == 1
