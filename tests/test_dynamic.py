"""Tests for repro.dynamic: delta graphs, incremental maintenance, serving."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import (
    DeltaGraph,
    DynamicService,
    EdgeUpdate,
    IncrementalMaintainer,
    iter_update_stream,
    parse_update_line,
)
from repro.errors import ArtifactError, ParameterError, ReproError
from repro.graph.builder import from_edge_array
from repro.graph.generators import erdos_renyi
from repro.graph.io import graph_fingerprint

from conftest import make_graph, set_header_meta


def random_graph(n=80, m=320, seed=7, p=0.3):
    src, dst = erdos_renyi(n, m, seed=seed)
    return from_edge_array(src, dst, p, num_vertices=n)


# --------------------------------------------------------------- DeltaGraph
class TestDeltaGraphStaging:
    def test_unknown_op_rejected(self, line_graph):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError):
            d.stage(EdgeUpdate("upsert", 0, 1, 0.5))

    @pytest.mark.parametrize("src,dst", [(-1, 2), (0, 99), (99, 0)])
    def test_out_of_range_rejected(self, line_graph, src, dst):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError):
            d.stage(EdgeUpdate("insert", src, dst, 0.5))

    def test_self_loop_rejected(self, line_graph):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError, match="self-loop"):
            d.stage(EdgeUpdate("insert", 2, 2, 0.5))

    def test_delete_with_prob_rejected(self, line_graph):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError):
            d.stage(EdgeUpdate("delete", 0, 1, 0.5))

    def test_insert_without_prob_rejected(self, line_graph):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError):
            d.stage(EdgeUpdate("insert", 0, 2))

    @pytest.mark.parametrize("p", [-0.1, 1.5, float("nan")])
    def test_prob_domain_rejected(self, line_graph, p):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError):
            d.stage(EdgeUpdate("insert", 0, 2, p))

    def test_stage_does_not_mutate(self, line_graph):
        d = DeltaGraph(line_graph)
        d.insert(0, 2, 0.5)
        assert not d.has_edge(0, 2)
        assert d.epoch == 0
        assert d.pending_count == 1


class TestDeltaGraphCommit:
    def test_empty_commit_rejected(self, line_graph):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError, match="no staged"):
            d.commit()

    def test_insert_delete_reweight(self, line_graph):
        d = DeltaGraph(line_graph)
        d.insert(0, 2, 0.5)
        d.delete(0, 1)
        d.reweight(1, 2, 0.25)
        info = d.commit()
        assert d.epoch == 1 and info.epoch == 1
        assert d.has_edge(0, 2) and d.prob(0, 2) == 0.5
        assert not d.has_edge(0, 1)
        assert d.prob(1, 2) == 0.25
        assert info.inserted.tolist() == [[0, 2]]
        assert info.deleted.tolist() == [[0, 1]]
        assert info.reweighted.tolist() == [[1, 2]]
        assert info.ignored == 0

    def test_ignored_categories(self, line_graph):
        d = DeltaGraph(line_graph)
        d.delete(0, 2)  # absent
        d.reweight(0, 3, 0.5)  # absent
        d.insert(0, 4, 0.5)
        d.delete(0, 4)  # cancels the insert
        d.reweight(0, 1, 1.0)  # identical probability
        info = d.commit()
        assert info.num_changes == 0
        assert info.ignored == 4
        assert d.epoch == 1

    def test_insert_existing_is_reweight(self, line_graph):
        d = DeltaGraph(line_graph)
        d.insert(0, 1, 0.75)
        info = d.commit()
        assert info.inserted.shape[0] == 0
        assert info.reweighted.tolist() == [[0, 1]]
        assert d.prob(0, 1) == 0.75

    def test_sequential_resolution_within_batch(self, line_graph):
        d = DeltaGraph(line_graph)
        d.delete(0, 1)
        d.insert(0, 1, 0.5)  # delete then re-insert: net reweight
        info = d.commit()
        assert info.deleted.shape[0] == 0
        assert info.reweighted.tolist() == [[0, 1]]

    def test_commit_info_endpoints(self, line_graph):
        d = DeltaGraph(line_graph)
        d.insert(0, 2, 0.5)
        d.delete(3, 4)
        info = d.commit()
        assert info.structural_dsts().tolist() == [4]
        assert info.all_dsts().tolist() == [2, 4]

    def test_compact_matches_builder(self):
        g = random_graph()
        d = DeltaGraph(g)
        d.insert(0, 5, 0.4)
        src, dst, probs = g.edge_array()
        d.delete(int(src[0]), int(dst[0]))
        d.commit()
        # Rebuild the same edge set through the builder and compare.
        keep = np.ones(src.size, dtype=bool)
        keep[0] = False
        ref = from_edge_array(
            np.concatenate([src[keep], [0]]),
            np.concatenate([dst[keep], [5]]),
            np.concatenate([probs[keep], [0.4]]),
            num_vertices=g.num_vertices,
        )
        assert graph_fingerprint(d.compact()) == graph_fingerprint(ref)

    def test_compact_cached_per_epoch(self, line_graph):
        d = DeltaGraph(line_graph)
        assert d.compact() is d.compact()
        before = d.compact()
        d.insert(0, 2, 0.5)
        d.commit()
        assert d.compact() is not before

    def test_fingerprint_changes_per_epoch(self, line_graph):
        d = DeltaGraph(line_graph)
        fp0 = d.fingerprint()
        assert fp0 == d.base_fingerprint
        d.insert(0, 2, 0.5)
        d.commit()
        assert d.fingerprint() != fp0

    def test_base_graph_not_mutated(self, line_graph):
        edges_before = list(line_graph.iter_edges())
        d = DeltaGraph(line_graph)
        d.apply_batch([EdgeUpdate("delete", 0, 1)])
        assert list(line_graph.iter_edges()) == edges_before


# Few probabilities, so reweights to the current value occur.
_PROBS = st.sampled_from([0.0, 0.25, 0.5, 1.0])


@st.composite
def _delta_histories(draw):
    """A base edge set on <= 6 vertices and up to 4 non-empty update batches."""
    n = draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]
    )
    base = draw(st.dictionaries(pair, _PROBS, max_size=n * (n - 1)))
    op = st.tuples(st.sampled_from(["insert", "delete", "reweight"]), pair, _PROBS)
    batches = draw(st.lists(st.lists(op, min_size=1, max_size=8), min_size=1, max_size=4))
    return n, base, batches


def _model_commit(edges, batch):
    """Apply ``batch`` to a copy of the dict ``edges`` one op at a time, then
    read the commit's net effect off the two dicts.  Returns the new dict,
    the changes as ``{(src, dst): prob or None}`` and the ignored count."""
    new = dict(edges)
    touched = set()
    ignored = 0
    for op, key, prob in batch:
        if op == "insert" or key in new:
            if op == "delete":
                del new[key]
            else:
                new[key] = prob
            touched.add(key)
        else:  # delete or reweight of an absent edge
            ignored += 1
    changed = {k: new.get(k) for k in touched if new.get(k) != edges.get(k)}
    return new, changed, ignored + len(touched) - len(changed)


class TestDeltaGraphModel:
    @settings(max_examples=200, deadline=None)
    @given(_delta_histories())
    def test_matches_dict_of_edges(self, history):
        n, edges, batches = history
        d = DeltaGraph(make_graph([(*k, p) for k, p in edges.items()], n=n))
        for epoch, batch in enumerate(batches, start=1):
            for op, (u, v), prob in batch:
                d.stage(EdgeUpdate(op, u, v, None if op == "delete" else prob))
            info = d.commit()
            old = edges
            edges, changed, ignored = _model_commit(old, batch)

            inserted = sorted(k for k in changed if k not in old)
            deleted = sorted(k for k in changed if changed[k] is None)
            reweighted = sorted(k for k in changed if k in old and k in edges)
            assert info.epoch == d.epoch == epoch
            assert info.inserted.tolist() == [list(k) for k in inserted]
            assert info.inserted_probs.tolist() == [edges[k] for k in inserted]
            assert info.deleted.tolist() == [list(k) for k in deleted]
            assert info.reweighted.tolist() == [list(k) for k in reweighted]
            assert info.reweighted_probs.tolist() == [edges[k] for k in reweighted]
            assert info.ignored == ignored

            src, dst, probs = d.compact().edge_array()
            assert list(zip(src.tolist(), dst.tolist())) == sorted(edges)
            assert probs.tolist() == [edges[k] for k in sorted(edges)]
            assert d.num_edges == len(edges)
            for u in range(n):
                for v in range(n):
                    assert d.has_edge(u, v) == ((u, v) in edges)
                    assert d.prob(u, v) == edges.get((u, v))


# ----------------------------------------------------- IncrementalMaintainer
@pytest.fixture
def maintained():
    """A built maintainer over a random IC graph (small but non-trivial)."""
    d = DeltaGraph(random_graph())
    m = IncrementalMaintainer(d, num_sets=200, seed=3)
    return d, m


def batch(d, rng, size=8):
    """Stage a mixed batch of valid random updates against ``d``."""
    n = d.num_vertices
    src, dst, _ = d.compact().edge_array()
    staged = 0
    while staged < size:
        kind = rng.integers(0, 3)
        if kind == 0 or src.size == 0:
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u == v or d.has_edge(u, v):
                continue
            d.insert(u, v, float(rng.random()))
        elif kind == 1:
            j = int(rng.integers(0, src.size))
            if not d.has_edge(int(src[j]), int(dst[j])):
                continue
            d.delete(int(src[j]), int(dst[j]))
        else:
            j = int(rng.integers(0, src.size))
            d.reweight(int(src[j]), int(dst[j]), float(rng.random()))
        staged += 1
    return d.commit()


class TestMaintainerValidation:
    def test_bad_params(self, line_graph):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError):
            IncrementalMaintainer(d, num_sets=0)
        with pytest.raises(ParameterError):
            IncrementalMaintainer(d, full_resample_threshold=0.0)
        with pytest.raises(ParameterError):
            IncrementalMaintainer(d, repair="patch")

    def test_empty_graph_rejected(self, empty_graph):
        with pytest.raises(ParameterError):
            IncrementalMaintainer(DeltaGraph(empty_graph))

    def test_epoch_order_enforced(self, maintained):
        d, m = maintained
        d.insert(0, 5, 0.5)
        info = d.commit()
        m.apply(info)
        with pytest.raises(ParameterError, match="in order"):
            m.apply(info)  # same epoch twice

    def test_requires_committed_delta(self, maintained):
        from repro.dynamic.delta import CommitInfo

        d, m = maintained
        d.insert(0, 5, 0.5)
        m.apply(d.commit())
        # A commit claiming an epoch the delta graph has not reached yet.
        ahead = CommitInfo(
            epoch=d.epoch + 1,
            inserted=np.empty((0, 2), dtype=np.int32),
            inserted_probs=np.empty(0),
            deleted=np.empty((0, 2), dtype=np.int32),
            reweighted=np.empty((0, 2), dtype=np.int32),
            reweighted_probs=np.empty(0),
            ignored=0,
        )
        with pytest.raises(ParameterError, match="commit the batch"):
            m.apply(ahead)


class TestMaintainerRepair:
    def test_counter_matches_store_after_repairs(self, maintained):
        d, m = maintained
        rng = np.random.default_rng(11)
        for _ in range(4):
            m.apply(batch(d, rng))
            assert np.array_equal(m.counter, m.store.vertex_counts())
            assert m.epoch == d.epoch

    def test_deterministic_byte_identical(self):
        stores = []
        for _ in range(2):
            d = DeltaGraph(random_graph())
            m = IncrementalMaintainer(d, num_sets=150, seed=9)
            rng = np.random.default_rng(21)
            for _ in range(3):
                m.apply(batch(d, rng))
            stores.append(m)
        a, b = stores
        assert np.array_equal(a.store.vertices, b.store.vertices)
        assert np.array_equal(a.store.offsets, b.store.offsets)
        assert np.array_equal(a.counter, b.counter)
        assert np.array_equal(a.roots, b.roots)

    def test_insert_only_batch_extends_not_resamples(self, maintained):
        d, m = maintained
        rng = np.random.default_rng(5)
        n = d.num_vertices
        for _ in range(6):
            u, v = int(rng.integers(0, n)), int(rng.integers(0, n))
            if u != v and not d.has_edge(u, v):
                d.insert(u, v, 0.5)
        if d.pending_count == 0:
            d.insert(0, 5, 0.5)
        report = m.apply(d.commit())
        assert report.mode == "repair"
        assert report.invalidated == 0  # inserts never resample under IC
        assert np.array_equal(m.counter, m.store.vertex_counts())

    def test_threshold_forces_full_rebuild(self):
        d = DeltaGraph(random_graph())
        m = IncrementalMaintainer(
            d, num_sets=100, seed=2, full_resample_threshold=0.01
        )
        src, dst, _ = d.compact().edge_array()
        for j in range(10):
            d.delete(int(src[j]), int(dst[j]))
        report = m.apply(d.commit())
        assert report.mode == "full"
        assert report.invalidated == m.num_sets
        assert m.epoch == d.epoch
        assert np.array_equal(m.counter, m.store.vertex_counts())

    def test_resample_mode_never_extends(self):
        d = DeltaGraph(random_graph())
        m = IncrementalMaintainer(d, num_sets=100, seed=2, repair="resample")
        d.insert(0, 5, 0.9)
        d.insert(1, 7, 0.9)
        report = m.apply(d.commit())
        assert report.extended == 0
        assert np.array_equal(m.counter, m.store.vertex_counts())

    def test_lt_always_resamples(self):
        d = DeltaGraph(random_graph(p=0.2))
        m = IncrementalMaintainer(d, model="LT", num_sets=80, seed=4)
        d.insert(0, 5, 0.2)
        report = m.apply(d.commit())
        assert report.extended == 0
        assert np.array_equal(m.counter, m.store.vertex_counts())

    def test_extension_members_preserved(self, maintained):
        """Extensions only ever append: prior members survive verbatim."""
        d, m = maintained
        before = [m.store.get(i).copy() for i in range(len(m.store))]
        d.insert(0, 5, 1.0)
        report = m.apply(d.commit())
        assert report.mode == "repair"
        for i, old in enumerate(before):
            assert np.setdiff1d(old, m.store.get(i)).size == 0

    def test_select_matches_cold_selection(self, maintained):
        from repro.core.selection import efficient_select

        d, m = maintained
        rng = np.random.default_rng(13)
        m.apply(batch(d, rng))
        warm = m.select(5)
        cold = efficient_select(m.store, 5, 1)
        assert np.array_equal(warm.seeds, cold.seeds)

    def test_repair_tracks_structural_change(self):
        """Deleting every in-edge of a vertex empties its repaired sets."""
        g = make_graph([(0, 2, 1.0), (1, 2, 1.0), (3, 0, 1.0)], n=4)
        d = DeltaGraph(g)
        m = IncrementalMaintainer(d, num_sets=64, seed=0)
        d.delete(0, 2)
        d.delete(1, 2)
        m.apply(d.commit())
        for i in np.flatnonzero(m.roots == 2):
            assert m.store.get(int(i)).tolist() == [2]


def _rewrite_header(path, edit):
    """Rewrite the dynamic checkpoint at ``path`` with ``edit(meta)`` applied
    to its JSON header; the arrays, and so the CRC, are unchanged."""
    from repro.service.artifacts import load_store, save_store

    key = path.stem[len("dynamic-"):]
    store, counter, meta = load_store(path, expect_fingerprint=key)
    edit(meta)
    save_store(store, path, fingerprint=key, counter=counter, meta=meta,
               compress=False)


def _set_roots(value):
    return lambda meta: meta.update(roots=[value] * len(meta["roots"]))


#: One malformed header per case: (id, edit, the field the error names).
#: The checkpoint holds 200 sets of an 80-vertex graph.
MALFORMED_DYNAMIC_HEADERS = [
    ("text-epoch", lambda m: m.update(epoch="x"), "epoch"),
    ("no-epoch", lambda m: m.pop("epoch"), "epoch"),
    ("bool-epoch", lambda m: m.update(epoch=True), "epoch"),
    ("negative-epoch", lambda m: m.update(epoch=-1), "epoch"),
    ("no-roots", lambda m: m.pop("roots"), "roots"),
    ("text-roots", lambda m: m.update(roots="x"), "roots"),
    ("short-roots", lambda m: m.update(roots=m["roots"][:10]), "roots"),
    ("negative-roots", _set_roots(-1), "roots"),
    ("out-of-range-roots", _set_roots(10**9), "roots"),
    ("float-roots", _set_roots(0.0), "roots"),
]


class TestMaintainerCheckpoint:
    @pytest.mark.parametrize(
        "edit,field",
        [case[1:] for case in MALFORMED_DYNAMIC_HEADERS],
        ids=[case[0] for case in MALFORMED_DYNAMIC_HEADERS],
    )
    def test_malformed_header_rejected(self, tmp_path, maintained, edit, field):
        """The CRC covers only the arrays: ``from_checkpoint`` checks the
        header's ``epoch`` and ``roots`` and names the bad one."""
        d, m = maintained
        m.apply(batch(d, np.random.default_rng(31)))
        _rewrite_header(m.save_checkpoint(tmp_path), edit)
        with pytest.raises(ArtifactError, match=f"field '{field}'"):
            IncrementalMaintainer.from_checkpoint(
                tmp_path, d, num_sets=m.num_sets, seed=m.seed
            )

    @pytest.mark.parametrize(
        "meta", ["ab", [1, 2], 5], ids=["text", "list", "number"]
    )
    def test_non_object_meta_is_no_missing_checkpoint(
        self, tmp_path, maintained, meta
    ):
        """A checkpoint whose header meta is no object is refused by both
        readers; only an absent one reads as no checkpoint."""
        d, m = maintained
        assert m.checkpoint_epoch(tmp_path) is None
        set_header_meta(m.save_checkpoint(tmp_path), meta)
        with pytest.raises(ArtifactError, match="unreadable checkpoint header"):
            m.checkpoint_epoch(tmp_path)
        with pytest.raises(ArtifactError, match="is not an object"):
            IncrementalMaintainer.from_checkpoint(
                tmp_path, d, num_sets=m.num_sets, seed=m.seed
            )

    def test_roundtrip_byte_identical(self, tmp_path, maintained):
        d, m = maintained
        rng = np.random.default_rng(31)
        m.apply(batch(d, rng))
        m.save_checkpoint(tmp_path)
        m2 = IncrementalMaintainer.from_checkpoint(
            tmp_path, d, num_sets=m.num_sets, seed=m.seed
        )
        assert m2.epoch == m.epoch
        assert np.array_equal(m2.store.vertices, m.store.vertices)
        assert np.array_equal(m2.store.offsets, m.store.offsets)
        assert np.array_equal(m2.counter, m.counter)
        assert np.array_equal(m2.roots, m.roots)

    def test_resume_continues_identically(self, tmp_path):
        """checkpoint → restore → apply == uninterrupted apply, bit for bit
        (every draw is keyed by seed, epoch and set index, so the sketch
        and its roots are all the state there is)."""
        runs = []
        for resume in (False, True):
            d = DeltaGraph(random_graph())
            m = IncrementalMaintainer(d, num_sets=120, seed=8)
            rng = np.random.default_rng(41)
            m.apply(batch(d, rng))
            if resume:
                m.save_checkpoint(tmp_path)
                m = IncrementalMaintainer.from_checkpoint(
                    tmp_path, d, num_sets=120, seed=8
                )
            m.apply(batch(d, rng))
            runs.append(m)
        a, b = runs
        assert np.array_equal(a.store.vertices, b.store.vertices)
        assert np.array_equal(a.store.offsets, b.store.offsets)
        assert np.array_equal(a.counter, b.counter)

    def test_graph_mismatch_rejected(self, tmp_path, maintained):
        d, m = maintained
        m.save_checkpoint(tmp_path)
        d.insert(0, 5, 0.5)
        d.commit()  # delta moved on; checkpoint is now for another graph
        with pytest.raises(ArtifactError, match="replay"):
            IncrementalMaintainer.from_checkpoint(
                tmp_path, d, num_sets=m.num_sets, seed=m.seed
            )

    def test_pre_bump_checkpoint_refused(self, tmp_path, maintained):
        """A version-1 checkpoint (Generator-drawn sets plus the Generator
        state) is refused, never resumed into a mixed stream."""
        from repro.service.artifacts import save_store

        d, m = maintained
        save_store(
            m.store,
            m.checkpoint_path(tmp_path),
            fingerprint=m.checkpoint_key(),
            counter=m.counter,
            meta={
                "dynamic_checkpoint_version": 1,
                "epoch": m.epoch,
                "graph_fp": d.fingerprint(),
                "roots": [int(r) for r in m.roots],
                "rng_state": np.random.default_rng(0).bit_generator.state,
            },
        )
        with pytest.raises(ArtifactError, match="checkpoint version 1"):
            IncrementalMaintainer.from_checkpoint(
                tmp_path, d, num_sets=m.num_sets, seed=m.seed
            )

    def test_config_changes_key(self, tmp_path, maintained):
        d, m = maintained
        other = IncrementalMaintainer(d, num_sets=m.num_sets, seed=99, build=False)
        assert m.checkpoint_key() != other.checkpoint_key()


# ------------------------------------------------------------ update grammar
class TestUpdateGrammar:
    def test_update_ops(self):
        op = parse_update_line('{"op": "insert", "src": 1, "dst": 2, "prob": 0.3}')
        assert op.kind == "update"
        assert op.update == EdgeUpdate("insert", 1, 2, 0.3)
        op = parse_update_line('{"op": "delete", "src": 1, "dst": 2}')
        assert op.update == EdgeUpdate("delete", 1, 2)

    def test_control_ops(self):
        assert parse_update_line('{"op": "commit"}').kind == "commit"
        assert parse_update_line('{"op": "stats"}').kind == "stats"
        q = parse_update_line('{"op": "query", "k": 5, "id": "a"}')
        assert q.kind == "query" and q.k == 5 and q.id == "a"

    @pytest.mark.parametrize(
        "line",
        [
            "not json",
            "[1, 2]",
            '{"src": 1}',
            '{"op": "explode"}',
            '{"op": "commit", "extra": 1}',
            '{"op": "insert", "src": 1, "dst": 2}',
            '{"op": "insert", "src": 1.5, "dst": 2, "prob": 0.3}',
            '{"op": "delete", "src": 1, "dst": 2, "prob": 0.3}',
            '{"op": "query", "k": 0}',
        ],
    )
    def test_rejects_malformed(self, line):
        with pytest.raises(ParameterError):
            parse_update_line(line)

    def test_stream_skips_blanks_and_comments(self):
        lines = ["", "# header", '{"op": "commit"}', "  ", '{"op": "stats"}']
        kinds = [op.kind for op in iter_update_stream(lines)]
        assert kinds == ["commit", "stats"]


# ------------------------------------------------------------ DynamicService
class TestDynamicService:
    def test_requires_exactly_one_graph_source(self, line_graph):
        d = DeltaGraph(line_graph)
        with pytest.raises(ParameterError):
            DynamicService("x", line_graph, delta=d, num_sets=16)
        with pytest.raises(ParameterError):
            DynamicService("x", num_sets=16)

    def test_maintainer_delta_must_match(self, line_graph):
        d1, d2 = DeltaGraph(line_graph), DeltaGraph(line_graph)
        m = IncrementalMaintainer(d2, num_sets=16)
        with pytest.raises(ParameterError):
            DynamicService("x", delta=d1, maintainer=m)

    def test_commit_query_cycle(self):
        g = random_graph()
        with DynamicService("live", g, num_sets=128, seed=1) as svc:
            r0 = svc.query(k=3)
            assert r0.ok and r0.epoch == 0 and not r0.degraded
            report = svc.apply([EdgeUpdate("insert", 0, 5, 0.9)])
            assert report.epoch == 1
            r1 = svc.query(k=3)
            assert r1.ok and r1.epoch == 1 and not r1.degraded
            assert svc.staleness() == 0

    def test_epoch_changes_fingerprint(self):
        g = random_graph()
        with DynamicService("live", g, num_sets=64, seed=1) as svc:
            fp0 = svc.current_fingerprint()
            svc.apply([EdgeUpdate("insert", 0, 5, 0.9)])
            assert svc.current_fingerprint() != fp0

    @pytest.mark.parametrize("custom_config", (False, True))
    def test_answers_hit_the_published_sketch(self, tmp_path, custom_config):
        """Every answer comes from the sketch the service published (never
        a cold sample of some other stream), under any engine config."""
        from repro.service import EngineConfig

        config = (
            EngineConfig(artifact_dir=tmp_path, cache_budget_bytes=64 << 20)
            if custom_config
            else None
        )
        g = random_graph()
        with DynamicService("live", g, num_sets=96, seed=1, config=config) as svc:
            for step in range(3):
                resp = svc.query(k=4)
                assert resp.ok and resp.cached, resp
                assert list(resp.seeds) == svc.maintainer.select(4).seeds.tolist()
                svc.apply([EdgeUpdate("insert", step, 40 + step, 0.7)])
            assert svc.engine.stats.cold_samples == 0

    def test_superseded_epochs_are_released(self):
        """Publishing an epoch drops the one it replaced: the service's
        engine and every shard replica keep one sketch per dataset, and
        the cluster's shm segments stay one per shard."""
        from repro import shm
        from repro.service import IMQuery
        from repro.shard import ShardCluster, ShardPlan

        g = random_graph()
        rng = np.random.default_rng(4)
        with shm.SegmentManager(prefix="tsup") as mgr:
            cluster = ShardCluster(
                ShardPlan(num_shards=2, replication=2), segment_manager=mgr
            )
            with DynamicService("live", g, num_sets=64, seed=1) as svc:
                svc.add_publish_hook(cluster.publish)
                for _ in range(20):
                    u, v = (int(x) for x in rng.choice(80, size=2, replace=False))
                    op = "delete" if svc.delta.has_edge(u, v) else "insert"
                    svc.apply([EdgeUpdate(op, u, v, None if op == "delete" else 0.5)])
                assert len(svc.engine.cache) == 1
                assert [len(w.engine.cache) for w in cluster.workers] == [1] * 4
                assert len(mgr.segments()) == 2
                routed = cluster.execute([
                    IMQuery("live", k=3, epsilon=svc.epsilon, seed=svc.seed,
                            theta_cap=svc.num_sets)
                ])[0]
                assert routed.ok and routed.seeds == svc.query(k=3).seeds
            cluster.close()
            assert mgr.leaked() == []

    def test_one_graph_hash_per_epoch(self, monkeypatch):
        """A committed epoch's graph is hashed once, though the service's
        engine and all four replicas of a 2x2 cluster install it, and
        every engine holds the fingerprint a fresh hash of it gives."""
        import hashlib
        import types

        import repro.graph.io as graph_io
        from repro.graph.csr import CSRGraph
        from repro.shard import ShardCluster, ShardPlan

        passes = []

        def counting_sha256(*args):
            passes.append(args)
            return hashlib.sha256(*args)

        cluster = ShardCluster(ShardPlan(num_shards=2, replication=2))
        with cluster, DynamicService("live", random_graph(), num_sets=64, seed=1) as svc:
            svc.add_publish_hook(cluster.publish)
            src, dst, _ = svc.delta.compact().edge_array()
            batch = [
                EdgeUpdate("insert", 0, 5, 0.9),
                EdgeUpdate("delete", int(src[0]), int(dst[0])),
            ]
            with monkeypatch.context() as m:
                m.setattr(
                    graph_io, "hashlib", types.SimpleNamespace(sha256=counting_sha256)
                )
                svc.apply(batch)
            assert len(passes) == 1
            g = svc.delta.compact()
            fresh = CSRGraph(
                g.num_vertices, g.indptr.copy(), g.indices.copy(), g.probs.copy()
            )
            want = graph_fingerprint(fresh)
            engines = [svc.engine] + [w.engine for w in cluster.workers]
            assert len(engines) == 5
            assert [e.installed_graph("live")[1] for e in engines] == [want] * 5

    def test_failed_repair_serves_degraded(self, monkeypatch):
        g = random_graph()
        with DynamicService("live", g, num_sets=64, seed=1) as svc:
            def boom(commit):
                raise ReproError("injected repair failure")

            monkeypatch.setattr(svc.maintainer, "apply", boom)
            svc.stage(EdgeUpdate("insert", 0, 5, 0.9))
            with pytest.raises(ReproError):
                svc.commit()
            assert svc.staleness() == 1
            resp = svc.query(k=3)
            assert resp.ok and resp.degraded
            assert resp.epoch == 0  # still the last published epoch

    def test_stats_snapshot_dynamic_section(self):
        g = random_graph()
        with DynamicService("live", g, num_sets=64, seed=1) as svc:
            snap = svc.stats_snapshot()
            dyn = snap["dynamic"]
            assert dyn["graph_epoch"] == 0 and dyn["served_epoch"] == 0
            assert dyn["staleness"] == 0
            assert dyn["fingerprint"] == svc.current_fingerprint()

    def test_response_epoch_serialised(self):
        g = random_graph()
        with DynamicService("live", g, num_sets=64, seed=1) as svc:
            doc = json.loads(svc.query(k=2).to_json())
            assert doc["epoch"] == 0


# -------------------------------------------------------------- CLI verb
class TestUpdateCLI:
    STREAM = "\n".join(
        [
            "# update stream",
            '{"op": "insert", "src": 1, "dst": 2, "prob": 0.3}',
            '{"op": "commit"}',
            '{"op": "query", "k": 3, "id": "q1"}',
            '{"op": "stats"}',
        ]
    )

    def run_cli(self, argv, capsys):
        from repro.cli import main

        rc = main(argv)
        out = capsys.readouterr().out
        return rc, [json.loads(x) for x in out.strip().splitlines()]

    def test_stream_end_to_end(self, tmp_path, capsys):
        stream = tmp_path / "u.jsonl"
        stream.write_text(self.STREAM)
        rc, docs = self.run_cli(
            ["update", "amazon", "--updates", str(stream),
             "--theta-cap", "100", "--seed", "1"],
            capsys,
        )
        assert rc == 0
        commit, query, stats = docs
        assert commit["op"] == "commit" and commit["epoch"] == 1
        assert query["status"] == "ok" and query["id"] == "q1"
        assert query["epoch"] == 1 and len(query["seeds"]) == 3
        assert stats["dynamic"]["served_epoch"] == 1

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        stream = tmp_path / "u.jsonl"
        stream.write_text(self.STREAM)
        rc, _ = self.run_cli(
            ["update", "amazon", "--updates", str(stream),
             "--theta-cap", "100", "--seed", "1", "--checkpoint", str(ckpt)],
            capsys,
        )
        assert rc == 0 and list(ckpt.glob("dynamic-*.npz"))
        longer = tmp_path / "u2.jsonl"
        longer.write_text(
            self.STREAM + "\n"
            '{"op": "insert", "src": 5, "dst": 9, "prob": 0.2}\n'
            '{"op": "commit"}\n'
            '{"op": "query", "k": 2, "id": "q2"}'
        )
        rc, docs = self.run_cli(
            ["update", "amazon", "--updates", str(longer),
             "--theta-cap", "100", "--seed", "1",
             "--checkpoint", str(ckpt), "--resume"],
            capsys,
        )
        assert rc == 0
        assert docs[0] == {"op": "commit", "epoch": 1, "mode": "replayed"}
        # The replay ends exactly at the checkpointed epoch, so q1 (which
        # follows that commit) is answered live, from the restored sketch.
        assert docs[1]["status"] == "ok" and docs[1]["epoch"] == 1
        assert docs[-2]["mode"] == "repair" and docs[-2]["epoch"] == 2
        assert docs[-1]["id"] == "q2" and docs[-1]["epoch"] == 2

    def test_resume_of_malformed_header_exits_4(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        stream = tmp_path / "u.jsonl"
        stream.write_text(self.STREAM)
        argv = ["update", "amazon", "--updates", str(stream),
                "--theta-cap", "100", "--seed", "1", "--checkpoint", str(ckpt)]
        rc, _ = self.run_cli(argv, capsys)
        assert rc == 0
        (path,) = ckpt.glob("dynamic-*.npz")
        _rewrite_header(path, lambda meta: meta.update(epoch="x"))
        from repro.cli import main

        assert main([*argv, "--resume"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "'epoch'" in err[0]

    def test_resume_of_non_object_meta_exits_4(self, tmp_path, capsys):
        """Present but unreadable is not "no checkpoint": the resume stops
        with one error line instead of restarting from epoch 0."""
        ckpt = tmp_path / "ckpt"
        stream = tmp_path / "u.jsonl"
        stream.write_text(self.STREAM)
        argv = ["update", "amazon", "--updates", str(stream),
                "--theta-cap", "100", "--seed", "1", "--checkpoint", str(ckpt)]
        rc, _ = self.run_cli(argv, capsys)
        assert rc == 0
        (path,) = ckpt.glob("dynamic-*.npz")
        set_header_meta(path, "ab")
        from repro.cli import main

        assert main([*argv, "--resume"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        err = err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err

    def test_resume_requires_checkpoint_dir(self, tmp_path):
        from repro.cli import main

        stream = tmp_path / "u.jsonl"
        stream.write_text(self.STREAM)
        rc = main(["update", "amazon", "--updates", str(stream), "--resume"])
        assert rc == 2  # ParameterError
