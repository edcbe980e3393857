"""repro.telemetry: instruments, merge protocol, tracing, and the golden
end-to-end consistency test (ISSUE 1 acceptance criteria)."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import EfficientIMM, IMMParams, telemetry
from repro.telemetry import (
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
)
from repro.telemetry.export import bench_payload
from repro.telemetry.tracing import MAX_ROOTS


# ------------------------------------------------------------- instruments
class TestInstruments:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.counter("c").inc(2.5)
        reg.gauge("g").set(7)
        snap = reg.snapshot()
        assert snap["counters"]["c"] == 3.5
        assert snap["gauges"]["g"] == 7.0

    def test_name_kind_collision_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(KeyError):
            reg.gauge("x")

    def test_histogram_percentiles_uniform(self):
        h = Histogram()
        values = [i / 1000 for i in range(1, 1001)]  # 1ms .. 1s
        for v in values:
            h.observe(v)
        assert h.count == 1000
        assert h.min == pytest.approx(0.001)
        assert h.max == pytest.approx(1.0)
        # Geometric buckets (base 2^0.25): <= ~19% relative error.
        assert h.percentile(0.5) == pytest.approx(0.5, rel=0.2)
        assert h.percentile(0.95) == pytest.approx(0.95, rel=0.2)
        assert h.percentile(0.99) == pytest.approx(0.99, rel=0.2)
        assert h.percentile(0.0) >= h.min
        assert h.percentile(1.0) <= h.max

    def test_histogram_empty_and_roundtrip(self):
        h = Histogram()
        assert h.percentile(0.5) == 0.0
        h.observe(0.25)
        h2 = Histogram.from_dict(h.to_dict())
        assert h2.count == 1 and h2.sum == pytest.approx(0.25)

    def test_histogram_tiny_values_clamp_to_floor_bucket(self):
        h = Histogram()
        h.observe(0.0)
        h.observe(1e-12)
        assert h.counts == {0: 2}

    @pytest.mark.parametrize("kind", ("int", "float"))
    def test_observe_many_matches_observe_loop(self, kind):
        rng = np.random.default_rng(3)
        if kind == "int":
            values = rng.geometric(0.4, size=5_000)
        else:
            values = np.concatenate(
                (rng.random(5_000), rng.random(200) * 1e-10, [0.0, 0.5, 0.5])
            )
        one, many = Histogram(), Histogram()
        one.observe(1.0)  # both start from earlier observations
        many.observe(1.0)
        for v in values:
            one.observe(v)
        many.observe_many(values)
        assert many.counts == one.counts
        assert (many.count, many.min, many.max) == (one.count, one.min, one.max)
        if kind == "int":
            assert many.sum == one.sum
        else:
            assert many.sum == pytest.approx(one.sum, rel=1e-12)

    def test_observe_many_empty_is_a_no_op(self):
        h = Histogram()
        h.observe_many([])
        h.observe_many(np.empty(0, dtype=np.int64))
        assert h.to_dict() == Histogram().to_dict()


class TestThreadSafety:
    """Instruments are mutated from gateway handler threads and the engine
    executor concurrently; `+=` on a Python float is not atomic (it is a
    read-modify-write across bytecodes), so these hammers would lose
    updates without the per-instrument locks."""

    def _hammer(self, fn, threads=8, iters=10_000):
        import threading

        barrier = threading.Barrier(threads)

        def run():
            barrier.wait()  # maximise interleaving
            for _ in range(iters):
                fn()

        ts = [threading.Thread(target=run) for _ in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        return threads * iters

    def test_counter_increments_are_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("hammered")
        total = self._hammer(c.inc)
        assert c.value == total

    def test_histogram_observations_are_exact(self):
        h = Histogram()
        total = self._hammer(lambda: h.observe(0.01), threads=4, iters=5_000)
        assert h.count == total
        assert h.sum == pytest.approx(total * 0.01)

    def test_snapshot_during_concurrent_observes(self):
        import threading

        h = Histogram()
        stop = threading.Event()

        def write():
            while not stop.is_set():
                h.observe(0.5)

        writer = threading.Thread(target=write)
        writer.start()
        try:
            for _ in range(200):
                doc = h.to_dict()
                # A snapshot must be internally consistent: the bucket
                # counts always sum to the reported count.
                assert sum(doc["counts"].values()) == doc["count"]
                assert h.percentile(0.5) >= 0.0
        finally:
            stop.set()
            writer.join()

    def test_gauge_set_from_threads_is_one_written_value(self):
        reg = MetricsRegistry()
        g = reg.gauge("level")
        values = list(range(16))
        self._hammer(lambda: g.set(values[0]), threads=2, iters=10)
        import threading

        ts = [
            threading.Thread(target=lambda v=v: g.set(v)) for v in values
        ]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert g.value in values


# ----------------------------------------------------------- merge protocol
class TestMergeProtocol:
    def test_merge_snapshots_adds(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").inc(2)
        b.counter("n").inc(3)
        a.histogram("h").observe(1.0)
        b.histogram("h").observe(2.0)
        merged = merge_snapshots([a.snapshot(), b.snapshot()])
        assert merged["counters"]["n"] == 5.0
        assert merged["histograms"]["h"]["count"] == 2
        assert merged["histograms"]["h"]["sum"] == pytest.approx(3.0)

    def test_diff_snapshots_is_the_delta(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(5)
        reg.histogram("h").observe(1.0)
        before = reg.snapshot()
        reg.counter("n").inc(2)
        reg.counter("fresh").inc()
        reg.histogram("h").observe(4.0)
        delta = diff_snapshots(reg.snapshot(), before)
        assert delta["counters"] == {"n": 2.0, "fresh": 1.0}
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(4.0)

    def test_diff_then_merge_roundtrips(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(10)
        before = reg.snapshot()
        reg.counter("n").inc(7)
        base = MetricsRegistry()
        base.counter("n").inc(10)
        base.merge_snapshot(diff_snapshots(reg.snapshot(), before))
        assert base.snapshot()["counters"]["n"] == 17.0


# ----------------------------------------------------------------- tracing
class TestTracing:
    def test_span_nesting_and_durations(self):
        with telemetry.session() as tel:
            with tel.span("outer", label="x"):
                with tel.span("inner"):
                    pass
        (outer,) = tel.tracer.find("outer")
        assert [c.name for c in outer.children] == ["inner"]
        assert outer.duration_s >= outer.children[0].duration_s >= 0.0
        assert outer.attrs["label"] == "x"

    def test_chrome_trace_event_format(self):
        with telemetry.session() as tel:
            with tel.span("a"):
                with tel.span("b"):
                    pass
        doc = tel.tracer.to_chrome_trace()
        text = json.dumps(doc)  # must be valid JSON
        assert "traceEvents" in json.loads(text)
        for ev in doc["traceEvents"]:
            assert ev["ph"] == "X"
            assert ev["dur"] >= 0.0 and ev["ts"] >= 0.0
            assert isinstance(ev["pid"], int) and isinstance(ev["tid"], int)

    def test_root_retention_keeps_newest_trees(self):
        extra = 5
        with telemetry.session() as tel:
            for i in range(MAX_ROOTS + extra):
                with tel.span("batch", i=i):
                    with tel.span("selection", i=i):
                        pass
        roots = tel.tracer.roots
        assert isinstance(roots, list) and len(roots) == MAX_ROOTS
        assert [r.attrs["i"] for r in roots] == list(
            range(extra, MAX_ROOTS + extra)
        )
        assert all(
            [(c.name, c.attrs["i"]) for c in r.children]
            == [("selection", r.attrs["i"])]
            for r in roots
        )
        assert tel.tracer.dropped_roots == extra
        doc = tel.tracer.to_dict()
        assert doc["dropped_roots"] == extra and len(doc["spans"]) == MAX_ROOTS
        tel.tracer.clear()
        assert tel.tracer.roots == [] and tel.tracer.dropped_roots == 0

    def test_disabled_span_is_noop(self):
        assert not telemetry.is_enabled()
        with telemetry.span("nothing"):
            pass
        assert telemetry.get().tracer.roots == []

    def test_traced_decorator(self):
        @telemetry.traced("decorated.fn")
        def fn(x):
            return x * 2

        assert fn(2) == 4  # disabled: no span
        with telemetry.session() as tel:
            assert fn(3) == 6
        assert len(tel.tracer.find("decorated.fn")) == 1

    def test_memory_session_attributes_tracemalloc(self):
        with telemetry.session(memory=True) as tel:
            with tel.span("alloc"):
                _ = [0] * 50_000
        (span,) = tel.tracer.find("alloc")
        assert span.attrs["mem_peak_bytes"] > 0


# ------------------------------------------------------------ golden e2e
class TestGoldenEfficientIMM:
    @pytest.fixture(scope="class")
    def run(self, amazon_ic):
        with telemetry.session() as tel:
            result = EfficientIMM(amazon_ic).run(
                IMMParams(k=5, epsilon=0.5, theta_cap=400, seed=0)
            )
        return tel, result

    def test_span_tree_contains_phases(self, run):
        tel, _ = run
        (root,) = tel.tracer.find("imm.run")
        names = {s.name for s in root.iter_tree()}
        assert {"imm.run", "imm.sampling", "imm.selection"} <= names
        # Sampling and selection are children of the run span, and the
        # final selection phase is present.
        phases = [s.attrs.get("phase") for s in root.find("imm.selection")]
        assert "final" in phases

    def test_counters_agree_with_result(self, run):
        tel, result = run
        snap = tel.snapshot()
        c, g = snap["counters"], snap["gauges"]
        assert g["imm.theta"] == result.theta
        assert g["imm.num_rrrsets"] == result.num_rrrsets
        assert g["imm.k"] == result.params.k
        assert g["imm.num_seeds"] == result.seeds.size == result.params.k
        # RRR sets recorded by the sampler == sketch store size == result.
        assert c["sampling.rrr_sets"] == result.num_rrrsets
        assert g["sketch.store.sets"] == result.num_rrrsets
        assert snap["histograms"]["sampling.set_size"]["count"] == result.num_rrrsets

    def test_counters_non_negative_and_consistent(self, run):
        tel, result = run
        snap = tel.snapshot()
        assert all(v >= 0 for v in snap["counters"].values())
        assert all(
            math.isfinite(v) for v in snap["gauges"].values()
        )
        c = snap["counters"]
        assert c["imm.martingale_rounds"] >= 1
        # Every selection round used exactly one update method.
        methods = sum(
            v for k, v in c.items() if k.startswith("selection.method.")
        )
        assert methods == c["selection.rounds"]
        # The wall-clock phase breakdown matches the result's StageTimes.
        assert c["phase.generate_rrrsets_s"] == pytest.approx(
            result.times.stages["Generate_RRRsets"]
        )

    def test_chrome_trace_and_metrics_export(self, run, tmp_path):
        tel, result = run
        paths = telemetry.write_report(tmp_path, tel, run={"dataset": "amazon"})
        metrics = json.loads(paths["metrics"].read_text())
        assert metrics["schema"] == "repro-telemetry/1"
        assert metrics["gauges"]["imm.theta"] == result.theta
        trace = json.loads(paths["trace"].read_text())
        assert trace["traceEvents"]
        assert trace["spanTree"]["spans"][0]["name"] == "imm.run"


# ------------------------------------------- simulated vs real: one schema
class TestUnifiedSchema:
    def test_serial_and_multiprocess_emit_same_sampling_names(self, amazon_ic):
        from repro.core.parallel_sampling import parallel_generate
        from repro.runtime.backends import SerialBackend

        with telemetry.session() as tel_serial:
            parallel_generate(
                amazon_ic, "IC", 20, num_workers=2, seed=3,
                backend=SerialBackend(),
            )
        with telemetry.session() as tel_mp:
            parallel_generate(amazon_ic, "IC", 20, num_workers=2, seed=3)

        s_ser, s_mp = tel_serial.snapshot(), tel_mp.snapshot()
        shared = {"sampling.rrr_sets", "sampling.edges_examined", "runtime.tasks"}
        assert shared <= set(s_ser["counters"])
        assert shared <= set(s_mp["counters"])
        # Identical seeds => identical sampled work, whatever the backend.
        for name in ("sampling.rrr_sets", "sampling.edges_examined"):
            assert s_ser["counters"][name] == s_mp["counters"][name]
        # Only backend-specific fields may differ in kind.
        assert s_mp["counters"]["runtime.reduce_s"] >= 0.0

    def test_simmachine_counters_share_registry(self, amazon_ic):
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model
        from repro.simmachine.instrumented import trace_efficient_selection
        from repro.simmachine.topology import perlmutter

        sampler = RRRSampler(
            get_model("IC", amazon_ic), SamplingConfig.efficientimm(), seed=0
        )
        sampler.extend(50)
        with telemetry.session() as tel:
            trace_efficient_selection(sampler.store, 3, 2, perlmutter())
        c = tel.snapshot()["counters"]
        assert c["cache.efficientimm.selection.l1_hits"] > 0
        assert c["cache.efficientimm.selection.l1_misses"] >= 0


# --------------------------------------------------------------- bench JSON
def test_bench_payload_schema():
    reg = MetricsRegistry()
    reg.counter("x").inc(2)
    doc = bench_payload("unit", reg, fields={"threads": 8})
    assert doc["schema"] == "repro-bench/1"
    assert doc["bench"] == "unit"
    assert doc["fields"]["threads"] == 8
    assert doc["metrics"]["counters"]["x"] == 2.0
    json.dumps(doc)  # serialisable
