"""repro.gateway: wire helpers, admission control, shedding, clients, loadgen.

The overload tests run against a deliberately slow fake engine so the
timing windows are controlled by the test, not by sampling noise; the
acceptance test (gateway answers == direct engine answers under light
load) runs against two real :class:`QueryEngine` instances on the amazon
replica.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time

import pytest

from repro.errors import BackendError, ParameterError
from repro.gateway import (
    GatewayClient,
    GatewayConfig,
    GatewayServer,
    GatewayStats,
    LoadGenConfig,
    run_loadgen,
    serve_in_thread,
)
from repro.gateway.client import (
    AsyncGatewayClient,
    decode_response_line,
    encode_control,
    encode_queries,
)
from repro.resilience import RetryPolicy
from repro.service import EngineConfig, IMQuery, IMResponse, QueryEngine
from repro.service.protocol import parse_request_line


def _q(dataset="amazon", **kw) -> IMQuery:
    kw.setdefault("theta_cap", 200)
    return IMQuery(dataset=dataset, **kw)


class FakeEngine:
    """Answers every query after ``delay_s``; records the batches it saw."""

    def __init__(self, delay_s: float = 0.0):
        self.delay_s = delay_s
        self.batches: list[list[IMQuery]] = []

    def execute(self, queries):
        if self.delay_s:
            time.sleep(self.delay_s)
        self.batches.append(list(queries))
        return [
            IMResponse(
                status="ok", id=q.id, seeds=list(range(q.k)),
                spread_estimate=float(q.k), coverage_fraction=1.0,
                num_rrrsets=1,
            )
            for q in queries
        ]

    def stats_snapshot(self):
        return {"fake": {"batches": len(self.batches)}}


class ColdThenWarmEngine(FakeEngine):
    """Samples for ``cold_s`` on its first batch; answers every later batch
    at once from its cache, marked ``cached``."""

    def __init__(self, cold_s: float):
        super().__init__()
        self.cold_s = cold_s

    def execute(self, queries):
        cold = not self.batches
        if cold:
            time.sleep(self.cold_s)
        responses = super().execute(queries)
        for r in responses:
            r.cached = not cold
        return responses


class ColdOnlyEngine(FakeEngine):
    """Fails its first batch at once, then answers every later batch after
    ``delay_s``, never from a cache."""

    def execute(self, queries):
        if not self.batches:
            self.batches.append(list(queries))
            return [
                IMResponse(status="error", id=q.id, error="unknown dataset")
                for q in queries
            ]
        return super().execute(queries)


class FakeConn:
    """A connection that records what the gateway sends it."""

    def __init__(self):
        self.sent = []

    async def send(self, doc):
        self.sent.append(doc)


def _raw_roundtrip(host, port, lines, expected, timeout=15.0):
    """Pipeline several request lines on one socket, read ``expected``
    response lines back (the shape the sync client cannot produce)."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        f = sock.makefile("rwb")
        f.write(("\n".join(lines) + "\n").encode())
        f.flush()
        return [decode_response_line(f.readline()) for _ in range(expected)]


class TestWireHelpers:
    def test_single_query_roundtrip(self):
        q = _q(k=7, deadline_s=1.5, id="a")
        line = encode_queries([q])
        assert json.loads(line)["k"] == 7  # bare object, not a batch
        [back] = parse_request_line(line)
        assert back == q

    def test_batch_roundtrip(self):
        qs = [_q(k=3), _q(k=9, id="x")]
        line = encode_queries(qs)
        assert "queries" in json.loads(line)
        assert parse_request_line(line) == qs

    def test_empty_batch_rejected(self):
        with pytest.raises(ParameterError):
            encode_queries([])

    def test_control_roundtrip(self):
        line = encode_control("stats")
        parsed = parse_request_line(line)
        assert parsed == {"op": "stats"}
        assert encode_control("kill", shard=1)
        with pytest.raises(ParameterError):
            encode_control("")

    def test_decode_response_line(self):
        resp = IMResponse(status="ok", seeds=[1, 2], id="z")
        back = decode_response_line(resp.to_json())
        assert isinstance(back, IMResponse)
        assert back.seeds == [1, 2] and back.id == "z"
        assert decode_response_line('{"op": "ping", "status": "ok"}') == {
            "op": "ping", "status": "ok"
        }
        with pytest.raises(ParameterError):
            decode_response_line("not json")
        with pytest.raises(ParameterError):
            decode_response_line("[1, 2]")

    def test_response_from_dict_ignores_unknown_keys(self):
        doc = {"status": "ok", "seeds": [4], "new_server_field": 1}
        assert IMResponse.from_dict(doc).seeds == [4]
        with pytest.raises(ParameterError):
            IMResponse.from_dict({"seeds": [4]})

    def test_overloaded_response_carries_retry_after(self):
        resp = IMResponse(
            status="overloaded", error="overloaded: queue full",
            retry_after_s=0.25,
        )
        doc = resp.to_dict()
        assert doc["retry_after_s"] == 0.25
        back = IMResponse.from_dict(doc)
        assert back.retry_after_s == 0.25 and not back.ok


class TestGatewayConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            {"max_connections": 0},
            {"queue_depth": 0},
            {"queue_deadline_s": 0},
            {"batch_window_s": -1},
            {"batch_max": 0},
            {"rate_limit_per_s": 0},
            {"idle_timeout_s": 0},
            {"max_line_bytes": 10},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises(ParameterError):
            GatewayConfig(**kw)

    def test_stats_shed_sums_categories(self):
        stats = GatewayStats(
            shed_queue_full=1, shed_deadline=2, shed_stale=3,
            shed_rate_limited=4,
        )
        assert stats.shed == 10
        assert stats.to_dict()["shed"] == 10

    def test_engine_must_be_executable(self):
        with pytest.raises(ParameterError):
            GatewayServer(object())


class TestGatewayServing:
    def test_roundtrip_and_stats(self):
        engine = FakeEngine()
        with serve_in_thread(engine, config=GatewayConfig()) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                resp = client.query(_q(k=4, id="r1"))
                assert resp.ok and resp.seeds == [0, 1, 2, 3]
                assert resp.id == "r1"
                assert resp.latency_s > 0  # end-to-end, stamped by the gateway
                stats = client.stats()
        assert stats["gateway"]["accepted"] == 1
        assert stats["fake"]["batches"] == 1  # engine snapshot folded in
        assert stats["status"] == "ok"

    def test_multi_query_line_keeps_order(self):
        engine = FakeEngine()
        with serve_in_thread(engine, config=GatewayConfig()) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                resps = client.execute([_q(k=k) for k in (5, 2, 8)])
        assert [len(r.seeds) for r in resps] == [5, 2, 8]
        assert all(r.id is None for r in resps)  # invented ids are stripped

    def test_string_deadline_line_answered_then_next_query(self):
        engine = FakeEngine()
        with serve_in_thread(engine, config=GatewayConfig()) as srv:
            bad = json.dumps(
                {"dataset": "amazon", "k": 3, "theta_cap": 200, "deadline_s": "5"}
            )
            good = encode_queries([_q(k=2, id="after")])
            out = _raw_roundtrip(srv.host, srv.port, [bad, good], expected=2)
        assert out[0].status == "error"
        assert "deadline_s must be a number" in out[0].error
        assert out[1].ok and out[1].id == "after" and out[1].seeds == [0, 1]

    def test_micro_batch_coalescing(self):
        engine = FakeEngine()
        config = GatewayConfig(batch_window_s=0.2, batch_max=8)
        with serve_in_thread(engine, config=config) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                client.execute([_q(k=k, id=f"c{k}") for k in (1, 2, 3)])
        # All three queries of the line were admitted inside one window, so
        # the engine saw them as one batch (one selection pass downstream).
        assert any(len(b) == 3 for b in engine.batches)

    def test_lone_query_after_fast_batch_skips_the_window(self):
        # A warm batch much faster than the window: the next lone query
        # dispatches at once instead of waiting out the window for company.
        engine = FakeEngine()
        config = GatewayConfig(batch_window_s=0.5)
        with serve_in_thread(engine, config=config) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                assert client.query(_q(k=2, id="first")).ok
                second = client.query(_q(k=3, id="second"))
        assert second.ok and second.latency_s < 0.25
        assert [len(b) for b in engine.batches] == [1, 1]

    def test_slow_batch_keeps_coalescing(self):
        # After a batch slower than the window, the dispatcher waits for
        # company again: two clients 50 ms apart share one engine batch.
        engine = FakeEngine(delay_s=0.3)
        config = GatewayConfig(batch_window_s=0.2)
        with serve_in_thread(engine, config=config) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                assert client.query(_q(k=1, id="slow")).ok
            out: dict[str, IMResponse] = {}

            def send(qid):
                with GatewayClient(srv.host, srv.port) as c:
                    out[qid] = c.query(_q(k=2, id=qid))

            first = threading.Thread(target=send, args=("a",))
            first.start()
            time.sleep(0.05)
            send("b")
            first.join(timeout=15)
            assert not first.is_alive()
        assert out["a"].ok and out["b"].ok
        assert sorted(q.id for q in engine.batches[-1]) == ["a", "b"]

    def test_queue_full_sheds_overloaded(self):
        engine = FakeEngine(delay_s=0.4)
        config = GatewayConfig(queue_depth=1, batch_max=1, batch_window_s=0.0)
        with serve_in_thread(engine, config=config) as srv:
            lines = [
                encode_queries([_q(k=1, id=f"q{i}")]) for i in range(4)
            ]
            out = _raw_roundtrip(srv.host, srv.port, lines, expected=4)
            shed = [r for r in out if r.status == "overloaded"]
            served = [r for r in out if r.ok]
            # q0 goes straight to the engine, q1 fills the depth-1 queue;
            # at least one of the rest must hit the full queue.
            assert shed and served
            for r in shed:
                assert r.retry_after_s is not None and r.retry_after_s > 0
                assert "admission queue" in r.error
            snap = srv.stats
            assert snap.shed_queue_full >= 1
            assert snap.shed_queue_full == len(shed)

    def test_rate_limit_sheds_excess(self):
        engine = FakeEngine()
        config = GatewayConfig(rate_limit_per_s=5.0, rate_limit_burst=2.0)
        with serve_in_thread(engine, config=config) as srv:
            with GatewayClient(srv.host, srv.port, retry=None) as client:
                resps = client.execute([_q(k=1, id=f"r{i}") for i in range(4)])
        statuses = [r.status for r in resps]
        assert statuses.count("ok") == 2  # the burst
        assert statuses.count("overloaded") == 2
        shed = [r for r in resps if r.status == "overloaded"]
        assert all("rate limit" in r.error for r in shed)
        assert srv.stats.shed_rate_limited == 2

    def test_client_deadline_expired_in_queue_is_timeout(self):
        engine = FakeEngine(delay_s=0.3)
        config = GatewayConfig(batch_max=1, batch_window_s=0.0)
        with serve_in_thread(engine, config=config) as srv:
            lines = [
                encode_queries([_q(k=1, id="busy")]),
                encode_queries([_q(k=1, id="late", deadline_s=0.05)]),
            ]
            out = _raw_roundtrip(srv.host, srv.port, lines, expected=2)
        by_id = {r.id: r for r in out}
        assert by_id["busy"].ok
        # The deadline expired while the query sat behind the busy engine:
        # answered "timeout" (never silently served late), not "overloaded".
        assert by_id["late"].status == "timeout"
        assert "expired" in by_id["late"].error
        assert srv.stats.timeouts == 1

    def test_queue_deadline_sheds_stale_work(self):
        engine = FakeEngine(delay_s=0.3)
        config = GatewayConfig(
            batch_max=1, batch_window_s=0.0, queue_deadline_s=0.05
        )
        with serve_in_thread(engine, config=config) as srv:
            lines = [
                encode_queries([_q(k=1, id="busy")]),
                encode_queries([_q(k=1, id="stale")]),  # no client deadline
            ]
            out = _raw_roundtrip(srv.host, srv.port, lines, expected=2)
        by_id = {r.id: r for r in out}
        assert by_id["busy"].ok
        assert by_id["stale"].status == "overloaded"
        assert "queue deadline" in by_id["stale"].error
        assert srv.stats.shed_stale == 1

    def test_predicted_wait_sheds_doomed_queries_at_admission(self):
        # Unit-level: with an EMA predicting a 5 s/query engine and one
        # query already queued, a 1 s-deadline query is doomed — shed at
        # admission instead of queued into a guaranteed timeout.
        async def scenario():
            server = GatewayServer(FakeEngine(), config=GatewayConfig())
            server._queue = asyncio.Queue(maxsize=4)
            server._queue.put_nowait(object())
            server._ema_query_s = 5.0
            conn = FakeConn()
            await server._admit(
                _q(k=1, deadline_s=1.0, id="doomed"), conn, time.monotonic()
            )
            return server, conn

        server, conn = asyncio.run(scenario())
        [doc] = conn.sent
        assert doc["status"] == "overloaded"
        assert "predicted queue wait" in doc["error"]
        assert doc["retry_after_s"] >= 5.0
        assert server.stats.shed_deadline == 1

    def test_cold_batch_does_not_inflate_the_predicted_wait(self):
        # One 0.5 s cold build, then 20 warm batches: the EMA tracks the
        # warm ones (folding the cold one in, it reads 0.5 s * 0.8**20, or
        # ~5.8 ms), so a tight deadline behind a queue of one is admitted.
        with serve_in_thread(ColdThenWarmEngine(0.5)) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                assert not client.query(_q(k=5, id="cold")).cached
                for i in range(20):
                    assert client.query(_q(k=1 + i % 5, id=f"w{i}")).cached
                ema = client.stats()["gateway"]["ema_query_s"]
        assert ema < 1e-3

        async def scenario():
            server = GatewayServer(FakeEngine(), config=GatewayConfig())
            server._queue = asyncio.Queue(maxsize=4)
            server._queue.put_nowait(object())
            server._ema_query_s = ema
            conn = FakeConn()
            await server._admit(
                _q(k=1, deadline_s=0.01, id="tight"), conn, time.monotonic()
            )
            return server, conn

        server, conn = asyncio.run(scenario())
        assert conn.sent == [] and server._queue.qsize() == 2
        assert server.stats.accepted == 1 and server.stats.shed_deadline == 0

    def test_cold_traffic_keeps_the_predicted_wait_current(self):
        # No batch is ever warm and the first one fails at once: the EMA
        # follows the later 20 ms batches (>= 20 ms * (1 - 0.8**10), or
        # ~18 ms) instead of keeping the failure's near-zero time.
        with serve_in_thread(ColdOnlyEngine(0.02)) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                assert client.query(_q(k=1, id="bad")).status == "error"
                for i in range(10):
                    resp = client.query(_q(k=1, id=f"c{i}"))
                    assert resp.ok and not resp.cached
                ema = client.stats()["gateway"]["ema_query_s"]
        assert ema > 0.015

    def test_connection_limit(self):
        engine = FakeEngine()
        config = GatewayConfig(max_connections=1)
        with serve_in_thread(engine, config=config) as srv:
            with GatewayClient(srv.host, srv.port) as first:
                assert first.control("ping")["status"] == "ok"
                with socket.create_connection(
                    (srv.host, srv.port), timeout=10
                ) as sock:
                    f = sock.makefile("rb")
                    resp = decode_response_line(f.readline())
                    assert resp.status == "overloaded"
                    assert "connection limit" in resp.error
                    assert f.readline() == b""  # server closed it
        assert srv.stats.rejected_connections == 1

    def test_oversized_line_is_structured_error(self):
        engine = FakeEngine()
        config = GatewayConfig(max_line_bytes=256)
        with serve_in_thread(engine, config=config) as srv:
            with socket.create_connection((srv.host, srv.port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b'{"dataset": "' + b"x" * 500 + b'"}\n')
                f.flush()
                resp = decode_response_line(f.readline())
        assert resp.status == "error"
        assert "256-byte limit" in resp.error
        assert srv.stats.bad_requests == 1

    def test_malformed_json_keeps_connection_usable(self):
        engine = FakeEngine()
        with serve_in_thread(engine, config=GatewayConfig()) as srv:
            lines = ["this is not json", encode_queries([_q(k=2, id="after")])]
            out = _raw_roundtrip(srv.host, srv.port, lines, expected=2)
        assert out[0].status == "error" and "bad JSON" in out[0].error
        assert out[1].ok and out[1].id == "after"

    def test_engine_exception_becomes_error_response(self):
        def broken(queries):
            raise RuntimeError("engine fell over")

        with serve_in_thread(broken, config=GatewayConfig()) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                resp = client.query(_q(k=1))
                assert resp.status == "error"
                assert "engine fell over" in resp.error
                # The dispatcher survived: the next query is answered too.
                resp2 = client.query(_q(k=1))
                assert resp2.status == "error"
        assert srv.stats.errors == 2

    def test_control_ops(self):
        with serve_in_thread(FakeEngine(), config=GatewayConfig()) as srv:
            with GatewayClient(srv.host, srv.port) as client:
                assert client.control("ping") == {"status": "ok", "op": "ping"}
                unknown = client.control("nonsense")
                assert unknown["status"] == "error"
                assert client.control("shutdown")["status"] == "ok"
            deadline = time.monotonic() + 10
            while not srv._stopped and time.monotonic() < deadline:
                time.sleep(0.01)
            assert srv._stopped  # the shutdown op stopped the server


class TestGatewayClientRetry:
    def test_client_retries_after_overload_and_succeeds(self):
        engine = FakeEngine()
        # burst=1: the first query drains the bucket; the retry lands after
        # the ~retry_after hint once a token has refilled at 50/s.
        config = GatewayConfig(rate_limit_per_s=50.0, rate_limit_burst=1.0)
        with serve_in_thread(engine, config=config) as srv:
            retry = RetryPolicy(max_attempts=4, base_delay_s=0.02, max_delay_s=0.2)
            with GatewayClient(srv.host, srv.port, retry=retry) as client:
                assert client.query(_q(k=1)).ok
                resp = client.query(_q(k=2))
        assert resp.ok
        assert srv.stats.shed_rate_limited >= 1  # at least one shed attempt

    def test_exhausted_overload_retries_return_responses(self):
        engine = FakeEngine()
        config = GatewayConfig(rate_limit_per_s=0.001, rate_limit_burst=1.0)
        with serve_in_thread(engine, config=config) as srv:
            retry = RetryPolicy(max_attempts=2, base_delay_s=0.01, max_delay_s=0.02)
            with GatewayClient(
                srv.host, srv.port, retry=retry, max_retry_after_s=0.05
            ) as client:
                assert client.query(_q(k=1)).ok  # eats the only token
                resp = client.query(_q(k=2))
        # Both attempts were shed; the client returns the structured
        # overloaded response rather than raising at the caller.
        assert resp.status == "overloaded"
        assert resp.retry_after_s is not None

    def test_client_connects_before_server(self):
        engine = FakeEngine()
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        results = []

        def late_query():
            retry = RetryPolicy(max_attempts=8, base_delay_s=0.1, max_delay_s=0.5)
            with GatewayClient("127.0.0.1", port, retry=retry) as client:
                results.append(client.query(_q(k=3)))

        t = threading.Thread(target=late_query)
        t.start()
        time.sleep(0.3)  # client is failing to connect during this window
        config = GatewayConfig(port=port)
        with serve_in_thread(engine, config=config):
            t.join(timeout=15)
        assert not t.is_alive() and results[0].ok

    def test_response_count_mismatch_raises(self):
        client = GatewayClient("127.0.0.1", 1, retry=None)
        # A control payload where an IMResponse belongs: the count check
        # must fire rather than hand back a short list.
        client._roundtrip = lambda line, expected: [{"op": "stats"}]
        with pytest.raises(BackendError):
            client.execute([_q(k=1)])


class TestEngineIdentity:
    """Acceptance: under light load the gateway is a transparent proxy."""

    def test_gateway_answers_match_direct_engine(self, tmp_path):
        def canon(resp):
            doc = resp.to_dict()
            doc.pop("latency_s")  # wall-clock differs; everything else must not
            return doc

        queries = [
            _q(k=5, id="a"),
            _q(k=5, id="b"),      # warm repeat
            _q(k=9, id="c"),      # same sketch, other k
            _q(k=3, model="LT", id="d"),
        ]
        with QueryEngine(config=EngineConfig()) as direct:
            want = [canon(r) for r in direct.execute(queries)]
        with QueryEngine(config=EngineConfig()) as backend:
            with serve_in_thread(backend, config=GatewayConfig()) as srv:
                with GatewayClient(srv.host, srv.port) as client:
                    got = [canon(r) for r in client.execute(queries)]
        assert got == want

    def test_gateway_fronts_dynamic_service(self, two_triangles):
        from repro.dynamic import DynamicService

        with DynamicService(
            "tri", two_triangles, num_sets=64, seed=1
        ) as service:
            with serve_in_thread(service, config=GatewayConfig()) as srv:
                with GatewayClient(srv.host, srv.port) as client:
                    resp = client.query(IMQuery(dataset="tri", k=2))
                    assert resp.ok and resp.epoch == 0
                    wrong = client.query(IMQuery(dataset="other", k=2))
                    assert wrong.status == "error"
                    assert "serves" in wrong.error

    def test_gateway_fronts_shard_cluster(self):
        from repro.shard import RouterConfig, ShardCluster, ShardPlan

        plan = ShardPlan(num_shards=2, replication=1)
        with ShardCluster(
            plan,
            engine_config=EngineConfig(),
            router_config=RouterConfig(default_theta=200),
        ) as cluster:
            with serve_in_thread(cluster, config=GatewayConfig()) as srv:
                with GatewayClient(srv.host, srv.port) as client:
                    resp = client.query(_q(k=4))
                    assert resp.ok and len(resp.seeds) == 4


class TestLoadGen:
    def test_config_validation(self):
        with pytest.raises(ParameterError):
            LoadGenConfig(mode="sideways")
        with pytest.raises(ParameterError):
            LoadGenConfig(rate_per_s=0)
        with pytest.raises(ParameterError):
            LoadGenConfig(concurrency=0)
        with pytest.raises(ParameterError):
            LoadGenConfig(k_choices=())

    def test_zipf_mix(self):
        probs = LoadGenConfig(zipf_s=1.5).mix_probabilities()
        assert probs.sum() == pytest.approx(1.0)
        assert all(a > b for a, b in zip(probs, probs[1:]))  # rank 1 hottest
        flat = LoadGenConfig(zipf_s=0.0).mix_probabilities()
        assert flat[0] == pytest.approx(flat[-1])

    def test_closed_loop_measures_capacity(self):
        engine = FakeEngine()
        with serve_in_thread(engine, config=GatewayConfig()) as srv:
            summary = run_loadgen(
                srv.host, srv.port,
                LoadGenConfig(
                    mode="closed", total_requests=30, concurrency=3,
                    dataset="any", seed=7,
                ),
            )
        assert summary["offered"] == 30
        assert summary["completed"] == 30
        assert summary["ok"] == 30 and summary["shed"] == 0
        assert summary["throughput_qps"] > 0
        assert summary["p99_ms"] >= summary["p50_ms"] >= 0

    def test_open_loop_past_capacity_sheds_but_stays_responsive(self):
        # Capacity with a 50 ms engine and a depth-1 queue is ~20 qps;
        # offering 200 qps is ~10x capacity, so the gateway must shed —
        # with structured responses, not hangs or errors.
        engine = FakeEngine(delay_s=0.05)
        config = GatewayConfig(
            queue_depth=1, batch_max=1, batch_window_s=0.0,
            queue_deadline_s=0.5,
        )
        with serve_in_thread(engine, config=config) as srv:
            summary = run_loadgen(
                srv.host, srv.port,
                LoadGenConfig(
                    mode="open", total_requests=40, rate_per_s=200.0,
                    concurrency=8, dataset="any", seed=11,
                ),
            )
        assert summary["completed"] + summary["transport_errors"] == 40
        assert summary["shed"] > 0
        assert summary["ok"] >= 1
        assert summary["error"] == 0
        # Accepted queries stayed within queue_deadline + service time.
        assert summary["p99_ms"] <= (0.5 + 0.05 + 0.2) * 1e3

    def test_loadgen_is_reproducible_in_offered_mix(self):
        c = LoadGenConfig(seed=3)
        import numpy as np

        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        picks1 = [int(rng1.choice(c.k_choices, p=c.mix_probabilities())) for _ in range(20)]
        picks2 = [int(rng2.choice(c.k_choices, p=c.mix_probabilities())) for _ in range(20)]
        assert picks1 == picks2
