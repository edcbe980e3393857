import asyncio
import json
import time

import numpy as np

import loadgen

QUERY = {"dataset": "amazon", "model": "IC", "epsilon": 0.5, "seed": 0}


async def fake_gateway(stall_id=None, stall_s=0.0):
    """A JSON-lines server answering instantly, except that the request
    ``stall_id`` holds up every answer for ``stall_s``."""
    lock = asyncio.Lock()

    async def handle(reader, writer):
        while line := await reader.readline():
            doc = json.loads(line)
            async with lock:
                if doc["id"] == stall_id:
                    await asyncio.sleep(stall_s)
                writer.write((json.dumps({
                    "id": doc["id"], "status": "ok", "seeds": [1, 2],
                    "latency_s": 0.0,
                }) + "\n").encode())
                await writer.drain()
        writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)
    return server, server.sockets[0].getsockname()[1]


def run_open(offsets, stall_id=None, stall_s=0.0, block_at=None):
    async def main():
        server, port = await fake_gateway(stall_id, stall_s)
        blocker = None
        if block_at is not None:
            async def block():  # the generator's own loop stalls
                await asyncio.sleep(block_at)
                time.sleep(0.2)
            blocker = asyncio.ensure_future(block())
        try:
            return await loadgen.open_loop(
                "127.0.0.1", port, QUERY, offsets, [5] * len(offsets), timeout_s=5
            )
        finally:
            if blocker is not None:
                await blocker
            server.close()
            await server.wait_closed()

    return {s["id"]: s for s in asyncio.run(main())}


def latency(s):
    return s["done"] - s["due"]


def test_stalled_server_raises_later_requests_latency():
    offsets = [0.02 * i for i in range(20)]
    samples = run_open(offsets, stall_id="o2", stall_s=0.3)
    assert all(s["status"] == "ok" for s in samples.values())
    # The generator kept its schedule while the server stalled...
    assert max(s["sent"] - s["due"] for s in samples.values()) < 0.05
    # ...so requests due during the stall wait for it, from their due time.
    assert latency(samples["o3"]) > 0.2
    assert latency(samples["o3"]) > latency(samples["o8"]) > latency(samples["o14"])
    assert latency(samples["o19"]) < 0.05
    assert latency(samples["o0"]) < 0.05


def test_generator_lag_is_recorded_and_charged():
    offsets = [0.02 * i for i in range(15)]
    samples = run_open(offsets, block_at=0.05)
    lags = {k: s["sent"] - s["due"] for k, s in samples.items()}
    assert max(lags.values()) > 0.1
    late = max(lags, key=lags.get)
    assert latency(samples[late]) >= lags[late]


def closed(ks_per_client, stall_id=None, stall_s=0.0, timeout_s=30.0):
    async def main():
        server, port = await fake_gateway(stall_id, stall_s)
        try:
            return await loadgen.closed_loop(
                "127.0.0.1", port, QUERY, ks_per_client, timeout_s=timeout_s
            )
        finally:
            server.close()
            await server.wait_closed()

    return asyncio.run(main())


def test_closed_loop_sends_every_budget_one_at_a_time_per_client():
    samples, elapsed = closed([[5] * 30, [10] * 20], stall_id="c0-3", stall_s=0.2)
    assert len(samples) == 50 and all(s["status"] == "ok" for s in samples)
    assert 0.2 < elapsed < 2.0
    assert sorted(s["k"] for s in samples) == [5] * 30 + [10] * 20
    # One request in flight per client: the stall delayed only what came after.
    by_id = {s["id"]: s for s in samples}
    assert by_id["c0-4"]["sent"] >= by_id["c0-3"]["done"]


def test_closed_loop_marks_unanswered_requests_missing():
    samples, _ = closed([[5] * 5], stall_id="c0-2", stall_s=1.0, timeout_s=0.2)
    assert [s["status"] for s in samples] == ["ok", "ok", "missing", "missing", "missing"]


def test_schedules_are_seeded():
    a = np.random.default_rng(7)
    b = np.random.default_rng(7)
    assert loadgen.poisson_offsets(a, 20.0, 50) == loadgen.poisson_offsets(b, 20.0, 50)
    ks = loadgen.zipf_ks(np.random.default_rng(1), 2000)
    assert set(ks) <= set(loadgen.K_CHOICES)
    assert ks.count(5) > ks.count(10) > ks.count(50)
