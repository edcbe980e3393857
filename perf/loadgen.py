"""Open- and closed-loop load for the gateway's JSON-lines protocol.

The benchmark's own load generator: one process, one asyncio loop, at most
two connections.  Every request is kept as a raw sample, so percentiles are
exact.  In the open loop each request is timed from the moment it was *due*
to be sent, not from when the generator got round to sending it, so a stall
anywhere -- server or generator -- is charged to every request queued
behind it; how late the generator ran is kept per request as ``sent - due``.

Requests carry an ``id``; the server may answer a connection's pipelined
requests in any order, and responses are matched back by id.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from typing import Any, Sequence

import numpy as np

#: The served k mix: zipf over these budgets (most queries ask for few seeds).
K_CHOICES = (5, 10, 20, 35, 50)
ZIPF_S = 1.1


def zipf_ks(rng, count: int, ks: Sequence[int] = K_CHOICES, s: float = ZIPF_S,
            block: int = 100) -> list[int]:
    """``count`` seed budgets with zipf(``s``) frequencies over ``ks``.

    Stratified: every ``block`` consecutive budgets hold each k exactly in
    proportion (largest remainder), shuffled.  Independent draws would let
    the share of large, slow k -- and with it the tail percentiles --
    differ from seed to seed.
    """
    weights = [1.0 / (i + 1) ** s for i in range(len(ks))]
    exact = [block * w / sum(weights) for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(ks)), key=lambda i: exact[i] - counts[i], reverse=True)
    for i in by_remainder[: block - sum(counts)]:
        counts[i] += 1
    pool = [k for k, c in zip(ks, counts) for _ in range(c)]
    out: list[int] = []
    while len(out) < count:
        out += [pool[i] for i in rng.permutation(block)]
    return out[:count]


def poisson_offsets(rng, rate: float, count: int, block: int = 20) -> list[float]:
    """Send offsets (seconds from start) of ``count`` arrivals at ``rate``
    with exponential gaps, as from independent users.

    Stratified like :func:`zipf_ks`: every ``block`` consecutive gaps are
    the exponential distribution's ``block`` evenly spaced quantiles in
    random order, so every seed offers the same mix of short and long gaps
    throughout the run.
    """
    u = (np.arange(block) + 0.5) / block
    quantiles = -np.log1p(-u) / rate
    gaps = np.concatenate(
        [rng.permutation(quantiles) for _ in range(-(-count // block))]
    )[:count]
    return [float(x) for x in np.cumsum(gaps) - gaps[0]]


def new_sample(qid: str, k: int, due: float) -> dict[str, Any]:
    return {
        "id": qid, "k": k, "due": due, "sent": math.nan, "done": math.nan,
        "status": "missing", "seeds": [], "server_s": math.nan, "error": None,
    }


def _record(sample: dict[str, Any], doc: dict[str, Any], now: float) -> None:
    sample["done"] = now
    sample["status"] = doc.get("status", "error")
    sample["seeds"] = doc.get("seeds", [])
    sample["server_s"] = doc.get("latency_s", math.nan)
    sample["error"] = doc.get("error")


async def _connect(host: str, port: int, n: int):
    return [await asyncio.open_connection(host, port) for _ in range(n)]


async def _close(conns) -> None:
    for _reader, writer in conns:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def open_loop(
    host: str,
    port: int,
    query: dict[str, Any],
    offsets: Sequence[float],
    ks: Sequence[int],
    *,
    connections: int = 2,
    timeout_s: float = 30.0,
    prefix: str = "o",
) -> list[dict[str, Any]]:
    """Send one query per offset, round-robin over the connections, without
    waiting for answers; return one sample per request.

    A request still unanswered ``timeout_s`` after the last send keeps
    status ``"missing"``.
    """
    conns = await _connect(host, port, connections)
    pending: dict[str, dict[str, Any]] = {}
    all_sent = asyncio.Event()
    drained = asyncio.Event()

    async def read(reader) -> None:
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.perf_counter()
            doc = json.loads(line)
            sample = pending.pop(doc.get("id"), None)
            if sample is not None:
                _record(sample, doc, now)
            if all_sent.is_set() and not pending:
                drained.set()

    readers = [asyncio.ensure_future(read(r)) for r, _ in conns]
    samples = []
    start = time.perf_counter() + 0.01
    try:
        for i, (offset, k) in enumerate(zip(offsets, ks)):
            due = start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sample = new_sample(f"{prefix}{i}", k, due)
            pending[sample["id"]] = sample
            samples.append(sample)
            writer = conns[i % connections][1]
            sample["sent"] = time.perf_counter()
            writer.write((json.dumps({**query, "k": k, "id": sample["id"]}) + "\n").encode())
            await writer.drain()
        all_sent.set()
        if pending:
            try:
                await asyncio.wait_for(drained.wait(), timeout_s)
            except asyncio.TimeoutError:
                pass
    finally:
        for task in readers:
            task.cancel()
        await asyncio.gather(*readers, return_exceptions=True)
        await _close(conns)
    return samples


async def closed_loop(
    host: str,
    port: int,
    query: dict[str, Any],
    ks_per_client: Sequence[Sequence[int]],
    *,
    timeout_s: float = 30.0,
    prefix: str = "c",
) -> tuple[list[dict[str, Any]], float]:
    """One client per ``ks_per_client`` entry, each sending one query per
    budget in its list, the next as soon as the previous answer arrives.
    Returns one sample per budget and the elapsed time from start to the
    last answer.  A client stops at its first unanswered request; that
    request and the ones it did not send keep status ``"missing"``."""
    conns = await _connect(host, port, len(ks_per_client))
    samples: list[dict[str, Any]] = []
    start = time.perf_counter()

    async def client(cid: int, reader, writer, ks: Sequence[int]) -> None:
        answered = True
        for i, k in enumerate(ks):
            now = time.perf_counter()
            sample = new_sample(f"{prefix}{cid}-{i}", k, now)
            samples.append(sample)
            if not answered:
                continue
            sample["sent"] = now
            writer.write((json.dumps({**query, "k": k, "id": sample["id"]}) + "\n").encode())
            await writer.drain()
            try:
                line = await asyncio.wait_for(reader.readline(), timeout_s)
            except asyncio.TimeoutError:
                line = b""
            if not line:
                answered = False
                continue
            _record(sample, json.loads(line), time.perf_counter())

    try:
        await asyncio.gather(
            *(client(c, r, w, ks) for c, ((r, w), ks) in enumerate(zip(conns, ks_per_client)))
        )
    finally:
        await _close(conns)
    finished = [s["done"] for s in samples if not math.isnan(s["done"])]
    elapsed = (max(finished) if finished else time.perf_counter()) - start
    return samples, elapsed
