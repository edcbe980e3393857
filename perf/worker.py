"""One benchmark workload, run in its own process by ``perf/run.py``.

    python perf/worker.py WORKLOAD --seed N --seconds S --out-dir DIR
                          [--part J --parts P] [--trace] [--setup-only] [--tiny]

The worker sets up, prints ``@ready`` (run.py times set-up up to that
line), and unless ``--setup-only`` does its share of a fixed amount of
work, then prints ``@result`` and one JSON object with its raw samples and
every answer the program gave.  The answers are checked and scored by
run.py, not here.

The work is a count of operations -- IMM runs, closed-loop cycles, update
epochs -- that takes about ``--seconds`` on the reference host (see
:mod:`calibrate`).  It does not depend on how fast the host or the program
is, so a faster program does the same work in less time, and a slow spell
of the host does not change what was measured.  Only a host far slower
than the reference ends the work early (:class:`Budget`).  With
``--parts P`` the operations are dealt over P processes and this one does
every P-th, from the ``J``-th.

With ``--trace`` half the operations are measured untraced and the other
half with the wrappers of :mod:`tracing` installed; the difference is the
tracing overhead.  ``--tiny`` shrinks every input for the harness tests.
The program is driven only through its public entry points with default
settings.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import dataclasses
import json
import math
import os
import signal
import socket
import sys
import time
from pathlib import Path
from typing import Any, Callable, Iterable

import numpy as np

import loadgen
from calibrate import Calibrator, calibrate_each_cpu
from proc import Child
from tracing import Tracer, chrome_trace, request_layers

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent

#: Seed budget of every IMM run and of the reference answers.
K = 50

#: Every workload runs on the canonical replica (``load_dataset``'s default
#: instance), so runs under different seeds compare like with like: the
#: workload seed drives the sampling RNG, the update stream, the arrival
#: schedule and the k mix.  Replica instances differ from each other by up
#: to 15% in serving cost, which would swamp the bounds.
GRAPH_SEED = 0

#: Inputs per workload; ``tiny`` is for the harness tests only.  ``op_s``
#: is what one operation takes on the reference host: a run of ``--seconds``
#: does ``round(seconds / op_s)`` operations, and at least ``min_ops``.
#: imm-ic samples the half-scale replica: ``epsilon`` may not exceed 1, and
#: a full-scale run takes ~1.9 s, which leaves room for only seven runs and
#: a median that moved by up to 18% between seeds.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "imm-ic": {
        "full": {"model": "IC", "epsilon": 1.0, "scale": 0.5, "op_s": 1.0, "min_ops": 8},
        "tiny": {"model": "IC", "epsilon": 0.5, "scale": 0.1, "op_s": 1.0, "min_ops": 3},
    },
    "imm-lt": {
        "full": {"model": "LT", "epsilon": 0.5, "scale": 1.0, "op_s": 1.0, "min_ops": 8},
        "tiny": {"model": "LT", "epsilon": 0.5, "scale": 0.1, "op_s": 1.0, "min_ops": 3},
    },
    "serve-gateway": {
        "full": {"theta": 2000, "rate": 8.0, "op_s": 2.5, "min_ops": 3},
        "tiny": {"theta": 100, "rate": 8.0, "op_s": 2.5, "min_ops": 3},
    },
    "update-shard": {
        "full": {"scale": 1.0, "num_sets": 4000, "op_s": 0.25, "min_ops": 8},
        "tiny": {"scale": 0.1, "num_sets": 200, "op_s": 0.25, "min_ops": 8},
    },
}

#: update-shard: edge updates per epoch as a share of |E|, and queries after
#: each commit.  Batches this small keep the maintainer in repair mode
#: (about 5-15% of sets invalidated, under its 25% full-resample threshold).
BATCH_FRACTION = 0.0005
QUERIES_PER_EPOCH = 5

#: serve-gateway: one operation is a cycle of a closed loop on two
#: connections that send this many requests between them.  A cycle's
#: budgets are one stratified block of the k mix dealt out alternately, so
#: every cycle asks for the same budgets in another order.
CLOSED_PER_CYCLE = 100


#: See :class:`Budget`: the benchmark's 92 runs must end within the hour
#: even when the host runs at half speed for all of it.
OVERRUN = 1.6


def operations(cfg: dict[str, Any], seconds: float) -> int:
    """How many operations a run of ``seconds`` does."""
    return max(cfg["min_ops"], round(seconds / cfg["op_s"]))


def share(cfg: dict[str, Any], seconds: float, part: int, parts: int) -> tuple[range, Budget]:
    """The operations process ``part`` of ``parts`` does in a run of
    ``seconds`` -- every ``parts``-th -- and its budget: the same share of
    the run's time and of its minimum."""
    count = operations(cfg, seconds)
    mine = range(part, count, parts)
    frac = len(mine) / count
    return mine, Budget(seconds * frac, math.ceil(cfg["min_ops"] * frac))


def ready(cal: Calibrator) -> None:
    """Report that set-up is done, then the host's speed right after it."""
    print("@ready", flush=True)
    cal.now()
    print(f"@calib {cal.samples[-1]!r}", flush=True)


def peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def reset_peak_rss() -> None:
    """Restart this process's VmHWM from its current resident set."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


class Budget:
    """Stops a run's work early on a host far slower than the reference:
    once ``least`` operations are done and the run has taken
    :data:`OVERRUN` times the seconds its work was sized for."""

    def __init__(self, seconds: float, least: int):
        self.least = least
        self.deadline = time.perf_counter() + OVERRUN * seconds

    def spent(self, done: int) -> bool:
        return done >= self.least and time.perf_counter() > self.deadline


def repeat(indices: Iterable[int], step: Callable[[int], dict], cal: Calibrator,
           budget: Budget) -> tuple[list[dict], float]:
    """Call ``step(i)`` for each index until the budget is spent,
    calibrating in between; return the results and the wall time used
    outside calibrations.

    Each result gets ``calib_i``, the index in ``cal.samples`` of the next
    calibration; :func:`bracket` turns it into the two calibrations around
    the operation once the caller has calibrated after the last one.
    """
    out: list[dict] = []
    start = time.perf_counter()
    calibrating = 0.0
    for i in indices:
        if budget.spent(len(out)):
            break
        t0 = time.perf_counter()
        cal.maybe()
        calibrating += time.perf_counter() - t0
        out.append({**step(i), "calib_i": len(cal.samples)})
    return out, time.perf_counter() - start - calibrating


def bracket(ops: list[dict], cal: Calibrator) -> None:
    """Give each operation from :func:`repeat` the calibrations just before
    and just after it, as ``calib``."""
    for op in ops:
        i = op.pop("calib_i")
        op["calib"] = cal.samples[i - 1: i + 1]


def split_calibration(cal: Calibrator) -> int:
    """Calibrate between the untraced and the traced half; samples up to
    and including this one describe the first half, from it on the second."""
    cal.now()
    return len(cal.samples)


def traced_section(tracer: Tracer, wall_s: float, ops: int) -> dict[str, Any]:
    """The tracer's report plus the traced wall time it must account for."""
    report = tracer.report()
    return {
        **report,
        "wall_s": wall_s - report["paused_s"],
        "op_s": report["root_s"],
        "ops": ops,
    }


def write_spans(out_dir: Path, name: str, seed: int, spans: list) -> str:
    """Save spans as a Chrome trace next to the run's other outputs."""
    path = out_dir / f"{name}-s{seed}-trace.json"
    path.write_text(json.dumps(chrome_trace(spans)))
    return str(path)


# ------------------------------------------------------------------- IMM
def run_imm(name: str, cfg: dict, seed: int, seconds: float, part: int, parts: int,
            trace: bool, setup_only: bool, out_dir: Path) -> dict[str, Any] | None:
    from repro.core import EfficientIMM, IMMParams
    from repro.graph import load_dataset

    g = load_dataset("amazon", model=cfg["model"], seed=GRAPH_SEED, scale=cfg["scale"])
    params = IMMParams(k=K, epsilon=cfg["epsilon"], model=cfg["model"], seed=seed)
    # The untimed warm-up: a capped run through the same code paths.
    EfficientIMM(g).run(dataclasses.replace(params, theta_cap=100))
    cal = Calibrator()
    ready(cal)
    if setup_only:
        return None

    def one(i: int, op=contextlib.nullcontext) -> dict[str, Any]:
        # Run i samples with seed S*100+i, so a run's median is over inputs
        # as well as over the host's noise.
        reset_peak_rss()
        with op():
            t0 = time.perf_counter()
            res = EfficientIMM(g).run(dataclasses.replace(params, seed=seed * 100 + i))
            took = time.perf_counter() - t0
        return {
            "s": took,
            "seeds": res.seeds.tolist(),
            "sets": res.num_rrrsets,
            "phases": dict(res.times.stages),
            "rss_mb": peak_rss_mb(),
        }

    out: dict[str, Any] = {
        "graph": {"dataset": "amazon", "model": cfg["model"], "seed": GRAPH_SEED,
                  "scale": cfg["scale"]},
    }
    if not trace:
        mine, budget = share(cfg, seconds, part, parts)
        out["runs"], _ = repeat(mine, one, cal, budget)
    else:
        half = max(1, operations(cfg, seconds) // 2)
        out["runs"], _ = repeat(range(half), one, cal, Budget(seconds / 2, 1))
        out["calib_split"] = split_calibration(cal)
        tracer = Tracer()
        tracer.install()
        # The traced half repeats the untraced runs, seed for seed.
        out["traced_runs"], wall = repeat(
            range(len(out["runs"])), lambda i: one(i, lambda: tracer.op("imm.run")), cal,
            Budget(seconds / 2, len(out["runs"])),
        )
        out["trace"] = traced_section(tracer, wall, len(out["traced_runs"]))
        out["spans"] = write_spans(out_dir, name, seed, tracer.spans())
    cal.now()
    bracket(out["runs"] + out.get("traced_runs", []), cal)
    out["calib"] = cal.samples
    out["answers"] = [r["seeds"] for r in out["runs"]]
    return out


# ---------------------------------------------------------- update-shard
def make_batch(delta, fraction: float, rng) -> list:
    """One epoch of edge updates: half inserts, half deletes, so |E| holds
    steady.  Inserts run from the lower to the higher vertex id, keeping
    the skitter replica a DAG (random orientation fills it in and every
    repair grows), with the weak probabilities 0.01-0.1 of new ties."""
    from repro.dynamic import EdgeUpdate

    n = delta.num_vertices
    half = max(2, round(fraction * delta.num_edges / 2))
    updates, staged = [], set()
    while len(updates) < half:
        u, v = sorted(int(x) for x in rng.integers(0, n, size=2))
        if u == v or (u, v) in staged or delta.has_edge(u, v):
            continue
        staged.add((u, v))
        updates.append(EdgeUpdate("insert", u, v, float(rng.uniform(0.01, 0.1))))
    src, dst, _ = delta.compact().edge_array()
    for j in rng.choice(src.size, size=half, replace=False):
        updates.append(EdgeUpdate("delete", int(src[j]), int(dst[j])))
    return updates


def answer(resp) -> dict[str, Any]:
    return {
        "status": resp.status, "seeds": list(resp.seeds), "cached": resp.cached,
        "degraded": resp.degraded, "epoch": resp.epoch, "error": resp.error,
    }


def run_update(name: str, cfg: dict, seed: int, seconds: float, part: int, parts: int,
               trace: bool, setup_only: bool, out_dir: Path) -> dict[str, Any] | None:
    from repro.dynamic import DynamicService
    from repro.graph import load_dataset
    from repro.service import IMQuery
    from repro.shard import ShardCluster, ShardPlan

    g = load_dataset("skitter", model="IC", seed=GRAPH_SEED, scale=cfg["scale"])
    svc = DynamicService("skitter", g, num_sets=cfg["num_sets"], seed=seed)
    cluster = ShardCluster(ShardPlan(num_shards=2, replication=2))
    # Looked up per call, so the traced half sees the wrapped method.
    svc.add_publish_hook(lambda **epoch: cluster.publish(**epoch))
    cal = Calibrator()
    ready(cal)
    if setup_only:
        cluster.close()
        svc.close()
        return None

    rng = np.random.default_rng([seed, 2])
    ks = iter(loadgen.zipf_ks(np.random.default_rng([seed, 3]), 100_000))

    def epoch(op=lambda name: contextlib.nullcontext(),
              paused=contextlib.nullcontext) -> dict[str, Any]:
        batch = make_batch(svc.delta, BATCH_FRACTION, rng)
        with op("update.commit"):
            t0 = time.perf_counter()
            report = svc.apply(batch)
            commit_s = time.perf_counter() - t0
        queries = [
            IMQuery("skitter", model="IC", k=next(ks), epsilon=svc.epsilon,
                    seed=svc.seed, theta_cap=svc.num_sets,
                    id=f"e{svc.served_epoch}q{j}")
            for j in range(QUERIES_PER_EPOCH)
        ]
        routed = []
        for q in queries:
            with op("update.query"):
                t0 = time.perf_counter()
                resp = cluster.execute([q])[0]
                took = time.perf_counter() - t0
            routed.append({"k": q.k, "s": took, **answer(resp)})
        # The single-node answer for the same epoch, for run.py's check.
        with paused():
            reference = [answer(r) for r in svc.execute(queries)]
        return {
            "commit_s": commit_s,
            "mode": report.mode,
            "invalidated": report.invalidated_fraction,
            "served_epoch": svc.served_epoch,
            "queries": routed,
            "reference": reference,
        }

    out: dict[str, Any] = {}
    if not trace:
        mine, budget = share(cfg, seconds, part, parts)
        out["epochs"], _ = repeat(mine, lambda i: epoch(), cal, budget)
    else:
        half = range(operations(cfg, seconds) // 2)
        least = cfg["min_ops"] // 2
        out["epochs"], _ = repeat(half, lambda i: epoch(), cal, Budget(seconds / 2, least))
        out["calib_split"] = split_calibration(cal)
        tracer = Tracer()
        tracer.install()
        out["traced_epochs"], wall = repeat(
            half, lambda i: epoch(tracer.op, tracer.paused), cal, Budget(seconds / 2, least),
        )
        out["trace"] = traced_section(tracer, wall, len(out["traced_epochs"]))
        out["spans"] = write_spans(out_dir, name, seed, tracer.spans())
    cal.now()
    bracket(out["epochs"] + out.get("traced_epochs", []), cal)
    out["calib"] = cal.samples
    out["rss_mb"] = peak_rss_mb()
    out["answers"] = [list(svc.execute([IMQuery("skitter", k=K)])[0].seeds)]
    graph = svc.delta.compact()
    # The reference for seed_quality: what a sketch rebuilt from scratch on
    # the final graph (same seed, so the same roots) answers.
    with DynamicService("skitter", graph, num_sets=cfg["num_sets"], seed=seed) as fresh:
        out["baseline"] = list(fresh.execute([IMQuery("skitter", k=K)])[0].seeds)
    path = out_dir / f"update-shard-s{seed}-{os.getpid()}.npz"
    np.savez(path, indptr=graph.indptr, indices=graph.indices, probs=graph.probs)
    out["graph"] = {"npz": str(path), "model": "IC"}
    out["num_edges"] = [g.num_edges, svc.delta.num_edges]
    cluster.close()
    svc.close()
    return out


# --------------------------------------------------------- serve-gateway
class Server:
    """A ``repro gateway serve`` subprocess on an ephemeral port."""

    def __init__(self, theta: int, trace_out: Path | None = None):
        cmd = (
            [sys.executable, "-m", "repro"] if trace_out is None
            else [sys.executable, str(PERF / "traced.py")]
        )
        cmd += ["gateway", "serve", "--port", "0", "--default-theta", str(theta)]
        env = dict(os.environ)
        if trace_out is not None:
            env["PERF_TRACE_OUT"] = str(trace_out)
        self.child = Child(cmd, cwd=ROOT, env=env, stream="stderr")
        self.pid = self.child.proc.pid
        try:
            line = self.child.expect("gateway listening on", timeout_s=120)
        except RuntimeError:
            self.child.kill()
            raise
        host, _, port = line.rsplit(" ", 1)[1].strip().rpartition(":")
        self.host, self.port = host, int(port)

    def request(self, doc: dict[str, Any], timeout_s: float = 120.0) -> dict[str, Any]:
        """One request line on a fresh connection; returns the reply."""
        with socket.create_connection((self.host, self.port), timeout=timeout_s) as sock:
            sock.sendall((json.dumps(doc) + "\n").encode())
            with sock.makefile("rb") as fh:
                line = fh.readline()
        if not line:
            raise ConnectionError(f"gateway closed the connection on {doc}")
        return json.loads(line)

    def close(self) -> None:
        """Shut the server down and wait until it has exited."""
        if self.child.proc.poll() is None:
            with contextlib.suppress(OSError, ValueError):
                self.request({"op": "shutdown"}, timeout_s=10)
        self.child.wait(timeout_s=30)


#: What every serve-gateway request asks for but its k.  A query's ``seed``
#: picks both the replica instance and the sketch, so it stays fixed.
SERVE_QUERY = {"dataset": "amazon", "model": "IC", "epsilon": 0.5, "seed": GRAPH_SEED}


def open_phase(server: Server, rng, rate: float, ks: list[int],
               prefix: str) -> list[dict[str, Any]]:
    offsets = loadgen.poisson_offsets(rng, rate, len(ks))
    return asyncio.run(loadgen.open_loop(
        server.host, server.port, SERVE_QUERY, offsets, ks, prefix=prefix,
    ))


def start_server(cfg: dict, trace_out: Path | None = None):
    """Start a gateway, warm the sketch and fetch the reference answer."""
    server = Server(cfg["theta"], trace_out)
    try:
        ref = server.request({**SERVE_QUERY, "k": K, "id": "reference"})
    except BaseException:
        server.close()
        raise
    return server, ref


def run_serve(name: str, cfg: dict, seed: int, seconds: float, part: int, parts: int,
              trace: bool, setup_only: bool, out_dir: Path) -> dict[str, Any] | None:
    out: dict[str, Any] = {
        "graph": {"dataset": "amazon", "model": "IC", "seed": GRAPH_SEED, "scale": 1.0},
    }
    # The work runs in the server process, wherever the scheduler puts it.
    cal = Calibrator(calibrate_each_cpu)
    if not trace:
        server, ref = start_server(cfg)
        ready(cal)
        try:
            if setup_only:
                return None
            # Short cycles, each after a calibration: a slow spell of the
            # host lands in one cycle's throughput, not the whole run's.
            out["closed"], out["closed_s"] = [], []
            cycles, budget = share(cfg, seconds, part, parts)
            for cycle in cycles:
                if budget.spent(len(out["closed_s"])):
                    break
                cal.now()
                ks = loadgen.zipf_ks(np.random.default_rng([seed, 0, cycle]), CLOSED_PER_CYCLE,
                                     block=CLOSED_PER_CYCLE)
                samples, took = asyncio.run(loadgen.closed_loop(
                    server.host, server.port, SERVE_QUERY, [ks[0::2], ks[1::2]],
                    prefix=f"c{cycle}-",
                ))
                out["closed"] += [{**s, "cycle": cycle} for s in samples]
                out["closed_s"].append(
                    (sum(s["status"] == "ok" for s in samples), took)
                )
            cal.now()
            out["rss_mb"] = peak_rss_mb(server.pid)
        finally:
            server.close()
        out["calib"] = cal.samples
        out["references"] = [ref]
        out["answers"] = [ref.get("seeds", [])]
        return out

    # The traced run is two open loops at a fixed rate, one against a plain
    # server and one against a traced server, on the same arrivals and k
    # mix; the open loop gives every request a due time, so its latency
    # splits into generator lag, wire, gateway queueing and the layers.
    ks = loadgen.zipf_ks(np.random.default_rng([seed, 0]), round(cfg["rate"] * 0.4 * seconds))
    server, ref = start_server(cfg)
    ready(cal)
    try:
        out["open"] = open_phase(
            server, np.random.default_rng([seed, 1]), cfg["rate"], ks, "u"
        )
    finally:
        server.close()
    trace_out = out_dir / f"serve-gateway-s{seed}-{os.getpid()}-spans.json"
    server, traced_ref = start_server(cfg, trace_out)
    try:
        out["calib_split"] = split_calibration(cal)
        os.kill(server.pid, signal.SIGUSR1)  # drop set-up from the trace
        time.sleep(0.2)
        out["traced_open"] = open_phase(
            server, np.random.default_rng([seed, 1]), cfg["rate"], ks, "t"
        )
        cal.now()
    finally:
        server.close()
    out["calib"] = cal.samples
    with open(trace_out) as fh:
        dump = json.load(fh)
    trace_out.unlink()
    out["spans"] = write_spans(out_dir, name, seed, dump["spans"])
    split = request_layers(out["traced_open"], dump["spans"])
    out["trace"] = {
        **dump["report"],
        "self_s": split["self_s"],
        "op_s": split["latency_s"],
        "wall_s": sum(
            s["done"] - s["due"] for s in out["traced_open"] if s["status"] == "ok"
        ),
        "ops": split["joined"],
        "parts": split["parts"],
        "batch_sizes": split["batch_sizes"],
    }
    out["references"] = [ref, traced_ref]
    out["answers"] = [ref.get("seeds", [])]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workload", choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--part", type=int, default=0)
    ap.add_argument("--parts", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    if not 0 <= args.part < args.parts:
        ap.error("--part must lie in [0, --parts)")
    if args.parts > 1 and (args.trace or args.workload == "update-shard"):
        # update-shard's epochs each apply a batch to the graph the epochs
        # before them left, so one process does them all.
        ap.error(f"{args.workload}{' --trace' * args.trace} runs in one process")
    cfg = SIZES[args.workload]["tiny" if args.tiny else "full"]
    common = (args.workload, cfg, args.seed, args.seconds, args.part, args.parts,
              args.trace, args.setup_only)
    run = (
        run_imm if args.workload.startswith("imm-")
        else run_update if args.workload == "update-shard"
        else run_serve
    )
    result = run(*common, args.out_dir)
    if result is not None:
        print("@result " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
