"""The repository benchmark: cold IMM runs under IC and LT, queries served
through the TCP gateway, and dynamic updates beside sharded queries.

    python3 perf/run.py --workload imm-ic --seed 3 --seconds 14 --trace 0
    python3 perf/run.py --seed 0                  # every workload, seed 0
    python3 perf/run.py --seed 0 --runs 10 --out perf/results/a.jsonl

Each workload runs in child processes (``perf/worker.py``) and the program
is driven only through its public entry points with default settings.  An
untraced run starts three processes one after another and reports the
median of their set-up times.  Together they do the amount of work
``--seconds`` stands for on the reference host, each every third
operation, so that what one process happens to get -- a busier CPU, a
different heap -- averages out; update-shard's epochs build on each other,
so there the last process does them all.  With ``--trace 1`` one worker
does half its operations untraced and half with wrappers around the
program's functions, and the per-layer metrics are reported instead; the
split is also written to ``perf/out/``.

Answers are checked here, never inside a timed region: every IMM run
returns k distinct seeds, and a traced run the same seeds as the untraced
run on its seed; every served answer is the k-prefix of the reference
k=50 answer; every sharded answer equals the single-node answer of the
same epoch, warm and not degraded.  Seed quality comes from an independent
forward-simulation oracle (``perf/oracle.py``): the spread of the answer
relative to the top weighted-degree vertices, or on update-shard relative
to the answer a from-scratch rebuild of the sketch on the final graph
gives.

Times are reported in seconds of a reference host.  A shared VM's speed
drifts by up to 2x for minutes at a time, so every worker times a fixed
calibration loop between its operations (``perf/calibrate.py``) and each
time is scaled by ``REFERENCE_S`` over the calibrations around it (see
``op_factors``); the raw times are printed beside the scaled ones and kept
in run sets.

Every metric is printed by name and unit; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every answer checks out, 1 when one does
not, 2 when the program is not in the checkout or a workload crashed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any

import numpy as np

from calibrate import REFERENCE_S
from oracle import relative_spreads, top_weighted_degree
from proc import Child
from stats import percentile, supported, tail

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT = PERF / "out"

#: Worker processes per untraced run; the median of their set-up times is
#: reported as ``setup_s``.
PROCESSES = 3
#: Live-edge worlds the quality oracle simulates per seed set.
QUALITY_WORLDS = 300
#: Seed budget of every checked answer (``worker.K``).
K = 50
#: ``latency_tail_ms`` is this percentile of the operations' latencies where
#: at least ten lie beyond it (the requests of serve-gateway and
#: update-shard), otherwise their median (the 7 or 14 runs of imm-*).
TAIL_Q = 90
#: Self-time layers, named after the program's modules; ``gateway`` is
#: queueing in the gateway, ``wire`` the socket round trip and ``client``
#: the benchmark's own side (operation overhead, generator lag).
LAYERS = (
    "kernels", "sampling", "sketch", "selection", "imm", "service",
    "gateway", "wire", "shard", "dynamic", "client",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # NumPy asks the kernel for huge pages for large arrays, and the kernel
    # grants them as the host's free memory allows: with them, the same
    # run's peak RSS differed by up to 11% from one process to the next.
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    return env


def run_worker(workload: str, seed: int, seconds: float, *, trace: bool,
               part: tuple[int, int] | None, tiny: bool) -> tuple[float, float, dict | None]:
    """Start a worker doing share ``part`` = ``(j, parts)`` of the work, or
    only setting up if ``part`` is None; return its set-up time, the
    calibration it took right after, and its result."""
    cmd = [
        sys.executable, str(PERF / "worker.py"), workload,
        "--seed", str(seed), "--seconds", str(seconds), "--out-dir", str(OUT),
    ]
    if part is None:
        cmd.append("--setup-only")
    else:
        cmd += ["--part", str(part[0]), "--parts", str(part[1])]
    cmd += ["--trace"] * trace + ["--tiny"] * tiny
    t0 = time.perf_counter()
    child = Child(cmd, cwd=ROOT, env=child_env())
    try:
        child.expect("@ready", timeout_s=120)
        setup_s = time.perf_counter() - t0
        calib = float(child.expect("@calib ", timeout_s=60).split()[1])
        result = None
        if part is not None:
            line = child.expect("@result ", timeout_s=seconds * 2 + 60)
            result = json.loads(line[len("@result "):])
        code = child.wait(timeout_s=60)
    finally:
        child.kill()
    if code != 0:
        raise RuntimeError(f"{workload} worker exited with status {code}")
    return setup_s, calib, result


# ------------------------------------------------------------------ checks
def valid_seeds(seeds: list, n: int) -> bool:
    return (
        len(seeds) == K and len(set(seeds)) == K
        and all(isinstance(v, int) and 0 <= v < n for v in seeds)
    )


def check(workload: str, result: dict, n: int) -> tuple[int, int, list[str]]:
    """``(attempted, failed, problems)`` over every answer in ``result``."""
    problems: list[str] = []
    attempted = failed = 0

    def fail(msg: str) -> None:
        nonlocal failed
        failed += 1
        if len(problems) < 10:
            problems.append(msg)

    if workload.startswith("imm-"):
        for i, run in enumerate(result["runs"]):
            attempted += 1
            if not valid_seeds(run["seeds"], n):
                fail(f"run {i}: not {K} distinct seeds in [0, {n})")
        # A traced run repeats the untraced run of the same index and seed.
        for i, (run, traced) in enumerate(zip(result["runs"], result.get("traced_runs", []))):
            attempted += 1
            if traced["seeds"] != run["seeds"]:
                fail(f"traced run {i}: seeds differ from the untraced run on the same seed")
    elif workload == "serve-gateway":
        # One reference answer per server started.
        refs = result["references"]
        ref = refs[0].get("seeds", [])
        for r in refs:
            attempted += 1
            if r.get("status") != "ok" or not valid_seeds(r.get("seeds", []), n):
                fail(f"reference answer: {r.get('status')} {r.get('error')}")
            elif r["seeds"] != ref:
                fail("servers differ in their reference answers")
        for phase in ("closed", "open", "traced_open"):
            for s in result.get(phase, []):
                attempted += 1
                if s["status"] != "ok":
                    fail(f"{s['id']}: {s['status']} {s['error']}")
                elif s["seeds"] != ref[: s["k"]]:
                    fail(f"{s['id']}: k={s['k']} answer is not the reference prefix")
    else:
        for phase in ("epochs", "traced_epochs"):
            for e in result.get(phase, []):
                attempted += 1  # the commit
                for q, ref in zip(e["queries"], e["reference"]):
                    attempted += 1
                    where = f"epoch {e['served_epoch']} k={q['k']}"
                    if q["status"] != "ok" or ref["status"] != "ok":
                        fail(f"{where}: {q['status']}/{ref['status']} {q['error'] or ref['error']}")
                    elif q["seeds"] != ref["seeds"]:
                        fail(f"{where}: router seeds differ from the service's")
                    elif not q["cached"] or q["degraded"]:
                        fail(f"{where}: cached={q['cached']} degraded={q['degraded']}")
                    elif ref["epoch"] != e["served_epoch"]:
                        fail(f"{where}: reference served epoch {ref['epoch']}")
        attempted += 1
        if not valid_seeds(result["answers"][0], n):
            fail(f"final answer is not {K} distinct seeds in [0, {n})")
    return attempted, failed, problems


# ---------------------------------------------------------------- scoring
def load_graph(result: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray, str]:
    """The graph the answer was computed on, as CSR arrays and model."""
    spec = result["graph"]
    if "npz" in spec:
        path = Path(spec["npz"])
        with np.load(path) as z:
            arrays = z["indptr"], z["indices"], z["probs"]
        path.unlink()
        return (*arrays, spec["model"])
    from repro.graph import load_dataset

    g = load_dataset(spec["dataset"], model=spec["model"], seed=spec["seed"],
                     scale=spec["scale"])
    return g.indptr, g.indices, g.probs, spec["model"]


def phases(workload: str, trace: bool) -> tuple[str, str | None]:
    """Keys of the untraced and the traced operations in a result.  An
    untraced serve run measures closed loops; a traced one compares two
    open loops."""
    if workload.startswith("imm-"):
        return "runs", "traced_runs" if trace else None
    if workload == "serve-gateway":
        return ("open", "traced_open") if trace else ("closed", None)
    return "epochs", "traced_epochs" if trace else None


def latencies(workload: str, ops: list) -> list[float]:
    """Per-operation latencies in seconds: IMM runs, answered requests
    (from their due time) or routed queries."""
    if workload.startswith("imm-"):
        return [r["s"] for r in ops]
    if workload == "serve-gateway":
        return [s["done"] - s["due"] for s in ops if s["status"] == "ok"]
    return [q["s"] for e in ops for q in e["queries"]]


def latency_groups(workload: str, ops: list, factors: list[float]) -> list[list[float]]:
    """Latencies of the untraced operations in seconds, each times its
    operation's factor, grouped by what ``latency_p50_ms`` takes the median
    over: an IMM run, the answered requests of a closed-loop cycle, the
    routed queries of an epoch.

    46.5% of the zipf k mix is k=5, so the median single request sits where
    the k=5 and k=10 latencies meet and jumps between the two from run to
    run; the median of per-cycle or per-epoch means has no such gap.
    """
    if workload.startswith("imm-"):
        return [[r["s"] * f] for r, f in zip(ops, factors)]
    if workload == "serve-gateway":
        groups: dict[int, list[float]] = {}
        for s, f in zip(ops, factors):
            if s["status"] == "ok":
                groups.setdefault(s["cycle"], []).append((s["done"] - s["due"]) * f)
        return list(groups.values())
    return [[q["s"] * f for q in e["queries"]] for e, f in zip(ops, factors)]


def epoch_seconds(epochs: list) -> list[float]:
    """update-shard: each epoch's commit plus its routed queries."""
    return [e["commit_s"] + sum(q["s"] for q in e["queries"]) for e in epochs]


def speed_factor(calibrations: list[float]) -> float:
    """Multiplier from this run's seconds to reference-host seconds."""
    return REFERENCE_S / statistics.median(calibrations)


def op_factors(workload: str, result: dict) -> list[float]:
    """Multiplier to reference-host seconds for each untraced operation.

    An IMM run or an update epoch is scaled by the host speed around it:
    the mean of the calibrations just before and just after it
    (``calib``, see ``worker.bracket``).  serve-gateway keeps one factor
    for the whole run: its work runs in the server process, on either CPU,
    and per-cycle factors widened its spreads.  perf/README.md gives the
    spreads either way.
    """
    ops = result[phases(workload, False)[0]]
    if workload == "serve-gateway":
        return [speed_factor(result["calib"])] * len(ops)
    return [2 * REFERENCE_S / sum(op["calib"]) for op in ops]


def merge(results: list[dict]) -> dict:
    """One result from the shares of the work the processes of a run did:
    their operations, calibrations, answers and reference answers in turn;
    the median of the servers' peak RSS on serve-gateway."""
    out = dict(results[0])
    for key in ("runs", "closed", "closed_s", "calib", "answers", "references"):
        if key in out:
            out[key] = [x for r in results for x in r[key]]
    if "rss_mb" in out:
        out["rss_mb"] = statistics.median(r["rss_mb"] for r in results)
    return out


def e2e_metrics(workload: str, result: dict, setups: list[tuple[float, float]],
                quality: float, calibrated: bool) -> dict[str, float]:
    """End-to-end metrics; ``setups`` holds ``(setup_s, calibration)`` per
    set-up.  With ``calibrated`` every time is in reference-host seconds,
    otherwise as measured."""
    ops = result[phases(workload, False)[0]]
    factors = op_factors(workload, result) if calibrated else [1.0] * len(ops)
    groups = latency_groups(workload, ops, factors)
    lat = [x for g in groups for x in g]
    p50 = statistics.median(statistics.mean(g) for g in groups)
    if workload.startswith("imm-"):
        # RRR sets per second of a run: moves apart from the run time when
        # a change alters how many sets a run needs.
        rate = statistics.median(r["sets"] / (r["s"] * f) for r, f in zip(ops, factors))
        # The mean: a run's peak sits on one of a few levels, set by the
        # heap the runs before it in its process left behind, and a median
        # jumps between the levels from seed to seed.
        rss = statistics.mean(r["rss_mb"] for r in ops)
    elif workload == "serve-gateway":
        rate = statistics.median(ok / took for ok, took in result["closed_s"]) / factors[0]
        rss = result["rss_mb"]
    else:
        rate = 1.0 / statistics.median(s * f for s, f in zip(epoch_seconds(ops), factors))
        rss = result["rss_mb"]
    return {
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail(lat, TAIL_Q) * 1e3,
        "throughput_per_s": rate,
        "peak_rss_mb": rss,
        "seed_quality": quality,
        "setup_s": statistics.median(
            s * (REFERENCE_S / c if calibrated else 1.0) for s, c in setups
        ),
    }


def layer_metrics(workload: str, result: dict) -> dict[str, float]:
    """Per-layer metrics; rates are in reference-host seconds."""
    t = result["trace"]
    factor = speed_factor(result["calib"])
    self_s, counts = t["self_s"], t["counts"]
    total = sum(self_s.values())

    def per(a: str, b: str | float, scale: float = 1.0) -> float:
        den = counts.get(b, 0.0) if isinstance(b, str) else b
        return scale * counts.get(a, 0.0) / den if den else 0.0

    m = {f"{layer}.self_pct": 100 * self_s.get(layer, 0.0) / total for layer in LAYERS}
    ops = t["ops"]
    m["kernels.sets_per_op"] = per("kernels.sets", ops)
    m["kernels.edges_per_op"] = per("kernels.edges", ops)
    m["kernels.edges_per_s"] = per("kernels.edges", self_s.get("kernels", 0.0) * factor)
    m["sketch.entries_per_op"] = per("sketch.entries", ops)
    m["selection.calls_per_op"] = per("selection.calls", ops)
    m["selection.entry_rounds_per_s"] = per(
        "selection.entry_rounds", self_s.get("selection", 0.0) * factor
    )
    m["imm.levels"] = per("sampling.extends", "imm.runs")
    m["service.batch_size"] = per("service.queries", "service.batches")
    m["shard.calls_per_query"] = per("shard.calls", "router.queries")
    m["dynamic.invalidated_pct"] = per("dynamic.invalidated", "dynamic.repairs", 100)
    m["dynamic.full_resample_pct"] = per("dynamic.full_resamples", "dynamic.repairs", 100)
    split = result["calib_split"]
    m["trace.overhead_pct"] = 100 * (
        statistics.median(overhead_basis(workload, result, traced=True))
        * speed_factor(result["calib"][split - 1:])
        / statistics.median(overhead_basis(workload, result, traced=False))
        / speed_factor(result["calib"][:split]) - 1
    )
    m["trace.coverage_pct"] = 100 * t["op_s"] / t["wall_s"] if t["wall_s"] else 0.0
    return m


def overhead_basis(workload: str, result: dict, traced: bool) -> list[float]:
    """Per-operation times compared between the traced and untraced halves
    (each half scaled by its own calibrations): whole epochs on
    update-shard (commits carry most traced calls), the request latencies
    elsewhere."""
    ops = result[phases(workload, True)[traced]]
    if workload == "update-shard":
        return epoch_seconds(ops)
    return latencies(workload, ops)


# ---------------------------------------------------------------- output
def describe(workload: str, result: dict, trace: bool) -> list[str]:
    """Context lines printed above the metrics."""
    lines = []
    if workload.startswith("imm-"):
        runs = result["runs"]
        stages: dict[str, float] = {}
        for r in runs:
            for name, secs in r["phases"].items():
                stages[name] = stages.get(name, 0.0) + secs
        total = sum(stages.values())
        split = "  ".join(f"{k} {100 * v / total:.1f}%" for k, v in stages.items())
        sets = sorted(r["sets"] for r in runs)
        lines.append(f"{len(runs)} IMM run(s), {sets[0]}-{sets[-1]} RRR sets each; {split}")
    elif workload == "serve-gateway" and not trace:
        closed_s = sum(took for _, took in result["closed_s"])
        lines.append(
            f"closed loop: {len(result['closed'])} requests on 2 connections in "
            f"{len(result['closed_s'])} cycles of the same k mix, {closed_s:.1f}s"
        )
    elif workload == "serve-gateway":
        samples = result["traced_open"]
        lag = [s["sent"] - s["due"] for s in samples]
        lines.append(
            f"open loop: {len(samples)} requests, generator lag p99 "
            f"{percentile(lag, 99) * 1e3:.2f} ms"
        )
    else:
        epochs = result["epochs"]
        commits = [e["commit_s"] for e in epochs]
        inv = statistics.mean(e["invalidated"] for e in epochs)
        full = sum(e["mode"] == "full" for e in epochs)
        lines.append(
            f"{len(epochs)} epochs: commit p50 {statistics.median(commits) * 1e3:.1f} ms, "
            f"{100 * inv:.1f}% of sets invalidated on average, {full} full resample(s); "
            f"|E| {result['num_edges'][0]} -> {result['num_edges'][1]}"
        )
    if trace:
        t = result["trace"]
        lines.append(
            f"traced: self times sum to {sum(t['self_s'].values()):.3f}s over "
            f"{t['wall_s']:.3f}s traced wall ({t['ops']} ops); spans in {result['spans']}"
        )
        if t["missing"]:
            lines.append("missing wrap targets: " + ", ".join(t["missing"]))
    return lines


def run_one(workload: str, seed: int, seconds: float, trace: bool, *,
            tiny: bool = False, spec: dict) -> dict[str, Any]:
    """Run one workload; print its report; return the result record."""
    OUT.mkdir(exist_ok=True)
    if trace:
        processes, measuring = 1, 1
    else:
        processes = PROCESSES
        measuring = 1 if workload == "update-shard" else PROCESSES
    setups, results = [], []
    for j in range(processes):
        share = j - (processes - measuring)
        *setup, result = run_worker(workload, seed, seconds, trace=trace, tiny=tiny,
                                    part=(share, measuring) if share >= 0 else None)
        setups.append(tuple(setup))
        if result is not None:
            results.append(result)
    result = merge(results)
    indptr, indices, probs, model = load_graph(result)
    attempted, failed, problems = check(workload, result, len(indptr) - 1)
    raw = {}
    if trace:
        values = layer_metrics(workload, result)
        wanted = spec["per_layer"]
    else:
        baseline = result.get("baseline")
        if baseline is None:
            baseline = top_weighted_degree(indptr, probs, K)
        quality = statistics.mean(relative_spreads(
            indptr, indices, probs, model, result["answers"], baseline,
            worlds=QUALITY_WORLDS, seed=seed,
        ))
        values = e2e_metrics(workload, result, setups, quality, calibrated=True)
        raw = e2e_metrics(workload, result, setups, quality, calibrated=False)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    print(f"{workload} seed={seed} seconds={seconds:g} trace={int(trace)} "
          f"processes={processes}, {len(results)} measuring")
    for line in describe(workload, result, trace):
        print("  " + line)
    calib = result["calib"]
    scale = f"x{speed_factor(calib):.4f}"
    if not trace and workload != "serve-gateway":
        factors = op_factors(workload, result)
        scale = f"x{min(factors):.4f} to x{max(factors):.4f} by operation"
    print(
        f"  host: calibration median {statistics.median(calib):.4f}s of {len(calib)}; "
        f"times below are {scale}, in seconds of a host where it takes {REFERENCE_S}s"
    )
    untraced, traced = phases(workload, trace)
    n = len(latencies(workload, result[traced or untraced]))
    for name, m in metrics.items():
        note = ""
        if name == "latency_p50_ms" and workload == "serve-gateway":
            note = f"  (median of {len(result['closed_s'])} cycle means, n={n})"
        elif name == "latency_p50_ms" and workload == "update-shard":
            note = f"  (median of {len(result['epochs'])} epoch means, n={n})"
        elif name == "latency_p50_ms":
            note = f"  (n={n}{'' if supported(n, 50) else ', fewer than 10 samples beyond'})"
        elif name == "latency_tail_ms":
            note = (f"  (p{TAIL_Q} of n={n})" if supported(n, TAIL_Q)
                    else f"  (median: n={n} leaves fewer than 10 beyond p{TAIL_Q})")
        elif name == "setup_s":
            note = f"  (median of {len(setups)})"
        if raw and raw[name] != m["value"]:
            note += f"  raw {raw[name]:.4f}"
        print(f"  {name:30s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"  checks: {attempted} attempted, {failed} failed")
    for p in problems:
        print(f"    {p}")
    if trace:
        report = {"metrics": values, "trace": result["trace"]}
        path = OUT / f"{workload}-s{seed}-layers.json"
        path.write_text(json.dumps(report, indent=1))
        print(f"  per-layer split: {path}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, raw


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measured time per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=None,
                    help="repeat every workload with seeds SEED*100+i, i < RUNS")
    ap.add_argument("--out", type=Path, help="append one JSON line per run here")
    ap.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program is not in this checkout ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [args.workload] if args.workload else names
    seeds = (
        [args.seed * 100 + i for i in range(args.runs)] if args.runs else [args.seed]
    )

    records = []
    try:
        for seed in seeds:
            for workload in workloads:
                rec, raw = run_one(workload, seed, seconds, bool(args.trace),
                                   tiny=args.tiny, spec=spec)
                records.append(rec)
                if args.out is not None:
                    # Run sets also keep the uncalibrated values.
                    with open(args.out, "a") as fh:
                        fh.write(json.dumps({
                            "workload": workload, "seed": seed, "seconds": seconds,
                            "trace": args.trace, **rec, "raw": raw,
                        }) + "\n")
    except (RuntimeError, OSError, KeyError, ValueError):
        traceback.print_exc()
        return 2
    if len(records) == 1:
        print(json.dumps(records[0]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in records), "runs": len(records)}))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
