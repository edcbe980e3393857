"""Compare two run sets of the benchmark, workload by workload.

    python3 perf/compare.py PARENT.jsonl CHANGE.jsonl
    python3 perf/compare.py --collect PARENT_ROOT CHANGE_ROOT --pairs 10 --out-dir DIR

Run sets are the JSON lines ``perf/run.py --out`` appends.  Runs of the two
sets are paired by workload and seed.  For every end-to-end metric of
``BENCHMARK.json`` the verdict follows the rule for runs on a small,
shared host:

- ``unresolved`` when either side's quartile spread is wider than the
  metric's bound, unless every change run reads better than every parent
  run (then ``improved``);
- ``improved`` when there are at least 10 pairs, the change wins at least
  nine tenths of them (ties count for neither side) and the medians differ
  by more than the parent's inter-quartile distance -- void
  (``unresolved``) if the change failed more operations;
- ``worse`` when the change's median is worse than the parent's by more
  than the bound;
- ``unchanged`` otherwise.

Failures are gated apart from the metrics.  Every workload also gets a
``failures`` row: the operations each side failed (shed, timed out,
errored or answered wrongly), plus one for every run the other side has
and this side lacks (a crashed run writes no record).  The row is
``worse`` when the change fails more than the parent, since a run that
drops requests can read faster on every metric.

``--collect`` first produces the two run sets by running each checkout's
``perf/run.py`` in alternating order, pair by pair, on seeds
``FIRST_SEED + i`` for the run time ``BENCHMARK.json`` gives.  Exit status
1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

from stats import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent

#: Fewest pairs on which a gain may be claimed, and the share it must win.
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Seed of the first pair ``--collect`` runs.
FIRST_SEED = 1000


def load(path: Path) -> dict[tuple[str, int], dict]:
    """Untraced runs of a run set, keyed by ``(workload, seed)``."""
    runs = {}
    for line in path.read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            if not rec.get("trace"):
                runs[(rec["workload"], rec["seed"])] = rec
    return runs


def verdict(parent: list[float], change: list[float], better: str,
            bound: float, more_failures: bool = False) -> str:
    """The verdict for one metric on paired values (same order)."""
    sign = 1.0 if better == "higher" else -1.0
    q1a, ma, q3a = quartiles(parent)
    mb = quartiles(change)[1]
    if max(spread(parent), spread(change)) > bound:
        if all(sign * (b - a) > 0 for a in parent for b in change) and not more_failures:
            return "improved"
        return "unresolved"
    wins = sum(1 for a, b in zip(parent, change) if sign * (b - a) > 0)
    n = len(parent)
    if n >= MIN_PAIRS and wins >= WIN_SHARE * n and sign * (mb - ma) > q3a - q1a:
        return "unresolved" if more_failures else "improved"
    if sign * (ma - mb) > bound * abs(ma):
        return "worse"
    return "unchanged"


def failures(side: dict, other: dict, workload: str) -> int:
    """Operations ``side`` failed on ``workload``, counting each run that
    only ``other`` has as one failure."""
    return sum(rec["failed"] for (w, _), rec in side.items() if w == workload) + sum(
        1 for key in other if key[0] == workload and key not in side
    )


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[dict], bool]:
    """One row per (workload, metric) plus a ``failures`` row per workload;
    also whether any row is worse."""
    by_workload: dict[str, list[tuple[dict, dict]]] = defaultdict(list)
    for key in sorted(set(parent) & set(change)):
        by_workload[key[0]].append((parent[key], change[key]))
    rows, worse = [], False
    for workload in sorted({w for w, _ in set(parent) | set(change)}):
        pairs = by_workload[workload]
        failed_a = failures(parent, change, workload)
        failed_b = failures(change, parent, workload)
        more_failures = failed_b > failed_a
        worse |= more_failures
        rows.append({
            "workload": workload, "metric": "failures", "unit": "count",
            "pairs": len(pairs), "parent": failed_a, "change": failed_b,
            "verdict": "worse" if more_failures else "unchanged",
        })
        if not pairs:
            continue
        for m in spec["end_to_end"]:
            a = [p["metrics"][m["name"]]["value"] for p, _ in pairs]
            b = [c["metrics"][m["name"]]["value"] for _, c in pairs]
            v = verdict(a, b, m["better"], m["bound"], more_failures)
            worse |= v == "worse"
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            sign = 1.0 if m["better"] == "higher" else -1.0
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "pairs": len(pairs),
                "parent": (q1a, ma, q3a), "change": (q1b, mb, q3b),
                "change_pct": 100 * (mb - ma) / abs(ma),
                "wins": sum(1 for x, y in zip(a, b) if sign * (y - x) > 0),
                "spread": max(spread(a), spread(b)),
                "bound": m["bound"], "verdict": v,
            })
    return rows, worse


def collect(parent_root: Path, change_root: Path, pairs: int,
            workloads: list[str], out_dir: Path) -> tuple[Path, Path]:
    """Run both checkouts pair by pair, alternating which goes first.

    A run that exits non-zero is reported on standard error; if it wrote no
    record, :func:`failures` counts it against its side.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    sides = [(parent_root, out_dir / "parent.jsonl"), (change_root, out_dir / "change.jsonl")]
    for i in range(pairs):
        seed = FIRST_SEED + i
        for workload in workloads:
            for root, out in sides if i % 2 == 0 else sides[::-1]:
                cmd = [sys.executable, str(root / "perf" / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--out", str(out.resolve())]
                code = subprocess.run(cmd, cwd=root, stdout=subprocess.DEVNULL).returncode
                if code != 0:
                    print(f"{root}: {workload} seed {seed} exited with status {code}",
                          file=sys.stderr)
    return sides[0][1], sides[1][1]


def fmt(q: tuple[float, float, float] | int) -> str:
    if isinstance(q, int):
        return str(q)
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="*", type=Path, help="PARENT.jsonl CHANGE.jsonl")
    ap.add_argument("--collect", nargs=2, type=Path, metavar=("PARENT_ROOT", "CHANGE_ROOT"))
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--out-dir", type=Path, default=ROOT / "perf" / "out" / "compare")
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.collect:
        workloads = [w["name"] for w in spec["workloads"]]
        paths = collect(*args.collect, args.pairs, workloads, args.out_dir)
    elif len(args.runs) == 2:
        paths = tuple(args.runs)
    else:
        ap.error("give two run sets, or --collect PARENT_ROOT CHANGE_ROOT")
    rows, worse = compare(load(paths[0]), load(paths[1]), spec)
    print(f"parent: {paths[0]}\nchange: {paths[1]}")
    print(f"{'workload':14s} {'metric':17s} {'parent median [q1, q3]':30s} "
          f"{'change median [q1, q3]':30s} {'change':>8s} {'wins':>6s} "
          f"{'spread':>7s} {'bound':>6s}  verdict")
    for r in rows:
        line = f"{r['workload']:14s} {r['metric']:17s} {fmt(r['parent']):30s} {fmt(r['change']):30s} "
        if r["metric"] != "failures":
            line += (f"{r['change_pct']:+7.2f}% {r['wins']:>2d}/{r['pairs']:<3d} "
                     f"{r['spread']:7.3f} {r['bound']:6.3f} ")
        else:
            line += " " * 31
        print(f"{line} {r['verdict']}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
