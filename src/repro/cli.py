"""Command-line entry point: regenerate any paper table/figure, or run IMM.

Usage::

    repro list                      # available experiments + datasets
    repro experiment table3         # regenerate Table III
    repro experiment all            # everything (minutes)
    repro run youtube --model IC --k 20 --framework efficientimm
    repro run youtube --telemetry out/     # + metrics.json & trace.json
    repro run youtube --checkpoint ckpt/   # resumable sampling batches
    repro run youtube --checkpoint ckpt/ --resume   # continue after a crash
    repro run amazon --inject-faults crash@batch:1  # deterministic fault drill
    repro trace amazon --k 10              # telemetry-first run
    repro datasets                  # replica inventory vs paper stats
    repro query amazon --k 10 --artifacts store/   # cached serving, one-shot
    repro serve --artifacts store/  # JSON-lines query loop on stdin/stdout
    repro gateway serve --port 8471 --artifacts store/   # TCP gateway
    repro gateway query amazon --k 10 --port 8471        # query it
    repro gateway loadgen --mode open --rate 200         # offered-load drill

(Equivalently: ``python -m repro ...``.)  ``--telemetry DIR`` / ``trace``
enable the :mod:`repro.telemetry` session around the run and write the
unified ``metrics.json`` plus a Chrome trace-event ``trace.json`` (open in
``chrome://tracing`` or Perfetto); see docs/observability.md.
"""

from __future__ import annotations

import argparse
import sys
import time

__all__ = ["main", "build_parser"]

_EXPERIMENTS = (
    "table1", "table2", "table3", "table4",
    "fig1", "fig2", "fig5", "fig6", "fig7",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EfficientIMM reproduction: experiments and IMM runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and datasets")
    sub.add_parser("datasets", help="show the replica dataset inventory")

    exp = sub.add_parser("experiment", help="regenerate a paper table/figure")
    exp.add_argument(
        "id", choices=(*_EXPERIMENTS, "all"),
        help="experiment id (paper table/figure) or 'all'",
    )
    exp.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write each regenerated table as <DIR>/<id>.csv",
    )

    sweep = sub.add_parser(
        "sweep",
        help="artifact-style strong-scaling sweep writing JSON run logs",
    )
    sweep.add_argument(
        "--out", default="strong-scaling", help="output root directory"
    )
    sweep.add_argument(
        "--datasets", nargs="*", default=None,
        help="subset of datasets (default: all eight)",
    )
    sweep.add_argument(
        "--models", nargs="*", default=["IC", "LT"], choices=["IC", "LT"],
    )
    sweep.add_argument("--k", type=int, default=50)
    sweep.add_argument("--epsilon", type=float, default=0.5)
    sweep.add_argument("--seed", type=int, default=0)

    extract = sub.add_parser(
        "extract-results",
        help="summarise sweep logs into speedup_<model>.csv (the artifact's "
        "extract_results.py)",
    )
    extract.add_argument(
        "--logs", default="strong-scaling", help="sweep output root"
    )
    extract.add_argument(
        "--results", default=None, help="CSV directory (default <logs>/results)"
    )

    val = sub.add_parser(
        "validate",
        help="statistical health checks of the samplers and estimators",
    )
    val.add_argument("--dataset", default="amazon")
    val.add_argument("--model", default="IC", choices=("IC", "LT"))
    val.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="run IMM on a replica dataset")
    run.add_argument("dataset", help="dataset name, e.g. 'youtube'")
    run.add_argument("--model", default="IC", choices=("IC", "LT"))
    run.add_argument("--k", type=int, default=50, help="seed budget")
    run.add_argument("--epsilon", type=float, default=0.5)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--theta-cap", type=int, default=2000)
    run.add_argument(
        "--framework", default="efficientimm",
        choices=("efficientimm", "ripples"),
    )
    run.add_argument(
        "--estimate-spread", action="store_true",
        help="Monte-Carlo validate the seed set's spread",
    )
    run.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="enable telemetry; write DIR/metrics.json and DIR/trace.json",
    )
    run.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="checkpoint sampling batches under DIR (docs/resilience.md)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume from the latest matching checkpoint (requires --checkpoint)",
    )
    run.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="deterministic fault plan for the batch scope, "
        "e.g. 'crash@batch:1,slow@batch:0:0.05'",
    )
    run.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's corrupt-mangling RNG",
    )

    trace = sub.add_parser(
        "trace",
        help="run IMM with full telemetry and write metrics + Chrome trace",
    )
    trace.add_argument("dataset", help="dataset name, e.g. 'amazon'")
    trace.add_argument("--model", default="IC", choices=("IC", "LT"))
    trace.add_argument("--k", type=int, default=10)
    trace.add_argument("--epsilon", type=float, default=0.5)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--theta-cap", type=int, default=2000)
    trace.add_argument(
        "--framework", default="efficientimm",
        choices=("efficientimm", "ripples"),
    )
    trace.add_argument(
        "--out", metavar="DIR", default="telemetry-out",
        help="output directory (default: telemetry-out/)",
    )
    trace.add_argument(
        "--memory", action="store_true",
        help="also attribute tracemalloc memory to spans (slower)",
    )

    query = sub.add_parser(
        "query",
        help="serve one IM query through the caching engine (docs/serving.md)",
    )
    query.add_argument("dataset", help="dataset name, e.g. 'amazon'")
    query.add_argument("--model", default="IC", choices=("IC", "LT"))
    query.add_argument("--k", type=int, default=10)
    query.add_argument("--epsilon", type=float, default=0.5)
    query.add_argument("--seed", type=int, default=0)
    query.add_argument(
        "--theta-cap", type=int, default=None,
        help="sketch size in RRR sets (default: the engine's 2000)",
    )
    query.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-query deadline; expiry yields a timeout response",
    )
    query.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="persist/reuse sketch artifacts under DIR (warm across runs)",
    )
    query.add_argument(
        "--cache-bytes", type=int, default=None,
        help="in-memory sketch cache budget (default 256 MiB)",
    )
    query.add_argument(
        "--json", action="store_true", help="print the raw JSON response"
    )

    serve = sub.add_parser(
        "serve",
        help="JSON-lines IM query server on stdin/stdout (docs/serving.md)",
    )
    serve.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="persist/reuse sketch artifacts under DIR",
    )
    serve.add_argument(
        "--cache-bytes", type=int, default=None,
        help="in-memory sketch cache budget (default 256 MiB)",
    )
    serve.add_argument(
        "--default-theta", type=int, default=2000,
        help="sketch size for queries without theta_cap",
    )
    serve.add_argument(
        "--backend", default="serial", choices=("serial", "multiprocess"),
        help="cold-sampling execution backend",
    )
    serve.add_argument(
        "--num-workers", type=int, default=1,
        help="sampling workers per cold pass",
    )
    serve.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="write DIR/metrics.json and DIR/trace.json at shutdown",
    )

    shard = sub.add_parser(
        "shard",
        help="partitioned multi-worker serving cluster: build/serve/query "
        "(docs/sharding.md)",
    )
    shard.add_argument(
        "action", choices=("build", "serve", "query"),
        help="build shard artifacts, run the JSON-lines router loop, or "
        "serve one query",
    )
    shard.add_argument(
        "dataset", nargs="?", default=None,
        help="dataset name (required for build/query)",
    )
    shard.add_argument("--shards", type=int, default=2, help="shard count")
    shard.add_argument(
        "--replicas", type=int, default=1, help="replicas per shard"
    )
    shard.add_argument("--model", default="IC", choices=("IC", "LT"))
    shard.add_argument("--k", type=int, default=10)
    shard.add_argument("--epsilon", type=float, default=0.5)
    shard.add_argument("--seed", type=int, default=0)
    shard.add_argument(
        "--theta-cap", type=int, default=None,
        help="sketch size in RRR sets (default: --default-theta)",
    )
    shard.add_argument(
        "--default-theta", type=int, default=2000,
        help="sketch size for queries without theta_cap",
    )
    shard.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="persist/reuse per-shard sketch artifacts under DIR",
    )
    shard.add_argument(
        "--cache-bytes", type=int, default=None,
        help="per-worker in-memory sketch cache budget",
    )
    shard.add_argument(
        "--worker-deadline", type=float, default=None, metavar="SECONDS",
        help="soft per-scatter-call budget; misses count against health",
    )
    shard.add_argument(
        "--no-degraded", action="store_true",
        help="error instead of serving partial coverage when a shard is down",
    )
    shard.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="write DIR/metrics.json and DIR/trace.json at shutdown",
    )
    shard.add_argument(
        "--json", action="store_true",
        help="print the raw JSON response (query action)",
    )

    gw = sub.add_parser(
        "gateway",
        help="async TCP gateway: serve an engine over sockets, query one, "
        "or generate load (docs/gateway.md)",
    )
    gw.add_argument(
        "action", choices=("serve", "query", "loadgen"),
        help="run the TCP server, send one query at it, or drive traffic",
    )
    gw.add_argument(
        "dataset", nargs="?", default=None,
        help="dataset name (required for query; loadgen default 'amazon')",
    )
    gw.add_argument("--host", default="127.0.0.1", help="bind/connect address")
    gw.add_argument(
        "--port", type=int, default=8471,
        help="TCP port (serve: 0 picks an ephemeral port)",
    )
    gw.add_argument(
        "--artifacts", metavar="DIR", default=None,
        help="persist/reuse sketch artifacts under DIR (serve)",
    )
    gw.add_argument(
        "--cache-bytes", type=int, default=None,
        help="in-memory sketch cache budget (default 256 MiB)",
    )
    gw.add_argument(
        "--default-theta", type=int, default=2000,
        help="sketch size for queries without theta_cap",
    )
    gw.add_argument(
        "--backend", default="serial", choices=("serial", "multiprocess"),
        help="cold-sampling execution backend (serve)",
    )
    gw.add_argument(
        "--num-workers", type=int, default=1,
        help="sampling workers per cold pass",
    )
    gw.add_argument(
        "--shards", type=int, default=0,
        help="front a shard cluster with this many shards (0 = one engine)",
    )
    gw.add_argument(
        "--replicas", type=int, default=1, help="replicas per shard"
    )
    gw.add_argument(
        "--max-connections", type=int, default=64,
        help="concurrent client connection cap",
    )
    gw.add_argument(
        "--queue-depth", type=int, default=256,
        help="admission queue capacity; a full queue sheds new arrivals",
    )
    gw.add_argument(
        "--queue-deadline", type=float, default=2.0, metavar="SECONDS",
        help="max queue wait before a query is shed as stale",
    )
    gw.add_argument(
        "--batch-window", type=float, default=0.002, metavar="SECONDS",
        help="longest wait for queries to join a batch, taken only after "
        "an engine batch that took at least as long (0 never waits)",
    )
    gw.add_argument(
        "--batch-max", type=int, default=64, help="max queries per batch"
    )
    gw.add_argument(
        "--rate-limit", type=float, default=None, metavar="QPS",
        help="per-client token-bucket rate limit (default: off)",
    )
    gw.add_argument(
        "--rate-burst", type=float, default=10.0,
        help="token-bucket burst size",
    )
    gw.add_argument(
        "--max-line-bytes", type=int, default=None,
        help="bound on one request line (default 1 MiB)",
    )
    gw.add_argument(
        "--idle-timeout", type=float, default=300.0, metavar="SECONDS",
        help="close connections idle this long (0 disables)",
    )
    gw.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="write DIR/metrics.json and DIR/trace.json at shutdown",
    )
    gw.add_argument("--model", default="IC", choices=("IC", "LT"))
    gw.add_argument("--k", type=int, default=10)
    gw.add_argument("--epsilon", type=float, default=0.5)
    gw.add_argument("--seed", type=int, default=0)
    gw.add_argument(
        "--theta-cap", type=int, default=None,
        help="sketch size in RRR sets (default: server's --default-theta)",
    )
    gw.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-query deadline; expiry yields a timeout response",
    )
    gw.add_argument(
        "--retries", type=int, default=5,
        help="client connect/overload retry attempts (query)",
    )
    gw.add_argument(
        "--json", action="store_true",
        help="print the raw JSON response (query action)",
    )
    gw.add_argument(
        "--mode", default="closed", choices=("closed", "open"),
        help="loadgen traffic shape (docs/gateway.md)",
    )
    gw.add_argument(
        "--rate", type=float, default=50.0,
        help="offered load in queries/s (open loop)",
    )
    gw.add_argument(
        "--concurrency", type=int, default=4,
        help="loadgen workers (closed) or connection pool size (open)",
    )
    gw.add_argument(
        "--duration", type=float, default=5.0, metavar="SECONDS",
        help="loadgen run length",
    )
    gw.add_argument(
        "--requests", type=int, default=None,
        help="stop loadgen after N requests instead of --duration",
    )
    gw.add_argument(
        "--zipf", type=float, default=1.1,
        help="zipf skew of the loadgen k mix",
    )

    update = sub.add_parser(
        "update",
        help="apply a JSON-lines graph-update stream with incremental "
        "sketch repair (docs/dynamic.md)",
    )
    update.add_argument("dataset", help="dataset name, e.g. 'skitter'")
    update.add_argument(
        "--updates", metavar="FILE", default="-",
        help="JSON-lines update stream (default: stdin)",
    )
    update.add_argument("--model", default="IC", choices=("IC", "LT"))
    update.add_argument("--k", type=int, default=10,
                        help="default seed budget for query ops without k")
    update.add_argument("--epsilon", type=float, default=0.5)
    update.add_argument("--seed", type=int, default=0)
    update.add_argument(
        "--theta-cap", type=int, default=2000,
        help="number of RRR sets the maintained sketch holds",
    )
    update.add_argument(
        "--threshold", type=float, default=0.25,
        help="invalidated fraction above which the sketch is fully "
        "resampled instead of repaired",
    )
    update.add_argument(
        "--repair", default="extend", choices=("extend", "resample"),
        help="repair strategy for inserted edges under IC (docs/dynamic.md)",
    )
    update.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="checkpoint the maintainer after every commit under DIR",
    )
    update.add_argument(
        "--resume", action="store_true",
        help="resume from the latest matching checkpoint (requires "
        "--checkpoint); earlier commits are replayed graph-only",
    )
    update.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="write DIR/metrics.json and DIR/trace.json at end of stream",
    )

    shm = sub.add_parser(
        "shm",
        help="shared-memory plane maintenance: list live segments or sweep "
        "orphans (docs/memory.md)",
    )
    shm.add_argument(
        "action", choices=("list", "sweep"),
        help="list this host's live segments, or unlink segments whose "
        "owning process is gone",
    )
    shm.add_argument(
        "--prefix", default="rs",
        help="segment name prefix to scan (default 'rs')",
    )

    ctl = sub.add_parser(
        "control",
        help="telemetry-driven control plane: probe health, plan actions, "
        "run the reconcile loop (docs/control.md)",
    )
    ctl.add_argument(
        "action", choices=("run", "status", "plan"),
        help="run the tick loop over an in-process cluster, probe one "
        "health sample, or print the action plan for a probe fixture",
    )
    ctl.add_argument(
        "dataset", nargs="?", default="amazon",
        help="dataset the in-process cluster serves (run/status)",
    )
    ctl.add_argument(
        "--fixture", metavar="FILE", default=None,
        help="JSON-lines HealthSample fixture driving the policies instead "
        "of a live probe (makes run/plan deterministic)",
    )
    ctl.add_argument(
        "--dry-run", action="store_true",
        help="plan actions without applying them (JSON lines per tick)",
    )
    ctl.add_argument(
        "--ticks", type=int, default=None,
        help="reconcile ticks (default: the fixture's length, or 5 live)",
    )
    ctl.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between ticks",
    )
    ctl.add_argument("--shards", type=int, default=2, help="shard count")
    ctl.add_argument(
        "--replicas", type=int, default=1, help="initial replicas per shard"
    )
    ctl.add_argument("--model", default="IC", choices=("IC", "LT"))
    ctl.add_argument("--epsilon", type=float, default=0.5)
    ctl.add_argument("--seed", type=int, default=0)
    ctl.add_argument(
        "--theta-cap", type=int, default=2000,
        help="sketch size in RRR sets",
    )
    ctl.add_argument(
        "--p99-slo", type=float, default=0.5, metavar="SECONDS",
        help="windowed p99 latency SLO the autoscaler defends",
    )
    ctl.add_argument(
        "--shed-slo", type=float, default=1.0, metavar="PER_S",
        help="shed rate above which the autoscaler treats a tick as a breach",
    )
    ctl.add_argument(
        "--min-replicas", type=int, default=1,
        help="autoscaler floor (per shard)",
    )
    ctl.add_argument(
        "--max-replicas", type=int, default=4,
        help="autoscaler ceiling (per shard)",
    )
    ctl.add_argument(
        "--breach-ticks", type=int, default=3,
        help="consecutive breach ticks before a scale-up",
    )
    ctl.add_argument(
        "--idle-ticks", type=int, default=5,
        help="consecutive idle ticks before a scale-down",
    )
    ctl.add_argument(
        "--cooldown", type=int, default=5, metavar="TICKS",
        help="minimum ticks between scale events",
    )
    ctl.add_argument(
        "--memory-budget", type=int, default=None, metavar="BYTES",
        help="projected-footprint ceiling blocking scale-ups",
    )
    ctl.add_argument(
        "--inject-faults", metavar="SPEC", default=None,
        help="fault plan for the action scope, e.g. 'crash@action:0'",
    )
    ctl.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for the fault plan's corrupt-mangling RNG",
    )
    ctl.add_argument(
        "--telemetry", metavar="DIR", default=None,
        help="write DIR/metrics.json and DIR/trace.json at exit",
    )
    return parser


def command_help() -> dict[str, str]:
    """Every CLI verb with its one-line help, read off the parser itself.

    Deriving the listing from the parser (rather than a hand-maintained
    table) is what keeps ``repro list`` from drifting when verbs are added;
    a regression test asserts the listing matches ``main()``'s dispatch.
    """
    parser = build_parser()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return {
                choice.dest: choice.help or "" for choice in action._choices_actions
            }
    raise AssertionError("parser has no subcommands")


def render_cli_reference() -> str:
    """Render ``docs/cli.md`` from the live argparse surface.

    The page is *generated*, never hand-edited: ``tools/gen_cli_docs.py``
    writes it and ``tests/test_cli_surface.py`` regenerates and diffs it so
    any parser change that forgets to refresh the page fails CI.  Help text
    is formatted at a fixed 80-column width so the output does not depend
    on the invoking terminal.
    """
    import inspect
    import os

    import repro.errors as errors_mod

    parser = build_parser()
    sub = next(
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    )
    saved_columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        lines = [
            "# CLI reference",
            "",
            "> **Generated page — do not edit.**  Regenerate with "
            "`python tools/gen_cli_docs.py`;",
            "> `tests/test_cli_surface.py` diffs this file against the live "
            "parser on every run.",
            "",
            "All verbs are invoked as `repro <verb> ...` "
            "(equivalently `python -m repro`, with `PYTHONPATH=src` from a "
            "checkout).",
            "",
            "## Verbs",
            "",
            "| verb | summary |",
            "| --- | --- |",
        ]
        verbs = command_help()
        for verb, help_text in verbs.items():
            anchor = "repro-" + verb.replace(" ", "-")
            lines.append(f"| [`{verb}`](#{anchor}) | {help_text} |")
        lines.append("")
        for verb in verbs:
            lines += [
                f"## `repro {verb}`",
                "",
                "```text",
                sub.choices[verb].format_help().rstrip(),
                "```",
                "",
            ]
        lines += [
            "## Exit codes",
            "",
            "Every error class in `repro.errors` carries a stable "
            "`exit_code`; the CLI exits",
            "with it when that error escapes a verb "
            "(see docs/resilience.md for the recovery",
            "semantics behind each one).  One-shot query verbs additionally "
            "map response",
            "status to exit code: "
            + ", ".join(
                f"`{status}` → {code}"
                for status, code in sorted(
                    _STATUS_EXIT.items(), key=lambda kv: kv[1]
                )
            )
            + ".",
            "",
            "| code | error class | meaning |",
            "| --- | --- | --- |",
            "| 0 | — | success |",
        ]
        classes = sorted(
            (
                obj
                for name in dir(errors_mod)
                if inspect.isclass(obj := getattr(errors_mod, name))
                and issubclass(obj, errors_mod.ReproError)
                and obj is not errors_mod.ReproError
            ),
            key=lambda c: (c.exit_code, c.__name__),
        )
        for cls in classes:
            summary = (cls.__doc__ or "").strip().splitlines()[0].rstrip(".")
            summary = summary.replace("|", "\\|")  # keep the table well-formed
            lines.append(f"| {cls.exit_code} | `{cls.__name__}` | {summary} |")
        lines.append("")
        return "\n".join(lines)
    finally:
        if saved_columns is None:
            os.environ.pop("COLUMNS", None)
        else:
            os.environ["COLUMNS"] = saved_columns


def _cmd_list() -> int:
    from repro.graph.datasets import dataset_names

    print("commands:")
    for verb, help_text in command_help().items():
        print(f"  {verb:<16} {help_text}")
    print("experiments:", ", ".join(_EXPERIMENTS))
    print("datasets:   ", ", ".join(dataset_names()))
    return 0


def _cmd_datasets() -> int:
    from repro.bench.report import Table
    from repro.graph.datasets import DATASETS, load_dataset

    t = Table(
        "Replica datasets",
        ["name", "paper name", "replica n", "replica m",
         "paper n", "paper m", "class"],
    )
    for name, spec in DATASETS.items():
        g = load_dataset(name)
        t.add_row(
            name, spec.paper_name, g.num_vertices, g.num_edges,
            spec.paper_nodes, spec.paper_edges, spec.description,
        )
    t.print()
    return 0


def _cmd_experiment(exp_id: str, csv_dir: str | None = None) -> int:
    from repro.bench import experiments as X

    fns = {
        "table1": X.experiment_table1,
        "table2": X.experiment_table2,
        "table3": X.experiment_table3,
        "table4": X.experiment_table4,
        "fig1": X.experiment_fig1,
        "fig2": X.experiment_fig2,
        "fig5": X.experiment_fig5,
        "fig6": X.experiment_fig6,
        "fig7": X.experiment_fig7,
    }
    ids = list(fns) if exp_id == "all" else [exp_id]
    for eid in ids:
        t0 = time.perf_counter()
        table = fns[eid]()
        table.print()
        if csv_dir is not None:
            from pathlib import Path

            out = Path(csv_dir)
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"{eid}.csv"
            table.to_csv(path)
            print(f"[csv written to {path}]")
        print(f"[{eid} regenerated in {time.perf_counter() - t0:.1f}s]")
    return 0


def _run_params_meta(args: argparse.Namespace) -> dict:
    return {
        "dataset": args.dataset, "model": args.model, "k": args.k,
        "epsilon": args.epsilon, "seed": args.seed,
        "theta_cap": args.theta_cap, "framework": args.framework,
    }


def _fault_plan(args: argparse.Namespace, scopes: tuple[str, ...]):
    """The ``--inject-faults`` plan, or ``None``.

    A spec in a scope the command never consults would never fire, so it is
    refused as a :class:`~repro.errors.ParameterError` naming the scope and
    the scopes the command does consult.
    """
    if args.inject_faults is None:
        return None
    from repro.errors import ParameterError
    from repro.resilience import FaultPlan

    plan = FaultPlan.parse(args.inject_faults, seed=args.fault_seed)
    for spec in plan.specs:
        if spec.scope not in scopes:
            raise ParameterError(
                f"--inject-faults scope {spec.scope!r} is never consulted by "
                f"'repro {args.command}'; it consults "
                + ", ".join(map(repr, scopes))
            )
    return plan


def _cmd_run(args: argparse.Namespace) -> int:
    from repro import EfficientIMM, IMMParams, RipplesIMM, load_dataset, telemetry
    from repro.errors import ParameterError

    fault_plan = _fault_plan(args, ("batch",))
    graph = load_dataset(args.dataset, model=args.model, seed=args.seed)
    params = IMMParams(
        k=args.k, epsilon=args.epsilon, model=args.model,
        seed=args.seed, theta_cap=args.theta_cap,
    )
    algo = (
        EfficientIMM(graph) if args.framework == "efficientimm"
        else RipplesIMM(graph)
    )

    checkpointer = None
    if getattr(args, "checkpoint", None) is not None:
        from repro.resilience import SamplingCheckpointer, run_key

        checkpointer = SamplingCheckpointer(
            args.checkpoint,
            run_key(graph, params, framework=algo.name),
        )
    elif getattr(args, "resume", False):
        raise ParameterError("--resume requires --checkpoint DIR")
    run_kwargs = dict(
        checkpointer=checkpointer,
        resume=getattr(args, "resume", False),
        fault_plan=fault_plan,
    )
    telemetry_dir = getattr(args, "telemetry", None)
    if telemetry_dir is not None:
        with telemetry.session() as tel:
            result = algo.run(params, **run_kwargs)
        paths = telemetry.write_report(telemetry_dir, tel, run=_run_params_meta(args))
        print(f"telemetry: {paths['metrics']} {paths['trace']}")
    else:
        result = algo.run(params, **run_kwargs)
    print(result.summary())
    print("seeds:", " ".join(map(str, result.seeds.tolist())))
    for stage, secs in result.times.stages.items():
        print(f"  {stage}: {secs:.3f}s")
    if args.estimate_spread:
        from repro import estimate_spread, get_model

        model = get_model(args.model, graph)
        est = estimate_spread(model, result.seeds, num_samples=100, seed=args.seed)
        lo, hi = est.confidence_interval()
        print(
            f"MC spread: {est.mean:.1f} +- {est.stderr:.1f} "
            f"(95% CI [{lo:.1f}, {hi:.1f}])"
        )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro import EfficientIMM, IMMParams, RipplesIMM, load_dataset, telemetry

    graph = load_dataset(args.dataset, model=args.model, seed=args.seed)
    params = IMMParams(
        k=args.k, epsilon=args.epsilon, model=args.model,
        seed=args.seed, theta_cap=args.theta_cap,
    )
    algo = (
        EfficientIMM(graph) if args.framework == "efficientimm"
        else RipplesIMM(graph)
    )
    with telemetry.session(memory=args.memory) as tel:
        result = algo.run(params)
    print(result.summary())
    paths = telemetry.write_report(args.out, tel, run=_run_params_meta(args))
    snap = tel.snapshot()
    spans = sum(1 for r in tel.tracer.roots for _ in r.iter_tree())
    print(
        f"{spans} spans, {len(snap['counters'])} counters, "
        f"{len(snap['gauges'])} gauges, {len(snap['histograms'])} histograms"
    )
    for name in sorted(snap["counters"]):
        print(f"  {name} = {snap['counters'][name]:g}")
    print(f"metrics: {paths['metrics']}")
    print(f"trace:   {paths['trace']}  (open in chrome://tracing)")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.bench.sweep import run_sweep

    t0 = time.perf_counter()
    written = run_sweep(
        args.out,
        datasets=args.datasets,
        models=tuple(args.models),
        k=args.k,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    print(
        f"wrote {len(written)} run logs under {args.out}/ "
        f"in {time.perf_counter() - t0:.1f}s"
    )
    print("next: repro extract-results --logs", args.out)
    return 0


def _cmd_extract(args: argparse.Namespace) -> int:
    from repro.bench.sweep import extract_results

    paths = extract_results(args.logs, args.results)
    if not paths:
        print(f"no sweep logs found under {args.logs}/")
        return 1
    for model, path in paths.items():
        print(f"{model}: {path}")
        print(path.read_text().rstrip())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from repro import EfficientIMM, IMMParams, estimate_spread, get_model, load_dataset
    from repro.core.parallel_sampling import parallel_generate
    from repro.core.sampling import RRRSampler, SamplingConfig
    from repro.kernels import roots_for_indices
    from repro.runtime.backends import SerialBackend
    from repro.validate import (
        roots_are_uniform,
        same_size_distribution,
        spread_consistent,
    )

    graph = load_dataset(args.dataset, model=args.model, seed=args.seed)
    model = get_model(args.model, graph)
    checks = []

    # The root stream every sampler draws from.
    roots = roots_for_indices(args.seed, np.arange(3000), graph.num_vertices)
    checks.append(roots_are_uniform(roots, graph.num_vertices))

    serial = RRRSampler(
        get_model(args.model, graph),
        SamplingConfig.efficientimm(),
        seed=args.seed,
    )
    serial.extend(200)
    par = parallel_generate(
        graph, args.model, 200, num_workers=3, seed=args.seed + 1,
        backend=SerialBackend(),
    )
    checks.append(same_size_distribution(serial.store.sizes(), par.sizes()))

    res = EfficientIMM(graph).run(
        IMMParams(k=8, model=args.model, theta_cap=1200, seed=args.seed)
    )
    est = estimate_spread(model, res.seeds, num_samples=120, seed=args.seed + 2)
    checks.append(spread_consistent(res.spread_estimate, est.mean, est.stderr))

    failed = 0
    for c in checks:
        status = "PASS" if c else "FAIL"
        failed += not c
        stat = f"stat={c.statistic:.3g}"
        pv = "" if c.p_value != c.p_value else f" p={c.p_value:.3g}"
        print(f"  [{status}] {c.name}: {stat}{pv} ({c.detail})")
    print(
        f"{len(checks) - failed}/{len(checks)} statistical checks passed "
        f"on {args.dataset} [{args.model}]"
    )
    return 1 if failed else 0


def _engine_config(args: argparse.Namespace, **overrides):
    from repro.service import EngineConfig

    kwargs: dict = {}
    if getattr(args, "cache_bytes", None) is not None:
        kwargs["cache_budget_bytes"] = args.cache_bytes
    if getattr(args, "artifacts", None) is not None:
        kwargs["artifact_dir"] = args.artifacts
    kwargs.update(overrides)
    return EngineConfig(**kwargs)


#: One-shot verbs map response status to exit code here; the codes line up
#: with the repro.errors table ("overloaded" is a transient backend push-back,
#: hence BackendError's 5).
_STATUS_EXIT = {"ok": 0, "error": 2, "timeout": 3, "overloaded": 5}


def _wire_query(args: argparse.Namespace, **overrides):
    """Build a one-shot :class:`IMQuery` via the canonical wire round-trip.

    The query is encoded with the gateway client's helpers and re-parsed
    with the protocol parser — the exact path a line takes over TCP — so
    the CLI verbs cannot drift from the wire format (docs/gateway.md).
    """
    from repro.gateway.client import encode_queries
    from repro.service import IMQuery, parse_request_line

    fields = dict(
        dataset=args.dataset, model=args.model, k=args.k,
        epsilon=args.epsilon, seed=args.seed,
        theta_cap=getattr(args, "theta_cap", None),
        deadline_s=getattr(args, "deadline", None),
    )
    fields.update(overrides)
    [query] = parse_request_line(encode_queries([IMQuery(**fields)]))
    return query


def _emit_response(resp, *, as_json: bool, headline: str, source: str) -> int:
    """Shared printing + exit-code mapping of the one-shot query verbs."""
    code = _STATUS_EXIT.get(resp.status, 2)
    if as_json:
        print(resp.to_json())
        return code
    if not resp.ok:
        print(f"error: {resp.error}", file=sys.stderr)
        return code
    print(
        f"{headline}: spread estimate {resp.spread_estimate:.1f} "
        f"({resp.coverage_fraction:.1%} of {resp.num_rrrsets} RRR sets), "
        f"{source} in {resp.latency_s:.3f}s"
    )
    print("seeds:", " ".join(map(str, resp.seeds)))
    return code


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.service import QueryEngine

    query = _wire_query(args)
    with QueryEngine(config=_engine_config(args)) as engine:
        resp = engine.query(query)
    if resp.degraded:
        source = "served from stale artifact (degraded)"
    elif resp.cached:
        source = "served from cache/artifact (warm)"
    else:
        source = "served from cold sampling"
    return _emit_response(
        resp, as_json=args.json,
        headline=f"{args.dataset} [{args.model}] k={args.k}",
        source=source,
    )


def _write_telemetry(args: argparse.Namespace, tel, run: dict) -> None:
    """Write the ``--telemetry`` report of ``run``, when asked for, and
    name its files on stderr."""
    from repro import telemetry

    if args.telemetry is not None:
        paths = telemetry.write_report(args.telemetry, tel, run=run)
        print(
            f"telemetry: {paths['metrics']} {paths['trace']}",
            file=sys.stderr,
        )


def _serve_loop(tel, shutdown, execute, snapshot, ops=None) -> int:
    """Shared JSON-lines loop of the ``serve`` verbs.

    ``execute(queries) -> responses`` handles a parsed batch.  Of the
    control operations, ``stats`` answers ``snapshot()`` with the telemetry
    counters, ``shutdown`` ends the loop, and any other goes to ``ops(op
    dict) -> payload | None`` (``None`` means unknown op).  Batches and
    control ops run inside the shutdown guard, so a SIGINT/SIGTERM drains
    the in-flight work before the loop exits; the return value is the
    number of queries served.
    """
    import json

    from repro.errors import ParameterError
    from repro.service import ShutdownRequested, parse_request_line

    served = 0
    try:
        for raw in sys.stdin:
            line = raw.strip()
            if not line:
                continue
            try:
                request = parse_request_line(line)
            except ParameterError as exc:
                print(
                    json.dumps({"status": "error", "error": str(exc)}),
                    flush=True,
                )
                continue
            if isinstance(request, dict):  # control operation
                op = request.get("op")
                with shutdown.guard():
                    if op == "stats":
                        snap = tel.snapshot()
                        payload = {
                            "status": "ok", "op": "stats", **snapshot(),
                            "counters": snap["counters"],
                        }
                    elif op == "shutdown":
                        payload = {"status": "ok", "op": "shutdown"}
                    else:
                        payload = ops(request) if ops is not None else None
                if payload is None:
                    payload = {"status": "error", "error": f"unknown op {op!r}"}
                print(json.dumps(payload, default=float), flush=True)
                if op == "shutdown":
                    break
            else:
                with shutdown.guard():
                    for resp in execute(request):
                        served += 1
                        print(resp.to_json(), flush=True)
            if shutdown.requested:
                break
    except ShutdownRequested:
        pass
    if shutdown.requested:
        print(
            f"shutdown: signal {shutdown.signum} received, in-flight work "
            "drained",
            file=sys.stderr,
        )
    return served


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.service import GracefulShutdown, QueryEngine

    config = _engine_config(
        args,
        default_theta=args.default_theta,
        backend=args.backend,
        num_workers=args.num_workers,
    )
    with telemetry.session() as tel, QueryEngine(config=config) as engine, \
            GracefulShutdown() as shutdown:
        served = _serve_loop(
            tel, shutdown, engine.execute, engine.stats_snapshot
        )
        # The flush runs inside the guard so a first signal arriving now
        # cannot cut the telemetry report in half (a repeated signal still
        # escalates past the guard, by design).
        with shutdown.guard():
            _write_telemetry(
                args, tel, {"command": "serve", "queries": served}
            )
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    from repro import telemetry
    from repro.errors import ParameterError
    from repro.service import GracefulShutdown
    from repro.shard import RouterConfig, ShardCluster, ShardPlan, SketchSpec

    plan = ShardPlan(num_shards=args.shards, replication=args.replicas)
    router_config = RouterConfig(
        default_theta=args.default_theta,
        worker_deadline_s=args.worker_deadline,
        allow_degraded=not args.no_degraded,
    )
    engine_config = _engine_config(args, default_theta=args.default_theta)

    def make_spec() -> SketchSpec:
        if args.dataset is None:
            raise ParameterError(
                f"'repro shard {args.action}' needs a dataset argument"
            )
        return SketchSpec(
            dataset=args.dataset.lower(),
            model=args.model,
            epsilon=args.epsilon,
            seed=args.seed,
            num_sets=args.theta_cap or args.default_theta,
        )

    with telemetry.session() as tel, ShardCluster(
        plan, engine_config=engine_config, router_config=router_config
    ) as cluster:
        if args.action == "build":
            import json

            summary = cluster.build(make_spec())
            print(json.dumps(summary, default=float))
            served = 0
        elif args.action == "query":
            spec = make_spec()
            resp = cluster.query(
                _wire_query(
                    args, dataset=spec.dataset, model=spec.model,
                    epsilon=spec.epsilon, seed=spec.seed,
                    theta_cap=spec.num_sets,
                )
            )
            source = (
                "degraded (shard down)" if resp.degraded
                else "warm" if resp.cached else "cold"
            )
            code = _emit_response(
                resp, as_json=args.json,
                headline=(
                    f"{spec.dataset} [{spec.model}] k={args.k} over "
                    f"{plan.num_shards} shard(s)"
                ),
                source=source,
            )
            if code:
                return code
            served = 1
        else:  # serve
            with GracefulShutdown() as shutdown:

                def fault_ops(request):
                    op = request.get("op")
                    if op not in ("kill", "revive"):
                        return None
                    if "shard" not in request:
                        return {"status": "error",
                                "error": f"op {op!r} needs a 'shard' field"}
                    fn = cluster.kill if op == "kill" else cluster.revive
                    replica = request.get("replica")
                    names = fn(
                        int(request["shard"]),
                        int(replica) if replica is not None else None,
                    )
                    return {"status": "ok", "op": op, "workers": names}

                served = _serve_loop(
                    tel, shutdown, cluster.execute, cluster.stats_snapshot,
                    fault_ops,
                )
                with shutdown.guard():
                    _write_telemetry(
                        args, tel,
                        {"command": "shard serve", "queries": served,
                         **plan.describe()},
                    )
            return 0
        _write_telemetry(
            args, tel,
            {"command": f"shard {args.action}", "queries": served,
             **plan.describe()},
        )
    return 0


def _cmd_gateway(args: argparse.Namespace) -> int:
    if args.action == "serve":
        return _gateway_serve(args)
    if args.action == "query":
        return _gateway_query(args)
    return _gateway_loadgen(args)


def _gateway_serve(args: argparse.Namespace) -> int:
    import asyncio
    from contextlib import ExitStack

    from repro import telemetry
    from repro.gateway import GatewayConfig, GatewayServer
    from repro.service import GracefulShutdown, ShutdownRequested

    gkwargs: dict = dict(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        idle_timeout_s=args.idle_timeout if args.idle_timeout > 0 else None,
        queue_depth=args.queue_depth,
        queue_deadline_s=args.queue_deadline,
        batch_window_s=args.batch_window,
        batch_max=args.batch_max,
        rate_limit_per_s=args.rate_limit,
        rate_limit_burst=args.rate_burst,
    )
    if args.max_line_bytes is not None:
        gkwargs["max_line_bytes"] = args.max_line_bytes
    gconfig = GatewayConfig(**gkwargs)

    with ExitStack() as stack:
        tel = stack.enter_context(telemetry.session())
        if args.shards > 0:
            from repro.shard import RouterConfig, ShardCluster, ShardPlan

            engine = stack.enter_context(
                ShardCluster(
                    ShardPlan(
                        num_shards=args.shards, replication=args.replicas
                    ),
                    engine_config=_engine_config(
                        args, default_theta=args.default_theta
                    ),
                    router_config=RouterConfig(
                        default_theta=args.default_theta
                    ),
                )
            )
        else:
            from repro.service import QueryEngine

            engine = stack.enter_context(
                QueryEngine(
                    config=_engine_config(
                        args,
                        default_theta=args.default_theta,
                        backend=args.backend,
                        num_workers=args.num_workers,
                    )
                )
            )
        server = GatewayServer(engine, config=gconfig)
        shutdown = stack.enter_context(GracefulShutdown())

        def on_started(srv: GatewayServer) -> None:
            print(
                f"gateway listening on {srv.host}:{srv.port}",
                file=sys.stderr, flush=True,
            )

        # Inside the guard a first SIGINT/SIGTERM only sets the drain flag,
        # which the serve loop polls through should_stop; a repeated signal
        # escalates to ShutdownRequested and unwinds asyncio.run itself.
        with shutdown.guard():
            try:
                asyncio.run(
                    server.serve(
                        should_stop=lambda: shutdown.requested,
                        on_started=on_started,
                    )
                )
            except ShutdownRequested:
                pass
        if shutdown.requested:
            print(
                f"shutdown: signal {shutdown.signum} received, "
                "connections drained",
                file=sys.stderr,
            )
        summary = server.stats.to_dict()
        print(
            "gateway served {ok} ok / {shed} shed / {timeouts} timeout(s) "
            "over {connections} connection(s)".format(**summary),
            file=sys.stderr,
        )
        with shutdown.guard():
            _write_telemetry(
                args, tel, {"command": "gateway serve", **summary}
            )
    return 0


def _gateway_query(args: argparse.Namespace) -> int:
    from repro.errors import ParameterError
    from repro.gateway import GatewayClient
    from repro.resilience.retry import RetryPolicy

    if args.dataset is None:
        raise ParameterError("'repro gateway query' needs a dataset argument")
    query = _wire_query(args)
    retry = RetryPolicy(
        max_attempts=max(1, args.retries), base_delay_s=0.2, max_delay_s=2.0
    )
    with GatewayClient(args.host, args.port, retry=retry) as client:
        resp = client.query(query)
    if resp.degraded:
        source = "served from stale sketch (degraded)"
    elif resp.cached:
        source = "served warm"
    else:
        source = "served cold"
    return _emit_response(
        resp, as_json=args.json,
        headline=(
            f"{args.dataset} [{args.model}] k={args.k} "
            f"via {args.host}:{args.port}"
        ),
        source=source,
    )


def _gateway_loadgen(args: argparse.Namespace) -> int:
    import json

    from repro.gateway import LoadGenConfig, run_loadgen

    config = LoadGenConfig(
        mode=args.mode,
        duration_s=args.duration,
        total_requests=args.requests,
        rate_per_s=args.rate,
        concurrency=args.concurrency,
        dataset=args.dataset or "amazon",
        model=args.model,
        theta_cap=args.theta_cap if args.theta_cap is not None else 300,
        epsilon=args.epsilon,
        sketch_seed=args.seed,
        deadline_s=args.deadline,
        zipf_s=args.zipf,
        seed=args.seed,
    )
    summary = run_loadgen(args.host, args.port, config)
    print(json.dumps(summary, indent=2, default=float))
    if summary["completed"] == 0:
        print(
            "error: no request completed (is the gateway up?)",
            file=sys.stderr,
        )
        return 5
    return 0


def _cmd_update(args: argparse.Namespace) -> int:
    import json
    from contextlib import ExitStack

    from repro import load_dataset, telemetry
    from repro.dynamic import DeltaGraph, DynamicService, IncrementalMaintainer
    from repro.dynamic.updates import parse_update_line
    from repro.errors import ParameterError

    if args.resume and args.checkpoint is None:
        raise ParameterError("--resume requires --checkpoint DIR")

    graph = load_dataset(args.dataset, model=args.model, seed=args.seed)
    delta = DeltaGraph(graph)
    maintainer_kwargs = dict(
        model=args.model,
        num_sets=args.theta_cap,
        seed=args.seed,
        full_resample_threshold=args.threshold,
        repair=args.repair,
    )

    # With --resume, commits up to the checkpointed epoch are replayed
    # graph-only (no sampling); the maintainer is restored once the delta
    # graph reaches that epoch.  Queries inside the replayed prefix were
    # answered by the interrupted run, so they are skipped with a notice.
    resume_epoch = 0
    if args.resume:
        probe = IncrementalMaintainer(delta, build=False, **maintainer_kwargs)
        resume_epoch = probe.checkpoint_epoch(args.checkpoint) or 0

    def make_service() -> DynamicService:
        maintainer = None
        if args.resume and resume_epoch > 0:
            maintainer = IncrementalMaintainer.from_checkpoint(
                args.checkpoint, delta, **maintainer_kwargs
            )
        return DynamicService(
            args.dataset, delta=delta, maintainer=maintainer,
            epsilon=args.epsilon, **maintainer_kwargs,
        )

    commits = 0
    queries = 0
    with ExitStack() as stack:
        tel = stack.enter_context(telemetry.session())
        service: DynamicService | None = None
        if delta.epoch >= resume_epoch:
            service = stack.enter_context(make_service())
        stream = (
            sys.stdin if args.updates == "-"
            else stack.enter_context(open(args.updates))
        )
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            op = parse_update_line(line)
            if op.kind == "update":
                delta.stage(op.update)
            elif op.kind == "commit":
                if service is None:
                    # Replay prefix: advance the graph without repairing.
                    delta.commit()
                    if delta.epoch >= resume_epoch:
                        service = stack.enter_context(make_service())
                    print(
                        json.dumps(
                            {"op": "commit", "epoch": delta.epoch,
                             "mode": "replayed"}
                        ),
                        flush=True,
                    )
                else:
                    report = service.commit()
                    commits += 1
                    if args.checkpoint is not None:
                        service.maintainer.save_checkpoint(args.checkpoint)
                    print(
                        json.dumps({"op": "commit", **report.to_dict()},
                                   default=float),
                        flush=True,
                    )
            elif op.kind == "query":
                if service is None:
                    print(
                        json.dumps(
                            {"status": "skipped", "id": op.id,
                             "reason": "resume-replay"}
                        ),
                        flush=True,
                    )
                    continue
                resp = service.query(
                    op.k if op.k is not None else args.k,
                    deadline_s=op.deadline_s, id=op.id,
                )
                queries += 1
                print(resp.to_json(), flush=True)
            else:  # stats
                if service is None:
                    print(
                        json.dumps(
                            {"status": "skipped", "reason": "resume-replay"}
                        ),
                        flush=True,
                    )
                    continue
                print(
                    json.dumps(
                        {"status": "ok", "op": "stats",
                         **service.stats_snapshot()},
                        default=float,
                    ),
                    flush=True,
                )
        if delta.pending_count:
            print(
                f"warning: {delta.pending_count} staged update(s) were never "
                "committed and are discarded",
                file=sys.stderr,
            )
        _write_telemetry(
            args, tel,
            {"command": "update", "dataset": args.dataset,
             "commits": commits, "queries": queries},
        )
    print(
        f"update stream done: epoch {delta.epoch}, {commits} commit(s), "
        f"{queries} query(ies)",
        file=sys.stderr,
    )
    return 0


def _cmd_shm(args: argparse.Namespace) -> int:
    import json

    from repro.shm.segments import list_segments, sweep_orphans

    if args.action == "sweep":
        removed = sweep_orphans(args.prefix)
        print(
            json.dumps(
                {"op": "sweep", "prefix": args.prefix,
                 "removed": removed, "count": len(removed)}
            )
        )
    else:  # list
        names = list_segments(args.prefix)
        print(
            json.dumps(
                {"op": "list", "prefix": args.prefix,
                 "segments": names, "count": len(names)}
            )
        )
    return 0


def _cmd_control(args: argparse.Namespace) -> int:
    import itertools
    import json

    from repro import telemetry
    from repro.control import (
        AdmissionPolicy,
        AutoscaleConfig,
        AutoscalePolicy,
        Controller,
        ControllerConfig,
        HealthProbe,
        HealthSample,
        SelfHealPolicy,
    )
    from repro.errors import ParameterError

    fault_plan = _fault_plan(args, ("action",))

    policies = [
        SelfHealPolicy(),
        AutoscalePolicy(
            AutoscaleConfig(
                p99_slo_s=args.p99_slo,
                shed_rate_slo=args.shed_slo,
                breach_ticks=args.breach_ticks,
                idle_ticks=args.idle_ticks,
                cooldown_ticks=args.cooldown,
                min_replicas=args.min_replicas,
                max_replicas=args.max_replicas,
                memory_budget_bytes=args.memory_budget,
            )
        ),
        AdmissionPolicy(),
    ]

    if args.fixture is not None:
        # Fixture mode: samples come from a JSON-lines file, the clock is a
        # deterministic tick counter, and actions are never applied — the
        # output is an exact, reproducible plan.
        with open(args.fixture) as fh:
            samples = [
                HealthSample.from_dict(json.loads(line))
                for line in fh
                if line.strip()
            ]
        if not samples:
            raise ParameterError(f"fixture {args.fixture!r} has no samples")
        if args.action == "status":
            print(json.dumps(samples[0].to_dict(), default=float))
            return 0
        ticks = len(samples) if args.ticks is None else min(
            args.ticks, len(samples)
        )
        feed = iter(samples)
        steps = itertools.count()
        controller = Controller(
            lambda: next(feed),
            policies,
            config=ControllerConfig(
                interval_s=args.interval, dry_run=True
            ),
            clock=lambda: float(next(steps)),
            sleep=lambda _s: None,
            fault_plan=fault_plan,
        )
        for report in controller.run(ticks=ticks):
            print(json.dumps(report.to_dict(), default=float), flush=True)
        return 0

    if args.action == "plan":
        raise ParameterError(
            "'repro control plan' needs --fixture FILE (a live plan would "
            "not be reproducible); use 'run --dry-run' against a live stack"
        )

    from repro.shard import RouterConfig, ShardCluster, ShardPlan, SketchSpec

    plan = ShardPlan(num_shards=args.shards, replication=args.replicas)
    with telemetry.session() as tel, ShardCluster(
        plan,
        router_config=RouterConfig(default_theta=args.theta_cap),
    ) as cluster:
        cluster.build(
            SketchSpec(
                dataset=args.dataset.lower(),
                model=args.model,
                epsilon=args.epsilon,
                seed=args.seed,
                num_sets=args.theta_cap,
            )
        )
        probe = HealthProbe(cluster=cluster)
        controller = Controller(
            probe,
            policies,
            cluster=cluster,
            config=ControllerConfig(
                interval_s=args.interval, dry_run=args.dry_run
            ),
            fault_plan=fault_plan,
        )
        if args.action == "status":
            print(
                json.dumps(
                    {
                        "sample": probe.sample().to_dict(),
                        "controller": controller.status(),
                    },
                    default=float,
                )
            )
            return 0
        ticks = 5 if args.ticks is None else args.ticks
        for report in controller.run(ticks=ticks):
            print(json.dumps(report.to_dict(), default=float), flush=True)
        print(
            json.dumps(
                {"op": "status", **controller.status()}, default=float
            ),
            flush=True,
        )
        _write_telemetry(
            args, tel,
            {"command": "control run", "ticks": controller.ticks,
             **plan.describe()},
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    dispatch = {
        "list": lambda: _cmd_list(),
        "datasets": lambda: _cmd_datasets(),
        "experiment": lambda: _cmd_experiment(args.id, args.csv),
        "run": lambda: _cmd_run(args),
        "trace": lambda: _cmd_trace(args),
        "sweep": lambda: _cmd_sweep(args),
        "extract-results": lambda: _cmd_extract(args),
        "validate": lambda: _cmd_validate(args),
        "query": lambda: _cmd_query(args),
        "serve": lambda: _cmd_serve(args),
        "shard": lambda: _cmd_shard(args),
        "gateway": lambda: _cmd_gateway(args),
        "update": lambda: _cmd_update(args),
        "shm": lambda: _cmd_shm(args),
        "control": lambda: _cmd_control(args),
    }
    cmd = dispatch.get(args.command)
    if cmd is None:
        raise AssertionError("unreachable")
    try:
        return cmd()
    except ReproError as exc:
        # Every repro error carries its exit code (see repro.errors for the
        # table): bad parameters exit 2, backend failures 5, injected
        # faults 7, exhausted retries 8, ... — one clean line on stderr,
        # no traceback, and the class decides the code in exactly one place.
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
