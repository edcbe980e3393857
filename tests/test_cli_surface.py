"""Drift guards: CLI verb listing, dispatch table, and documented exit codes.

These tests exist because the verb listing, ``main()``'s dispatch dict, and
the exit-code table in docs/resilience.md are maintained by hand in three
places; each has silently drifted before.
"""

import inspect
import re
from pathlib import Path

import pytest

import repro.cli as cli
import repro.errors as errors

DOCS = Path(__file__).resolve().parent.parent / "docs"


class TestVerbSurface:
    def test_every_verb_dispatched(self):
        """Each parser subcommand has an entry in main()'s dispatch dict."""
        src = inspect.getsource(cli.main)
        for verb in cli.command_help():
            assert f'"{verb}":' in src, f"verb {verb!r} missing from dispatch"

    def test_every_verb_has_help(self):
        for verb, text in cli.command_help().items():
            assert text.strip(), f"verb {verb!r} has no help string"

    def test_expected_verbs_present(self):
        verbs = set(cli.command_help())
        assert {
            "list", "datasets", "experiment", "run", "trace", "sweep",
            "extract-results", "validate", "query", "serve", "update",
            "shard", "gateway", "shm", "control",
        } <= verbs

    def test_control_parser_accepts_documented_flags(self):
        args = cli.build_parser().parse_args(
            [
                "control", "run", "amazon", "--shards", "2", "--replicas",
                "2", "--theta-cap", "500", "--ticks", "3", "--interval",
                "0.5", "--dry-run", "--p99-slo", "0.2", "--shed-slo", "2",
                "--min-replicas", "1", "--max-replicas", "3",
                "--breach-ticks", "2", "--idle-ticks", "4", "--cooldown",
                "6", "--memory-budget", "1000000", "--inject-faults",
                "crash@action:0", "--fault-seed", "7", "--telemetry", "tel",
            ]
        )
        assert args.command == "control" and args.action == "run"
        assert args.dry_run and args.max_replicas == 3
        assert args.memory_budget == 1000000

        args = cli.build_parser().parse_args(
            ["control", "plan", "--fixture", "probe.jsonl"]
        )
        assert args.action == "plan" and args.fixture == "probe.jsonl"

    def test_shm_parser_accepts_documented_flags(self):
        args = cli.build_parser().parse_args(
            ["shm", "sweep", "--prefix", "rs"]
        )
        assert args.command == "shm" and args.action == "sweep"
        assert args.prefix == "rs"

    def test_list_output_names_every_verb(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        for verb in cli.command_help():
            assert re.search(rf"^\s*{re.escape(verb)}\b", out, re.M), (
                f"verb {verb!r} not shown by `repro list`"
            )

    def test_update_parser_accepts_documented_flags(self):
        args = cli.build_parser().parse_args(
            [
                "update", "amazon", "--updates", "u.jsonl", "--model", "LT",
                "--k", "5", "--seed", "3", "--theta-cap", "100",
                "--threshold", "0.5", "--repair", "resample",
                "--checkpoint", "ck", "--resume", "--telemetry", "tel",
            ]
        )
        assert args.command == "update" and args.dataset == "amazon"
        assert args.repair == "resample" and args.resume

    def test_gateway_parser_accepts_documented_flags(self):
        args = cli.build_parser().parse_args(
            [
                "gateway", "serve", "--host", "0.0.0.0", "--port", "0",
                "--shards", "2", "--replicas", "2", "--default-theta", "500",
                "--max-connections", "8", "--queue-depth", "4",
                "--queue-deadline", "0.5", "--batch-window", "0.01",
                "--batch-max", "16", "--rate-limit", "20", "--rate-burst",
                "5", "--max-line-bytes", "4096", "--idle-timeout", "60",
                "--telemetry", "tel",
            ]
        )
        assert args.command == "gateway" and args.action == "serve"
        assert args.queue_depth == 4 and args.rate_limit == 20.0

        args = cli.build_parser().parse_args(
            [
                "gateway", "loadgen", "--mode", "open", "--rate", "200",
                "--concurrency", "8", "--duration", "2", "--requests", "50",
                "--zipf", "1.5", "--deadline", "0.5",
            ]
        )
        assert args.mode == "open" and args.requests == 50

    def test_gateway_default_port_matches_client(self):
        from repro.gateway.client import DEFAULT_PORT

        args = cli.build_parser().parse_args(["gateway", "serve"])
        assert args.port == DEFAULT_PORT


def error_classes():
    """All concrete ReproError subclasses exported by repro.errors."""
    out = []
    for name in dir(errors):
        obj = getattr(errors, name)
        if (
            inspect.isclass(obj)
            and issubclass(obj, errors.ReproError)
            and obj is not errors.ReproError
        ):
            out.append(obj)
    return out


class TestExitCodeDocs:
    @pytest.fixture(scope="class")
    def documented(self):
        """class name -> documented exit code, from docs/resilience.md."""
        text = (DOCS / "resilience.md").read_text()
        table = {}
        for line in text.splitlines():
            m = re.match(r"\|\s*(\d+)\s*\|(.+?)\|", line)
            if not m:
                continue
            code = int(m.group(1))
            for cls in re.findall(r"`(\w+)`", m.group(2)):
                table[cls] = code
        assert table, "no exit-code table found in docs/resilience.md"
        return table

    def test_every_error_class_documented(self, documented):
        for cls in error_classes():
            assert cls.__name__ in documented, (
                f"{cls.__name__} missing from the docs/resilience.md "
                "exit-code table"
            )

    def test_documented_codes_match_classes(self, documented):
        for cls in error_classes():
            assert documented[cls.__name__] == cls.exit_code, (
                f"{cls.__name__}: docs say exit "
                f"{documented[cls.__name__]}, class says {cls.exit_code}"
            )

    def test_no_stale_documented_classes(self, documented):
        known = {c.__name__ for c in error_classes()} | {"ReproError"}
        for name in documented:
            assert name in known, (
                f"docs/resilience.md documents unknown error class {name}"
            )

    def test_generic_exit_documented(self, documented):
        assert documented.get("ReproError") == 1


class TestGeneratedCliReference:
    """docs/cli.md is generated from the parser; these guards catch drift."""

    def test_cli_md_matches_parser(self):
        fresh = cli.render_cli_reference()
        on_disk = (DOCS / "cli.md").read_text()
        assert on_disk == fresh, (
            "docs/cli.md has drifted from the argparse surface; "
            "run: python tools/gen_cli_docs.py"
        )

    def test_reference_covers_every_verb(self):
        fresh = cli.render_cli_reference()
        for verb in cli.command_help():
            assert f"## `repro {verb}`" in fresh, verb

    def test_reference_covers_every_exit_code(self):
        fresh = cli.render_cli_reference()
        for cls in error_classes():
            assert f"`{cls.__name__}`" in fresh, cls.__name__

    def test_render_is_deterministic_across_terminal_widths(self):
        import os

        saved = os.environ.get("COLUMNS")
        try:
            os.environ["COLUMNS"] = "200"
            wide = cli.render_cli_reference()
            os.environ["COLUMNS"] = "40"
            narrow = cli.render_cli_reference()
        finally:
            if saved is None:
                os.environ.pop("COLUMNS", None)
            else:
                os.environ["COLUMNS"] = saved
        assert wide == narrow

    def test_kernel_flags_on_sampling_verbs(self):
        """One sampling stream: no verb that draws RRR sets offers a
        kernel selector."""
        page = cli.render_cli_reference()
        for verb in ("run", "trace", "query", "serve", "shard", "gateway",
                     "update"):
            section = page.split(f"## `repro {verb}`")[1].split("## `repro")[0]
            assert "--kernel" not in section, verb
