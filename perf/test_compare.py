import json

from compare import compare, verdict

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_clear_gain_is_improved():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "improved"
    assert verdict(PARENT, [v * 1.2 for v in PARENT], "higher", 0.1) == "improved"


def test_gain_needs_ten_pairs_and_nine_tenths_of_wins():
    change = [v * 0.97 for v in PARENT]
    assert verdict(PARENT[:9], change[:9], "lower", 0.1) == "unchanged"
    # Two of ten pairs lost: 8/10 wins is below the nine-tenths rule.
    mixed = change[:8] + [PARENT[8] + 1, PARENT[9] + 1]
    assert verdict(PARENT, mixed, "lower", 0.1) == "unchanged"


def test_gain_must_beat_the_parents_spread():
    # Wins every pair but by less than the parent's inter-quartile distance.
    change = [v - 0.05 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1) == "unchanged"


def test_worse_beyond_the_bound():
    assert verdict(PARENT, [v * 1.15 for v in PARENT], "lower", 0.1) == "worse"
    assert verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.1) == "unchanged"
    assert verdict(PARENT, [v * 0.85 for v in PARENT], "higher", 0.1) == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 65.0, 135.0]
    assert verdict(noisy, [v * 1.3 for v in noisy], "lower", 0.1) == "unresolved"
    # ...unless every change run beats every parent run.
    assert verdict(noisy, [v / 10 for v in noisy], "lower", 0.1) == "improved"


def test_more_failures_void_a_gain():
    change = [v * 0.8 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.1, more_failures=True) == "unresolved"


def run_set(values: list[float], failed: int = 0) -> dict:
    return {
        ("w", seed): {
            "workload": "w", "seed": seed, "failed": failed,
            "metrics": {"latency_ms": {"value": v, "unit": "ms"}},
        }
        for seed, v in enumerate(values)
    }


def test_compare_pairs_runs_by_seed_and_flags_worse():
    spec = {"end_to_end": [
        {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    ]}
    rows, worse = compare(run_set(PARENT), run_set(PARENT), spec)
    assert [r["verdict"] for r in rows] == ["unchanged", "unchanged"] and not worse
    rows, worse = compare(run_set(PARENT), run_set([v * 2 for v in PARENT]), spec)
    assert [r["verdict"] for r in rows] == ["unchanged", "worse"] and worse
    assert rows[1]["pairs"] == 10 and rows[1]["wins"] == 0
    json.dumps(rows)  # rows are plain data


SPEC = {"end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}


def test_more_failures_on_the_change_side_are_worse():
    # Faster on every run, but one operation per run failed (e.g. shed).
    rows, worse = compare(run_set(PARENT), run_set([v * 0.8 for v in PARENT], failed=1), SPEC)
    by_metric = {r["metric"]: r for r in rows}
    assert by_metric["failures"]["verdict"] == "worse" and worse
    assert (by_metric["failures"]["parent"], by_metric["failures"]["change"]) == (0, 10)
    assert by_metric["latency_ms"]["verdict"] == "unresolved"
    # Failures on the parent side only are no regression.
    rows, worse = compare(run_set(PARENT, failed=1), run_set(PARENT), SPEC)
    assert rows[0]["verdict"] == "unchanged" and not worse


def test_a_run_missing_from_the_change_side_counts_as_a_failure():
    change = run_set(PARENT)
    del change[("w", 3)]
    rows, worse = compare(run_set(PARENT), change, SPEC)
    assert rows[0]["metric"] == "failures" and rows[0]["change"] == 1
    assert rows[0]["verdict"] == "worse" and worse


def test_cli_exits_1_on_more_failures(tmp_path, capsys):
    from compare import ROOT, main

    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    paths = []
    for side, failed in (("a", 0), ("b", 2)):
        path = tmp_path / f"{side}.jsonl"
        path.write_text("".join(
            json.dumps({
                "workload": "w", "seed": seed, "trace": 0, "failed": failed,
                "metrics": {n: {"value": v, "unit": "x"} for n in names},
            }) + "\n"
            for seed, v in enumerate(PARENT)
        ))
        paths.append(str(path))
    assert main(paths[:1] * 2) == 0
    assert main(paths) == 1
    assert "failures" in capsys.readouterr().out
