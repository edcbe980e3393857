import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perf/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "2", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_workload_emits_every_metric(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float)
        if not trace:
            assert got["value"] > 0, m["name"]
    for m in wanted:  # every metric is printed by name and unit, too
        assert f"{m['name']} " in proc.stdout


def test_a_slow_host_cuts_the_work_short_but_not_below_the_minimum():
    from calibrate import Calibrator
    from worker import Budget, bracket, repeat

    def step(i):
        time.sleep(0.05)
        return {"i": i}

    cal = Calibrator(iter([0.1, 0.3]).__next__)
    done = repeat(range(10), step, cal, Budget(0.01, least=3))[0]
    assert [r["i"] for r in done] == [0, 1, 2]
    # One calibration came before the first step; the next one closes the
    # bracket of all three.
    cal.now()
    bracket(done, cal)
    assert [r["calib"] for r in done] == [[0.1, 0.3]] * 3
    cal = Calibrator(lambda: 0.0)
    assert [r["i"] for r in repeat(range(4), step, cal, Budget(60.0, least=1))[0]] == [0, 1, 2, 3]


def test_the_processes_of_a_run_share_its_operations():
    from worker import SIZES, operations, share

    cfg = SIZES["imm-ic"]["full"]
    count = operations(cfg, 14)
    shares = [share(cfg, 14, j, 3) for j in range(3)]
    assert sorted(i for mine, _ in shares for i in mine) == list(range(count))
    # Between them the processes never stop before the run's minimum.
    assert sum(budget.least for _, budget in shares) >= cfg["min_ops"]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERF, tmp_path / "perf", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("imm-ic", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
