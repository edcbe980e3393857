"""Artifact-style sweep runner: JSON run logs and speedup CSV extraction.

The paper's artifact (`run_efficient_imm.sh` / `run_ripples.sh` +
`extract_results.py`) runs strong-scaling sweeps "starting with 4 threads
and doubling the thread count until the system limit", writes one JSON log
per (dataset, framework, threads) run into ``strong-scaling-logs-<model>-
<framework>`` directories, and post-processes them into ``speedup_ic.csv``
/ ``speedup_lt.csv`` with the columns:

    Dataset, Speedup, EfficientIMM Time (s), Ripples Time (s),
    Ripples Best #Threads, EfficientIMM Best #Threads

This module reproduces that workflow byte-for-byte in structure: the sweep
executes the real workloads, prices them on the simulated machine per
thread count, writes the same directory/JSON layout, and
:func:`extract_results` regenerates the same CSVs.  Exposed on the CLI as
``repro sweep`` and ``repro extract-results``.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from repro.errors import ParameterError
from repro.graph.datasets import dataset_names, load_dataset
from repro.simmachine.cost import CostModel, profile_pair
from repro.simmachine.topology import MachineTopology, perlmutter

__all__ = [
    "RunLog",
    "run_sweep",
    "extract_results",
    "log_dir_name",
    "DEFAULT_THREAD_SWEEP",
]

#: The artifact's schedule: start at 4 threads, double to the machine limit.
DEFAULT_THREAD_SWEEP = (4, 8, 16, 32, 64, 128)

_FRAMEWORK_TAGS = {"EfficientIMM": "eimm", "Ripples": "ripples"}


@dataclass(frozen=True)
class RunLog:
    """One strong-scaling run's JSON record (the artifact's log schema)."""

    dataset: str
    model: str
    framework: str
    num_threads: int
    k: int
    epsilon: float
    theta: int
    total_time_s: float
    generate_rrrsets_s: float
    find_most_influential_s: float
    other_s: float
    seeds: list[int]
    machine: str
    timestamp: float

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(asdict(self), indent=2) + "\n")

    @classmethod
    def read(cls, path: Path) -> "RunLog":
        return cls(**json.loads(path.read_text()))


def log_dir_name(model: str, framework: str) -> str:
    """``strong-scaling-logs-<model>-<framework>`` — the artifact's layout."""
    tag = _FRAMEWORK_TAGS.get(framework)
    if tag is None:
        raise ParameterError(f"unknown framework {framework!r}")
    return f"strong-scaling-logs-{model.lower()}-{tag}"


def run_sweep(
    out_dir: str | Path,
    *,
    datasets: list[str] | None = None,
    models: tuple[str, ...] = ("IC", "LT"),
    thread_sweep: tuple[int, ...] = DEFAULT_THREAD_SWEEP,
    k: int = 50,
    epsilon: float = 0.5,
    seed: int = 0,
    topology: MachineTopology | None = None,
    theta_caps: dict[str, dict[str, int]] | None = None,
) -> list[Path]:
    """Execute the artifact's strong-scaling experiment matrix.

    For every (dataset, model): profile both frameworks from one real
    sampling + selection pass, price each thread count on the simulated
    machine, and write one JSON log per (framework, threads) run.  Returns
    the written paths.
    """
    from repro.bench.experiments import THETA_CAP_IC, THETA_CAP_LT

    caps = theta_caps or {"IC": THETA_CAP_IC, "LT": THETA_CAP_LT}
    topo = topology or perlmutter()
    cm = CostModel(topo)
    out = Path(out_dir)
    names = datasets or dataset_names()
    written: list[Path] = []

    for name in names:
        for model in models:
            graph = load_dataset(name, model=model, seed=seed)
            profiles = profile_pair(
                graph, name, model, k=k, epsilon=epsilon,
                theta_cap=caps[model][name], seed=seed,
            )
            # Seeds are framework-independent (same greedy); recover them
            # once from the real kernel for the log payload.
            from repro.core.selection import efficient_select
            from repro.core.sampling import RRRSampler, SamplingConfig
            from repro.diffusion.base import get_model

            sampler = RRRSampler(
                get_model(model, graph),
                SamplingConfig.efficientimm(),
                seed=seed,
            )
            sampler.extend(min(256, caps[model][name]))
            seeds = efficient_select(
                sampler.store, k, 1, initial_counter=sampler.counter
            ).seeds.tolist()

            for framework, prof in profiles.items():
                log_dir = out / log_dir_name(model, framework)
                log_dir.mkdir(parents=True, exist_ok=True)
                for p in thread_sweep:
                    if p > topo.num_cores:
                        continue
                    stages = cm.total_time_s(prof, p)
                    log = RunLog(
                        dataset=name,
                        model=model,
                        framework=framework,
                        num_threads=p,
                        k=k,
                        epsilon=epsilon,
                        theta=prof.num_sets,
                        total_time_s=stages["Total"],
                        generate_rrrsets_s=stages["Generate_RRRsets"],
                        find_most_influential_s=stages[
                            "Find_Most_Influential_Set"
                        ],
                        other_s=stages["Other"],
                        seeds=seeds,
                        machine=topo.name,
                        timestamp=time.time(),
                    )
                    path = log_dir / f"{name}-t{p}.json"
                    log.write(path)
                    written.append(path)
    return written


def extract_results(
    logs_root: str | Path,
    results_dir: str | Path | None = None,
    *,
    models: tuple[str, ...] = ("IC", "LT"),
) -> dict[str, Path]:
    """The artifact's ``extract_results.py``: logs -> ``speedup_<model>.csv``.

    Reads every JSON log under ``logs_root``, finds each framework's best
    time per (dataset, model), and writes one CSV per model with the
    artifact's exact columns.  Returns ``{model: csv_path}``.
    """
    import csv

    root = Path(logs_root)
    res = Path(results_dir) if results_dir is not None else root / "results"
    res.mkdir(parents=True, exist_ok=True)

    best: dict[tuple[str, str, str], tuple[float, int]] = {}
    for model in models:
        for framework in _FRAMEWORK_TAGS:
            log_dir = root / log_dir_name(model, framework)
            if not log_dir.is_dir():
                continue
            for path in sorted(log_dir.glob("*.json")):
                log = RunLog.read(path)
                key = (log.dataset, log.model, log.framework)
                cur = best.get(key)
                if cur is None or log.total_time_s < cur[0]:
                    best[key] = (log.total_time_s, log.num_threads)

    out_paths: dict[str, Path] = {}
    for model in models:
        rows = []
        datasets = sorted(
            {d for (d, m, _f) in best if m == model},
            key=lambda d: dataset_names().index(d)
            if d in dataset_names() else 99,
        )
        for d in datasets:
            rip = best.get((d, model, "Ripples"))
            eimm = best.get((d, model, "EfficientIMM"))
            if rip is None or eimm is None:
                continue
            rows.append(
                {
                    "Dataset": d,
                    "Speedup": round(rip[0] / eimm[0], 2),
                    "EfficientIMM Time (s)": eimm[0],
                    "Ripples Time (s)": rip[0],
                    "Ripples Best #Threads": rip[1],
                    "EfficientIMM Best #Threads": eimm[1],
                }
            )
        if not rows:
            continue
        csv_path = res / f"speedup_{model.lower()}.csv"
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(rows)
        out_paths[model] = csv_path
    return out_paths
