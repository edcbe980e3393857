"""Shared benchmark fixtures.

Every paper experiment is executed once per pytest session (module-level
caches inside :mod:`repro.bench.experiments`); the ``benchmark`` fixture then
times a representative kernel so ``pytest-benchmark`` reports something
meaningful without re-running multi-second experiments dozens of times.

Perf trajectory: benchmarks emit machine-diffable records in the unified
``repro-bench/1`` schema (see :func:`repro.bench.report.write_bench_record`)
via the ``bench_record`` fixture.  Set ``REPRO_BENCH_OUT=<dir>`` to write
one ``BENCH_<name>.json`` per recording benchmark; unset, records are
validated but not persisted, so plain test runs stay side-effect free.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
import pytest

from repro.bench.report import write_bench_record
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.diffusion.base import get_model
from repro.graph.datasets import load_dataset


@pytest.fixture(scope="session")
def amazon_ic_graph():
    return load_dataset("amazon", model="IC", seed=0)


@pytest.fixture(scope="session")
def amazon_store(amazon_ic_graph):
    """A 300-set RRR store on the amazon replica (shared kernel workload)."""
    sampler = RRRSampler(
        get_model("IC", amazon_ic_graph),
        SamplingConfig.efficientimm(),
        seed=0,
    )
    sampler.extend(300)
    return sampler


@pytest.fixture(scope="session")
def bench_out_dir() -> Path | None:
    """Where BENCH_*.json records go; ``None`` disables persistence."""
    out = os.environ.get("REPRO_BENCH_OUT")
    return Path(out) if out else None


@pytest.fixture
def bench_record(bench_out_dir, tmp_path):
    """Emit one unified bench record: ``bench_record(name, table=, **fields)``.

    Always writes (to ``tmp_path`` when ``REPRO_BENCH_OUT`` is unset) so the
    schema path is exercised on every run; returns the written path.
    """

    def _record(name: str, *, table=None, **fields) -> Path:
        out_dir = bench_out_dir if bench_out_dir is not None else tmp_path
        return write_bench_record(
            out_dir / f"BENCH_{name}.json", name, table=table, fields=fields
        )

    return _record


def print_table(table) -> None:
    """Print an experiment table so ``pytest -s`` / captured output shows
    the regenerated rows (mirrors the CLI output)."""
    print(table.render())
