"""Tests for the runtime substrate: partitioners, the schedule model, backends."""

from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.errors import BackendError, ParameterError
from repro.resilience import FaultPlan, RetryPolicy
from repro.runtime.backends import MultiprocessBackend, SerialBackend
from repro.runtime.partition import balanced_partition, block_partition
from repro.runtime.workqueue import ScheduleResult, simulate_schedule


class TestBlockPartition:
    def test_even_split(self):
        assert block_partition(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_goes_first(self):
        assert block_partition(7, 3) == [(0, 3), (3, 5), (5, 7)]

    def test_more_workers_than_items(self):
        bounds = block_partition(2, 5)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [1, 1, 0, 0, 0]

    def test_zero_items(self):
        assert block_partition(0, 3) == [(0, 0), (0, 0), (0, 0)]

    def test_rejects_zero_workers(self):
        with pytest.raises(ParameterError):
            block_partition(5, 0)

    @given(st.integers(0, 500), st.integers(1, 64))
    @settings(max_examples=80, deadline=None)
    def test_exact_cover(self, n, p):
        bounds = block_partition(n, p)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == n
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c and a <= b and c <= d
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1


class TestBalancedPartition:
    def test_skewed_weights_balanced(self):
        w = np.array([100, 1, 1, 1, 1, 1, 1, 1])
        bounds = balanced_partition(w, 2)
        loads = [w[lo:hi].sum() for lo, hi in bounds]
        # One giant item alone, the rest together.
        assert loads[0] == 100

    def test_uniform_weights_like_block(self):
        w = np.ones(12)
        bounds = balanced_partition(w, 4)
        assert [hi - lo for lo, hi in bounds] == [3, 3, 3, 3]

    def test_zero_weights_fallback(self):
        assert balanced_partition(np.zeros(6), 2) == block_partition(6, 2)

    def test_rejects_negative_weights(self):
        with pytest.raises(ParameterError):
            balanced_partition(np.array([1.0, -1.0]), 2)

    @given(
        st.lists(st.floats(0.0, 100.0), min_size=1, max_size=100),
        st.integers(1, 16),
    )
    @settings(max_examples=60, deadline=None)
    def test_contiguous_exact_cover(self, weights, p):
        w = np.asarray(weights)
        bounds = balanced_partition(w, p)
        assert len(bounds) == p
        assert bounds[0][0] == 0 and bounds[-1][1] == w.size
        for (a, b), (c, d) in zip(bounds, bounds[1:]):
            assert b == c


def reference_dynamic_schedule(c, num_workers, chunk_size):
    """The dynamic policy one chunk at a time: pop the earliest-free
    worker, hand it the chunk, push it back free after the chunk's cost."""
    assignment = np.zeros(c.size, dtype=np.int64)
    loads = np.zeros(num_workers)
    heap = [(0.0, w) for w in range(num_workers)]
    for start in range(0, c.size, chunk_size):
        end = min(start + chunk_size, c.size)
        t, w = heappop(heap)
        assignment[start:end] = w
        cost = float(c[start:end].sum())
        loads[w] += cost
        heappush(heap, (t + cost, w))
    return ScheduleResult(
        assignment=assignment, loads=loads, makespan=float(loads.max())
    )


class TestSimulateSchedule:
    def test_static_blocks(self):
        r = simulate_schedule(np.ones(8), 4, policy="static")
        assert r.loads.tolist() == [2, 2, 2, 2]
        assert r.makespan == 2

    def test_dynamic_balances_skew(self):
        costs = np.array([100.0] + [1.0] * 99)
        static = simulate_schedule(costs, 4, policy="static", chunk_size=1)
        dynamic = simulate_schedule(costs, 4, policy="dynamic", chunk_size=1)
        assert dynamic.makespan <= static.makespan

    def test_dynamic_imbalance_near_one_uniform(self):
        r = simulate_schedule(np.ones(1000), 8, policy="dynamic", chunk_size=4)
        assert r.imbalance < 1.05

    def test_cyclic(self):
        r = simulate_schedule(np.arange(6, dtype=float), 2, policy="cyclic")
        assert r.loads.tolist() == [0 + 2 + 4, 1 + 3 + 5]

    def test_unknown_policy(self):
        with pytest.raises(ParameterError):
            simulate_schedule(np.ones(4), 2, policy="magic")

    def test_empty_costs(self):
        r = simulate_schedule(np.empty(0), 3)
        assert r.makespan == 0.0

    @given(
        st.one_of(
            st.lists(st.floats(0.0, 1e6), max_size=150),
            st.lists(st.integers(0, 3).map(float), max_size=150),
        ),
        st.integers(1, 9),
        st.integers(1, 17),
    )
    @settings(max_examples=200, deadline=None)
    def test_dynamic_matches_per_chunk_reference(self, costs, p, chunk):
        """Floats, integer ties, zeros and the empty case: the same
        schedule as the per-chunk loop, loads equal bit for bit."""
        c = np.asarray(costs, dtype=np.float64)
        ref = reference_dynamic_schedule(c, p, chunk)
        got = simulate_schedule(c, p, policy="dynamic", chunk_size=chunk)
        np.testing.assert_array_equal(got.assignment, ref.assignment)
        assert got.loads.dtype == np.float64
        assert got.loads.tobytes() == ref.loads.tobytes()
        assert got.makespan == ref.makespan

    @given(
        st.lists(st.floats(0.0, 50.0), min_size=1, max_size=120),
        st.integers(1, 8),
        st.sampled_from(["static", "dynamic", "cyclic"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation(self, costs, p, policy):
        c = np.asarray(costs)
        r = simulate_schedule(c, p, policy=policy, chunk_size=3)
        assert r.loads.sum() == pytest.approx(c.sum())
        assert r.makespan == pytest.approx(r.loads.max())
        assert np.all((r.assignment >= 0) & (r.assignment < p))


def _square(x):
    return x * x


class TestBackends:
    def test_serial(self):
        b = SerialBackend()
        assert b.run_tasks(_square, [1, 2, 3]) == [1, 4, 9]

    def test_multiprocess_results_ordered(self):
        with MultiprocessBackend(2) as b:
            assert b.run_tasks(_square, list(range(10))) == [
                x * x for x in range(10)
            ]

    def test_multiprocess_closed_rejects(self):
        b = MultiprocessBackend(1)
        b.close()
        with pytest.raises(BackendError):
            b.run_tasks(_square, [1])

    def test_close_idempotent(self):
        b = MultiprocessBackend(1)
        b.close()
        b.close()

    def test_rejects_zero_workers(self):
        for bad in (0, -1, -7):
            with pytest.raises(BackendError, match="num_workers"):
                MultiprocessBackend(bad)


# ------------------------------------------------ backend telemetry pin
def _pin_task(x):
    tel = telemetry.get()
    if tel.enabled:
        tel.registry.counter("pin.worker_calls").inc()
    return x * x


PIN_VALUES = (
    "runtime.tasks", "runtime.task_failures", "runtime.num_workers",
    "resilience.retries", "pin.worker_calls",
)


def _pin_run(kind, mode):
    backend = SerialBackend() if kind == "serial" else MultiprocessBackend(2)
    with backend:
        if mode in ("idle-plan", "crash"):
            backend.retry_policy = RetryPolicy(max_attempts=2)
            backend.fault_plan = (
                FaultPlan.parse("crash@task:1") if mode == "crash" else FaultPlan()
            )
        return backend.run_tasks(_pin_task, [1, 2, 3])


def _backend_pin_record(kind, mode):
    """What one pinned ``run_tasks`` call returns and records: the results,
    the sorted metric and span names, and the values of :data:`PIN_VALUES`
    (``None`` where the metric was never recorded)."""
    if mode == "off":
        return {"results": _pin_run(kind, mode)}
    with telemetry.session() as tel:
        results = _pin_run(kind, mode)
    snap = tel.snapshot()
    values = {**snap["counters"], **snap["gauges"]}
    return {
        "results": results,
        "counters": sorted(snap["counters"]),
        "gauges": sorted(snap["gauges"]),
        "histograms": sorted(snap["histograms"]),
        "spans": sorted(
            {s.name for root in tel.tracer.roots for s in root.iter_tree()}
        ),
        "values": {name: values.get(name) for name in PIN_VALUES},
    }


BACKEND_PIN = {
    ("serial", "off"): {
        "results": [1, 4, 9],
    },
    ("serial", "on"): {
        "results": [1, 4, 9],
        "counters": [
            "pin.worker_calls",
            "runtime.reduce_s",
            "runtime.tasks",
        ],
        "gauges": [
            "runtime.num_workers",
            "runtime.worker_utilization",
        ],
        "histograms": ["runtime.task_latency_s"],
        "spans": ["runtime.run_tasks"],
        "values": {
            "runtime.tasks": 3.0,
            "runtime.task_failures": None,
            "runtime.num_workers": 1.0,
            "resilience.retries": None,
            "pin.worker_calls": 3.0,
        },
    },
    ("serial", "idle-plan"): {
        "results": [1, 4, 9],
        "counters": [
            "pin.worker_calls",
            "runtime.reduce_s",
            "runtime.tasks",
        ],
        "gauges": [
            "runtime.num_workers",
            "runtime.worker_utilization",
        ],
        "histograms": ["runtime.task_latency_s"],
        "spans": ["runtime.run_tasks"],
        "values": {
            "runtime.tasks": 3.0,
            "runtime.task_failures": None,
            "runtime.num_workers": 1.0,
            "resilience.retries": None,
            "pin.worker_calls": 3.0,
        },
    },
    ("serial", "crash"): {
        "results": [1, 4, 9],
        "counters": [
            "pin.worker_calls",
            "resilience.faults.crash",
            "resilience.faults_injected",
            "resilience.retries",
            "runtime.reduce_s",
            "runtime.tasks",
        ],
        "gauges": [
            "runtime.num_workers",
            "runtime.worker_utilization",
        ],
        "histograms": ["runtime.task_latency_s"],
        "spans": ["runtime.run_tasks"],
        "values": {
            "runtime.tasks": 3.0,
            "runtime.task_failures": None,
            "runtime.num_workers": 1.0,
            "resilience.retries": 1.0,
            "pin.worker_calls": 3.0,
        },
    },
    ("multiprocess", "off"): {
        "results": [1, 4, 9],
    },
    ("multiprocess", "on"): {
        "results": [1, 4, 9],
        "counters": [
            "pin.worker_calls",
            "runtime.reduce_s",
            "runtime.tasks",
        ],
        "gauges": [
            "runtime.num_workers",
            "runtime.worker_utilization",
        ],
        "histograms": ["runtime.task_latency_s"],
        "spans": ["runtime.reduce", "runtime.run_tasks"],
        "values": {
            "runtime.tasks": 3.0,
            "runtime.task_failures": None,
            "runtime.num_workers": 2.0,
            "resilience.retries": None,
            "pin.worker_calls": 3.0,
        },
    },
    ("multiprocess", "idle-plan"): {
        "results": [1, 4, 9],
        "counters": [
            "pin.worker_calls",
            "runtime.reduce_s",
            "runtime.tasks",
        ],
        "gauges": [
            "runtime.num_workers",
            "runtime.worker_utilization",
        ],
        "histograms": ["runtime.task_latency_s"],
        "spans": ["runtime.reduce", "runtime.run_tasks"],
        "values": {
            "runtime.tasks": 3.0,
            "runtime.task_failures": None,
            "runtime.num_workers": 2.0,
            "resilience.retries": None,
            "pin.worker_calls": 3.0,
        },
    },
    ("multiprocess", "crash"): {
        "results": [1, 4, 9],
        "counters": [
            "pin.worker_calls",
            "resilience.faults.crash",
            "resilience.faults_injected",
            "resilience.retries",
            "runtime.reduce_s",
            "runtime.task_failures",
            "runtime.tasks",
        ],
        "gauges": [
            "runtime.num_workers",
            "runtime.worker_utilization",
        ],
        "histograms": ["runtime.task_latency_s"],
        "spans": ["runtime.reduce", "runtime.run_tasks"],
        "values": {
            "runtime.tasks": 3.0,
            "runtime.task_failures": 1.0,
            "runtime.num_workers": 2.0,
            "resilience.retries": 1.0,
            "pin.worker_calls": 3.0,
        },
    },
}


class TestGoldenBackendTelemetry:
    """Pinned: both backends with telemetry off, on, on with an idle fault
    plan and a 2-attempt retry policy, and on with ``crash@task:1`` and 2
    attempts.

    Two entries moved on purpose: the multiprocess ``idle-plan`` and
    ``crash`` runs gained the ``runtime.reduce`` span when the backend's
    separate retry loop became its only dispatch loop, which merges the
    workers' metric deltas under that span as the plain loop did.

    Regenerate:  cd tests && PYTHONPATH=../src python -c "import
    test_runtime as t; [print(repr(k), t._backend_pin_record(*k)) for k
    in t.BACKEND_PIN]"
    """

    @pytest.mark.parametrize("key", sorted(BACKEND_PIN), ids="-".join)
    def test_run_pinned(self, key):
        assert _backend_pin_record(*key) == BACKEND_PIN[key]
