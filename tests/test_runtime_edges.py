"""Edge cases for the runtime substrate: a one-item schedule, failing
tasks, backend teardown safety, and telemetry merge across forked
workers."""

import numpy as np
import pytest

from repro import telemetry
from repro.errors import BackendError
from repro.runtime.backends import MultiprocessBackend, SerialBackend
from repro.runtime.workqueue import simulate_schedule


# ----------------------------------------------------------- workqueue edges
class TestWorkQueueEdges:
    def test_simulate_schedule_single_item(self):
        r = simulate_schedule(np.array([5.0]), 4, policy="dynamic")
        assert r.makespan == 5.0
        assert r.loads.sum() == 5.0


# ------------------------------------------------------------- backend edges
def _square(x):
    return x * x


def _boom(x):
    if x == 2:
        raise ValueError(f"task {x} failed")
    return x


def _count_one(x):
    tel = telemetry.get()
    if tel.enabled:
        tel.registry.counter("edge.worker_calls").inc()
        tel.registry.histogram("edge.task_value").observe(float(x))
    return x


class TestBackendEdges:
    def test_empty_tasks_serial_and_multiprocess(self):
        assert SerialBackend().run_tasks(_square, []) == []
        with MultiprocessBackend(1) as b:
            assert b.run_tasks(_square, []) == []

    def test_single_task(self):
        with MultiprocessBackend(2) as b:
            assert b.run_tasks(_square, [7]) == [49]

    def test_close_safe_after_worker_exception(self):
        b = MultiprocessBackend(2)
        with pytest.raises(ValueError, match="task 2 failed"):
            b.run_tasks(_boom, [0, 1, 2, 3])
        b.close()  # must not raise
        b.close()  # and stays idempotent
        with pytest.raises(BackendError):
            b.run_tasks(_square, [1])

    def test_context_manager_propagates_worker_exception(self):
        with pytest.raises(ValueError, match="task 2 failed"):
            with MultiprocessBackend(2) as b:
                b.run_tasks(_boom, [2])

    def test_failure_counted_when_telemetry_on(self):
        with telemetry.session() as tel:
            with MultiprocessBackend(2) as b:
                with pytest.raises(ValueError):
                    b.run_tasks(_boom, [1, 2])
        assert tel.snapshot()["counters"]["runtime.task_failures"] == 1.0


# ---------------------------------------------- merge across forked workers
class TestForkedTelemetryMerge:
    def test_worker_deltas_merge_into_parent(self):
        with telemetry.session() as tel:
            with MultiprocessBackend(3) as b:
                out = b.run_tasks(_count_one, list(range(10)))
        assert out == list(range(10))
        snap = tel.snapshot()
        # Each forked task incremented a worker-local counter; the deltas
        # shipped back with the results and merged at reduce time.
        assert snap["counters"]["edge.worker_calls"] == 10.0
        assert snap["histograms"]["edge.task_value"]["count"] == 10
        assert snap["histograms"]["edge.task_value"]["sum"] == pytest.approx(45.0)
        assert snap["counters"]["runtime.tasks"] == 10.0
        assert snap["gauges"]["runtime.num_workers"] == 3.0

    def test_serial_backend_matches_multiprocess_totals(self):
        with telemetry.session() as ser:
            SerialBackend().run_tasks(_count_one, list(range(10)))
        with telemetry.session() as mp:
            with MultiprocessBackend(2) as b:
                b.run_tasks(_count_one, list(range(10)))
        s, m = ser.snapshot(), mp.snapshot()
        assert (
            s["counters"]["edge.worker_calls"]
            == m["counters"]["edge.worker_calls"]
            == 10.0
        )
        assert (
            s["histograms"]["edge.task_value"]["count"]
            == m["histograms"]["edge.task_value"]["count"]
        )
