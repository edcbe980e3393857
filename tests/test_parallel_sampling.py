"""Tests for process-parallel RRR generation."""

import numpy as np
import pytest

from repro.core.parallel_sampling import parallel_generate
from repro.core.selection import efficient_select
from repro.errors import ParameterError, RetryExhaustedError
from repro.resilience import FaultPlan, RetryPolicy
from repro.runtime.backends import SerialBackend


class TestParallelGenerate:
    def test_count_and_universe(self, skitter_ic):
        store = parallel_generate(
            skitter_ic, "IC", 40, num_workers=2, seed=1,
            backend=SerialBackend(),
        )
        assert len(store) == 40
        assert store.vertices.max() < skitter_ic.num_vertices

    def test_multiprocess_matches_serial_backend(self, skitter_ic):
        serial = parallel_generate(
            skitter_ic, "IC", 30, num_workers=2, seed=3,
            backend=SerialBackend(),
        )
        procs = parallel_generate(skitter_ic, "IC", 30, num_workers=2, seed=3)
        assert len(serial) == len(procs)
        assert np.array_equal(serial.vertices, procs.vertices)
        assert np.array_equal(serial.offsets, procs.offsets)

    def test_deterministic_given_seed(self, skitter_ic):
        a = parallel_generate(
            skitter_ic, "IC", 20, num_workers=3, seed=5, backend=SerialBackend()
        )
        b = parallel_generate(
            skitter_ic, "IC", 20, num_workers=3, seed=5, backend=SerialBackend()
        )
        assert np.array_equal(a.vertices, b.vertices)

    def test_worker_streams_independent(self, skitter_ic):
        # Different workers must not replay the same RNG stream: with 2
        # workers the two halves of the store should differ.
        store = parallel_generate(
            skitter_ic, "IC", 20, num_workers=2, seed=7,
            backend=SerialBackend(),
        )
        half = len(store) // 2
        first = [store.get(i).tolist() for i in range(half)]
        second = [store.get(half + i).tolist() for i in range(half)]
        assert first != second

    def test_uneven_split(self, skitter_ic):
        store = parallel_generate(
            skitter_ic, "IC", 7, num_workers=3, seed=2, backend=SerialBackend()
        )
        assert len(store) == 7

    def test_zero_count(self, skitter_ic):
        store = parallel_generate(
            skitter_ic, "IC", 0, num_workers=2, seed=0, backend=SerialBackend()
        )
        assert len(store) == 0

    def test_lt_model(self, amazon_lt):
        store = parallel_generate(
            amazon_lt, "LT", 25, num_workers=2, seed=4, backend=SerialBackend()
        )
        assert len(store) == 25
        # LT sets are short paths.
        assert store.sizes().mean() < 50

    def test_feeds_selection(self, skitter_ic):
        store = parallel_generate(
            skitter_ic, "IC", 60, num_workers=2, seed=6, backend=SerialBackend()
        )
        res = efficient_select(store, 5)
        assert res.seeds.size == 5

    def test_rejects_bad_args(self, skitter_ic):
        with pytest.raises(ParameterError):
            parallel_generate(skitter_ic, "IC", -1, backend=SerialBackend())
        with pytest.raises(ParameterError):
            parallel_generate(
                skitter_ic, "IC", 5, num_workers=0, backend=SerialBackend()
            )

    def test_retry_and_faults_hold_for_one_call(self, amazon_ic):
        """A caller's backend gets its own retry policy and fault plan
        back, so a later call without ``faults=`` runs fault-free."""
        backend = SerialBackend()
        own_retry = RetryPolicy(max_attempts=1)
        backend.retry_policy = own_retry
        with pytest.raises(RetryExhaustedError, match="crash@task:0x99"):
            parallel_generate(
                amazon_ic, "IC", 10, num_workers=1, seed=0, backend=backend,
                retry=RetryPolicy(max_attempts=1),
                faults=FaultPlan.parse("crash@task:0x99"),
            )
        assert backend.retry_policy is own_retry
        assert backend.fault_plan is None
        store = parallel_generate(
            amazon_ic, "IC", 10, num_workers=1, seed=0, backend=backend
        )
        assert len(store) == 10
