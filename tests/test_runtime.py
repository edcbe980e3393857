"""Tests for the runtime substrate: partitioners, atomics, queues, backends."""

from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BackendError, ParameterError
from repro.runtime.atomic import AtomicCounterArray
from repro.runtime.api import BackendConfig
from repro.runtime.backends import MultiprocessBackend, SerialBackend, make_backend
from repro.runtime.partition import (
    balanced_partition,
    block_partition,
    cyclic_partition,
)
from repro.runtime.workqueue import (
    ChunkedWorkQueue,
    ScheduleResult,
    simulate_schedule,
)


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


class TestCyclicPartition:
    def test_round_robin(self):
        parts = cyclic_partition(7, 3)
        assert parts[0].tolist() == [0, 3, 6]
        assert parts[1].tolist() == [1, 4]
        assert parts[2].tolist() == [2, 5]

    @given(st.integers(0, 300), st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_exact_cover(self, n, p):
        parts = cyclic_partition(n, p)
        all_items = np.concatenate(parts) if parts else np.empty(0)
        assert sorted(all_items.tolist()) == list(range(n))


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


class TestAtomicCounterArray:
    def test_add_with_duplicates(self):
        c = AtomicCounterArray(5)
        c.add(np.array([1, 1, 2]))
        assert c.values.tolist() == [0, 2, 1, 0, 0]

    def test_sub(self):
        c = AtomicCounterArray(3)
        c.add(np.array([0, 1]))
        c.sub(np.array([1]))
        assert c.values.tolist() == [1, 0, 0]

    def test_update_accounting(self):
        c = AtomicCounterArray(5)
        c.add(np.array([1, 2, 3]))
        c.add(np.array([1]))
        assert c.num_updates == 4
        assert c.num_batches == 2

    def test_merge(self):
        a, b = AtomicCounterArray(3), AtomicCounterArray(3)
        a.add(np.array([0]))
        b.add(np.array([0, 2]))
        a.merge_from(b)
        assert a.values.tolist() == [2, 0, 1]
        assert a.num_updates == 3

    def test_merge_size_mismatch(self):
        with pytest.raises(ParameterError):
            AtomicCounterArray(3).merge_from(AtomicCounterArray(4))

    def test_reset(self):
        c = AtomicCounterArray(3)
        c.add(np.array([1]))
        c.reset()
        assert not c.values.any()

    def test_argmax(self):
        c = AtomicCounterArray(4)
        c.add(np.array([2, 2, 1]))
        assert c.argmax() == 2

    def test_two_step_reduction_matches_argmax(self):
        rng = np.random.default_rng(0)
        c = AtomicCounterArray(100)
        c.add(rng.integers(0, 100, size=1000))
        bounds = block_partition(100, 7)
        regional = c.regional_argmax(bounds)
        assert c.global_from_regional(regional) == c.argmax()

    def test_regional_argmax_empty_ranges(self):
        c = AtomicCounterArray(3)
        c.add(np.array([1]))
        regional = c.regional_argmax(block_partition(3, 5))
        assert (regional == -1).sum() == 2

    def test_conflict_estimate_bounds(self):
        c = AtomicCounterArray(100)
        assert c.estimate_conflicts(np.arange(10), 1) == 0.0
        assert 0.0 < c.estimate_conflicts(np.arange(50), 8) <= 1.0

    def test_rejects_negative_size(self):
        with pytest.raises(ParameterError):
            AtomicCounterArray(-1)


class TestChunkedWorkQueue:
    def test_drains_everything_single_worker(self):
        q = ChunkedWorkQueue(10, num_workers=1, chunk_size=3)
        got = []
        while (c := q.pop(0)) is not None:
            got.append(c)
        assert got == [(0, 3), (3, 6), (6, 9), (9, 10)]

    def test_own_queue_first(self):
        q = ChunkedWorkQueue(8, num_workers=2, chunk_size=2)
        first = q.pop(1)
        assert first == (4, 6)  # worker 1's own block starts at chunk 2

    def test_stealing_when_empty(self):
        q = ChunkedWorkQueue(8, num_workers=2, chunk_size=2)
        q.pop(0), q.pop(0)  # drain worker 0's two chunks
        stolen = q.pop(0)
        assert stolen is not None
        assert q.steals == 1

    def test_steal_takes_from_back(self):
        q = ChunkedWorkQueue(8, num_workers=2, chunk_size=2)
        q.pop(0), q.pop(0)
        assert q.pop(0) == (6, 8)  # back of worker 1's queue

    def test_exhaustion_returns_none(self):
        q = ChunkedWorkQueue(4, num_workers=2, chunk_size=2)
        for _ in range(2):
            q.pop(0)
        q.pop(1)
        assert q.pop(0) is None and q.pop(1) is None

    def test_remaining(self):
        q = ChunkedWorkQueue(10, num_workers=2, chunk_size=5)
        assert q.remaining() == 2
        q.pop(0)
        assert q.remaining() == 1

    def test_rejects_bad_params(self):
        with pytest.raises(ParameterError):
            ChunkedWorkQueue(10, num_workers=2, chunk_size=0)
        with pytest.raises(ParameterError):
            ChunkedWorkQueue(10, num_workers=0)

    @given(st.integers(0, 200), st.integers(1, 8), st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_every_item_dispatched_once(self, n, p, chunk):
        q = ChunkedWorkQueue(n, num_workers=p, chunk_size=chunk)
        seen = []
        w = 0
        while (c := q.pop(w % p)) is not None:
            seen.extend(range(*c))
            w += 1
        assert sorted(seen) == list(range(n))


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

    def test_factory(self):
        assert isinstance(make_backend(BackendConfig(backend="serial")), SerialBackend)
        with pytest.raises(BackendError):
            BackendConfig(backend="gpu")

    def test_rejects_zero_workers(self):
        with pytest.raises(BackendError):
            MultiprocessBackend(0)
