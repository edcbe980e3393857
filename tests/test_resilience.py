"""Tests for repro.resilience: fault injection, retry policies, checkpoint/
resume determinism, failure-aware work queues, comm retry accounting, and
graceful degradation in the query engine (docs/resilience.md)."""

import os
import time

import numpy as np
import pytest

from repro import telemetry
from repro.core import EfficientIMM, IMMParams
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.diffusion.base import get_model
from repro.distributed import SimulatedComm, perlmutter_cluster
from repro.errors import (
    ArtifactError,
    BackendError,
    FaultInjectedError,
    ParameterError,
    ReproError,
    RetryExhaustedError,
)
from repro.graph.datasets import load_dataset
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    SamplingCheckpointer,
    call_with_retry,
    run_key,
)
from repro.runtime.api import BackendConfig, ExecutionContext
from repro.runtime.backends import MultiprocessBackend, SerialBackend
from repro.runtime.workqueue import ChunkedWorkQueue
from repro.service import EngineConfig, IMQuery, QueryEngine


def _square(x):
    return x * x


# ----------------------------------------------------------------- FaultSpec
class TestFaultSpec:
    def test_parse_full_form(self):
        s = FaultSpec.parse("slow@rank:0:0.05")
        assert (s.kind, s.scope, s.index, s.delay_s) == ("slow", "rank", 0, 0.05)

    def test_parse_scope_defaults_to_task(self):
        s = FaultSpec.parse("crash@1")
        assert s.scope == "task" and s.index == 1 and s.times == 1

    def test_parse_repeat_count(self):
        s = FaultSpec.parse("crash@batch:1x2")
        assert s.scope == "batch" and s.index == 1 and s.times == 2

    def test_describe_roundtrip(self):
        for text in ("crash@task:3", "corrupt@collective:2", "crash@batch:1x2"):
            assert FaultSpec.parse(text).describe() == text

    @pytest.mark.parametrize(
        "bad",
        [
            "crash",  # no @
            "crash@",  # no index
            "boom@task:1",  # unknown kind
            "crash@task:x",  # non-numeric index
            "crash@task:1xq",  # bad repeat count
            "crash@task:1:abc",  # bad delay
            "crash@task:1:0.1:junk",  # trailing fields
            "crash@task:-1",  # negative index
        ],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ParameterError):
            FaultSpec.parse(bad)

    def test_validation(self):
        with pytest.raises(ParameterError):
            FaultSpec(kind="crash", index=0, times=0)
        with pytest.raises(ParameterError):
            FaultSpec(kind="slow", index=0, delay_s=-1.0)


# ----------------------------------------------------------------- FaultPlan
class TestFaultPlan:
    def test_parse_multiple_specs(self):
        plan = FaultPlan.parse("crash@task:3, slow@rank:0:0.01")
        assert [s.describe() for s in plan.specs] == [
            "crash@task:3",
            "slow@rank:0",
        ]

    def test_parse_empty_rejected(self):
        with pytest.raises(ParameterError):
            FaultPlan.parse("  ,  ")

    def test_take_respects_budget(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=1, times=2)])
        assert plan.take("task", 1) is not None
        assert plan.take("task", 1) is not None
        assert plan.take("task", 1) is None  # budget spent
        assert plan.injected == 2 and plan.exhausted()

    def test_take_only_matching_scope_and_index(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=1, scope="batch")])
        assert plan.take("task", 1) is None
        assert plan.take("batch", 2) is None
        assert plan.take("batch", 1) is not None

    def test_invoke_crash(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=0)])
        with pytest.raises(FaultInjectedError, match="crash@task:0"):
            plan.invoke("task", 0, lambda: 42)
        assert plan.invoke("task", 0, lambda: 42) == 42  # budget spent

    def test_invoke_slow_still_returns(self):
        plan = FaultPlan([FaultSpec(kind="slow", index=0, delay_s=0.0)])
        assert plan.invoke("task", 0, lambda: 7) == 7
        assert plan.injected == 1

    def test_invoke_corrupt_mangles_result(self):
        plan = FaultPlan([FaultSpec(kind="corrupt", index=0)])
        assert plan.invoke("task", 0, lambda: 10) == 11

    def test_corrupt_is_deterministic_in_seed(self):
        a = np.arange(100.0)
        out1 = FaultPlan(seed=7).corrupt(a.copy())
        out2 = FaultPlan(seed=7).corrupt(a.copy())
        assert np.array_equal(out1, out2)
        assert (out1 != a).sum() == 1  # exactly one element perturbed

    def test_corrupt_payload_shapes(self):
        plan = FaultPlan(seed=0)
        assert plan.corrupt(b"abc") != b"abc"
        assert plan.corrupt(True) is False
        assert plan.corrupt(1.5) == 2.5
        assert plan.corrupt((1, 2)) == (2, 3)
        assert plan.corrupt("text") == "text"  # uncorruptible passes through
        assert plan.corrupt(None) is None

    def test_to_dict_accounting(self):
        plan = FaultPlan.parse("crash@task:0x2", seed=3)
        plan.take("task", 0)
        d = plan.to_dict()
        assert d["seed"] == 3
        assert d["specs"] == ["crash@task:0x2"]
        assert d["remaining"] == [1] and d["injected"] == 1
        assert d["by_kind"] == {"crash": 1}

    def test_telemetry_counters(self):
        with telemetry.session() as tel:
            plan = FaultPlan([FaultSpec(kind="crash", index=0)])
            plan.take("task", 0)
        snap = tel.snapshot()["counters"]
        assert snap["resilience.faults_injected"] == 1.0
        assert snap["resilience.faults.crash"] == 1.0


# --------------------------------------------------------------- RetryPolicy
class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ParameterError):
            RetryPolicy(base_delay_s=-0.1)

    def test_classification(self):
        p = RetryPolicy()
        assert p.is_retryable(FaultInjectedError("x"))
        assert p.is_retryable(BackendError("x"))
        assert p.is_retryable(OSError("x"))
        assert not p.is_retryable(ParameterError("x"))
        assert not p.is_retryable(ValueError("x"))

    def test_non_retryable_wins_on_overlap(self):
        # ParameterError is a ReproError; even with the whole hierarchy
        # marked retryable, the non-retryable list takes precedence.
        p = RetryPolicy(retryable=(ReproError,))
        assert p.is_retryable(BackendError("x"))
        assert not p.is_retryable(ParameterError("x"))

    def test_delay_exponential_and_clamped(self):
        p = RetryPolicy(base_delay_s=0.1, max_delay_s=0.25)
        assert p.delay_for(1) == pytest.approx(0.1)
        assert p.delay_for(2) == pytest.approx(0.2)
        assert p.delay_for(3) == pytest.approx(0.25)  # clamped

    def test_jitter_bounded_and_deterministic(self):
        p = RetryPolicy(base_delay_s=0.0, jitter_s=0.05, seed=1)
        d1, d2 = p.delay_for(1), p.delay_for(1)
        assert d1 == d2  # deterministic in (seed, attempt)
        assert 0.0 <= d1 <= 0.05
        assert p.delay_for(2) != d1  # attempt feeds the draw

    def test_call_recovers_from_transient(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise FaultInjectedError("transient")
            return "ok"

        assert RetryPolicy(max_attempts=3).call(flaky) == "ok"
        assert len(calls) == 3

    def test_call_exhaustion_wraps(self):
        def always():
            raise FaultInjectedError("down")

        with pytest.raises(RetryExhaustedError) as ei:
            RetryPolicy(max_attempts=2).call(always, label="unit op")
        assert ei.value.attempts == 2
        assert ei.value.exit_code == 8
        assert "unit op" in str(ei.value)
        assert isinstance(ei.value.__cause__, FaultInjectedError)

    def test_call_non_retryable_raises_unwrapped(self):
        calls = []

        def bad():
            calls.append(1)
            raise ParameterError("user error")

        with pytest.raises(ParameterError):
            RetryPolicy(max_attempts=5).call(bad)
        assert len(calls) == 1  # never retried

    def test_on_retry_callback(self):
        seen = []

        def flaky():
            if not seen:
                raise BackendError("once")
            return 1

        RetryPolicy(max_attempts=2).call(
            flaky, on_retry=lambda a, e: seen.append((a, type(e).__name__))
        )
        assert seen == [(1, "BackendError")]

    def test_call_with_retry_none_policy(self):
        assert call_with_retry(lambda: 5, None) == 5
        with pytest.raises(FaultInjectedError):
            call_with_retry(lambda: (_ for _ in ()).throw(
                FaultInjectedError("x")), None)

    def test_retry_counter(self):
        with telemetry.session() as tel:
            calls = []

            def flaky():
                calls.append(1)
                if len(calls) < 2:
                    raise BackendError("once")
                return 1

            RetryPolicy(max_attempts=3).call(flaky)
        assert tel.snapshot()["counters"]["resilience.retries"] == 1.0


# ------------------------------------------------------- backend resilience
class TestSerialBackendResilience:
    def _backend(self, plan=None, retry=None):
        b = SerialBackend()
        b.fault_plan = plan
        b.retry_policy = retry
        return b

    def test_fault_without_retry_raises(self):
        b = self._backend(plan=FaultPlan([FaultSpec(kind="crash", index=1)]))
        with pytest.raises(FaultInjectedError):
            b.run_tasks(_square, [1, 2, 3])

    def test_retry_recovers_transient_fault(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=1)])
        b = self._backend(plan=plan, retry=RetryPolicy(max_attempts=2))
        assert b.run_tasks(_square, [1, 2, 3]) == [1, 4, 9]
        assert plan.injected == 1

    def test_retry_exhaustion(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=0, times=5)])
        b = self._backend(plan=plan, retry=RetryPolicy(max_attempts=2))
        with pytest.raises(RetryExhaustedError) as ei:
            b.run_tasks(_square, [1])
        assert ei.value.attempts == 2

    def test_corrupt_fault_mangles_result(self):
        b = self._backend(plan=FaultPlan([FaultSpec(kind="corrupt", index=0)]))
        assert b.run_tasks(_square, [2, 3]) == [5, 9]  # 4 corrupted to 5

    def test_failure_counted_with_telemetry(self):
        with telemetry.session() as tel:
            plan = FaultPlan([FaultSpec(kind="crash", index=0)])
            b = self._backend(plan=plan, retry=RetryPolicy(max_attempts=2))
            assert b.run_tasks(_square, [3]) == [9]
        snap = tel.snapshot()["counters"]
        assert snap["resilience.faults_injected"] == 1.0
        assert snap["resilience.retries"] == 1.0


class TestMultiprocessBackendResilience:
    def test_retry_recovers_transient_fault(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=2)])
        with MultiprocessBackend(2) as b:
            b.fault_plan = plan
            b.retry_policy = RetryPolicy(max_attempts=2)
            assert b.run_tasks(_square, list(range(6))) == [
                x * x for x in range(6)
            ]
        assert plan.injected == 1

    def test_faulted_run_matches_clean_run(self):
        with MultiprocessBackend(2) as b:
            clean = b.run_tasks(_square, list(range(8)))
        plan = FaultPlan.parse("crash@task:1,crash@task:5")
        with MultiprocessBackend(2) as b:
            b.fault_plan = plan
            b.retry_policy = RetryPolicy(max_attempts=3)
            assert b.run_tasks(_square, list(range(8))) == clean
        assert plan.injected == 2

    def test_retry_exhaustion(self):
        with MultiprocessBackend(2) as b:
            b.fault_plan = FaultPlan([FaultSpec(kind="crash", index=0, times=9)])
            b.retry_policy = RetryPolicy(max_attempts=2)
            with pytest.raises(RetryExhaustedError) as ei:
                b.run_tasks(_square, [1, 2])
        assert ei.value.exit_code == 8

    def test_fault_without_retry_raises(self):
        with MultiprocessBackend(2) as b:
            b.fault_plan = FaultPlan([FaultSpec(kind="crash", index=0)])
            with pytest.raises(FaultInjectedError):
                b.run_tasks(_square, [1, 2])

    def test_worker_exception_not_retryable_by_default(self):
        with MultiprocessBackend(2) as b:
            b.retry_policy = RetryPolicy(max_attempts=3)
            with pytest.raises(ValueError):
                b.run_tasks(_raise_value_error, [1])

    def test_corrupt_on_returned_result(self):
        with MultiprocessBackend(2) as b:
            b.fault_plan = FaultPlan([FaultSpec(kind="corrupt", index=1)])
            out = b.run_tasks(_square, [2, 3])
        assert out == [4, 10]  # 9 corrupted to 10

    def test_telemetry_merge_still_works_resilient(self):
        with telemetry.session() as tel:
            with MultiprocessBackend(2) as b:
                b.retry_policy = RetryPolicy(max_attempts=2)
                b.fault_plan = FaultPlan([FaultSpec(kind="crash", index=0)])
                assert b.run_tasks(_square, list(range(4))) == [0, 1, 4, 9]
        snap = tel.snapshot()["counters"]
        assert snap["runtime.tasks"] == 4.0
        assert snap["runtime.task_failures"] == 1.0


def _raise_value_error(x):
    raise ValueError(f"task {x} failed")


# ------------------------------------------- initializer failure regression
_INIT_SLOT = {}


def _good_init(value):
    _INIT_SLOT["v"] = value


def _read_slot(_):
    return _INIT_SLOT.get("v")


def _bad_init():
    raise RuntimeError("init boom")


class TestInitializerFailure:
    def test_raising_initializer_closes_pool(self):
        """Regression: a raising per-process initializer used to leave the
        pool crash-looping forked workers and the first map() hung forever.
        Now spin-up detects it, tears the pool down, and raises."""
        t0 = time.monotonic()
        with pytest.raises(BackendError, match="initializer"):
            MultiprocessBackend(2, initializer=_bad_init)
        assert time.monotonic() - t0 < 30.0  # fails fast, no hang

    def test_close_idempotent_after_init_failure(self):
        try:
            MultiprocessBackend(2, initializer=_bad_init)
        except BackendError:
            pass
        # No instance escaped, but a half-built one must also stay safe:
        b = MultiprocessBackend.__new__(MultiprocessBackend)
        b.close()
        b.close()

    def test_good_initializer_runs_in_every_worker(self):
        with MultiprocessBackend(2, initializer=_good_init, initargs=(42,)) as b:
            assert b.run_tasks(_read_slot, [0, 1, 2]) == [42, 42, 42]

    def test_initializer_via_config(self):
        cfg = BackendConfig(
            backend="multiprocess", num_workers=2,
            initializer=_good_init, initargs=(7,),
        )
        with ExecutionContext(cfg) as ctx:
            assert ctx.run_tasks(_read_slot, [0]) == [7]


# ------------------------------------------------------ workqueue resilience
class TestWorkQueueResilience:
    def test_failed_worker_cannot_pop(self):
        q = ChunkedWorkQueue(8, num_workers=2, chunk_size=2)
        leftover = q.fail_worker(0)
        assert leftover == 2
        assert q.failed_workers == frozenset({0})
        with pytest.raises(BackendError, match="worker 0 has failed"):
            q.pop(0)

    def test_survivors_steal_failed_workers_chunks(self):
        q = ChunkedWorkQueue(12, num_workers=3, chunk_size=2)
        q.fail_worker(0)
        covered = []
        for w in (1, 2, 1, 2, 1, 2, 1):
            c = q.pop(w)
            if c is not None:
                covered.extend(range(*c))
        # Every item — including worker 0's orphaned chunks — is dispatched
        # exactly once to the survivors.
        assert sorted(covered) == list(range(12))
        assert q.remaining() == 0

    def test_requeue_returns_inflight_chunk(self):
        q = ChunkedWorkQueue(4, num_workers=2, chunk_size=2)
        chunk = q.pop(0)
        q.fail_worker(0)
        q.requeue(chunk)  # worker 0 died holding it
        covered = []
        while (c := q.pop(1)) is not None:
            covered.extend(range(*c))
        assert sorted(covered) == list(range(4))

    def test_requeue_with_all_failed_rejected(self):
        q = ChunkedWorkQueue(4, num_workers=2, chunk_size=2)
        q.fail_worker(0)
        q.fail_worker(1)
        with pytest.raises(BackendError, match="all workers"):
            q.requeue((0, 2))

    def test_fail_worker_validates_index(self):
        q = ChunkedWorkQueue(4, num_workers=2)
        with pytest.raises(ParameterError):
            q.fail_worker(5)

    def test_rank_crash_fault_fires_once(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=1, scope="rank")])
        q = ChunkedWorkQueue(8, num_workers=2, chunk_size=2,
                             fault_plan=plan)
        with pytest.raises(FaultInjectedError, match="crash@rank:1"):
            q.pop(1)
        assert q.pop(1) is not None  # budget spent; rank lives on
        assert plan.injected == 1

    def test_rank_slow_and_corrupt_faults_nonfatal(self):
        plan = FaultPlan.parse("slow@rank:0:0.0,corrupt@rank:0")
        q = ChunkedWorkQueue(8, num_workers=2, chunk_size=2,
                             fault_plan=plan)
        assert q.pop(0) is not None  # slow: sleeps, then pops
        assert q.pop(0) is not None  # corrupt: ignored at rank scope
        assert plan.injected == 2


# ------------------------------------------------------------ comm resilience
class TestCommResilience:
    def _bufs(self, comm):
        return [np.full(4, r + 1, dtype=np.int64) for r in range(comm.size)]

    def test_collective_crash_without_retry(self):
        comm = SimulatedComm(
            perlmutter_cluster(2),
            fault_plan=FaultPlan([FaultSpec(kind="crash", index=0,
                                            scope="collective")]),
        )
        with pytest.raises(FaultInjectedError):
            comm.Allreduce_sum(self._bufs(comm))
        assert comm.stats.faults_injected == 1

    def test_retry_recovers_and_accounts(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=1, scope="collective")])
        comm = SimulatedComm(
            perlmutter_cluster(2),
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=2),
        )
        out0 = comm.Allreduce_sum(self._bufs(comm))  # seq 0: clean
        out1 = comm.Allreduce_sum(self._bufs(comm))  # seq 1: crash + retry
        assert np.array_equal(out0, out1)  # retried result is exact
        assert comm.stats.retries == 1
        assert comm.stats.faults_injected == 1
        assert comm.stats.num_collectives == 2

    def test_all_collectives_share_the_sequence(self):
        # One spec per sequence number, in the order the calls land.
        plan = FaultPlan.parse(
            "crash@collective:0,crash@collective:1,crash@collective:2,"
            "crash@collective:3,crash@collective:4"
        )
        comm = SimulatedComm(
            perlmutter_cluster(2), fault_plan=plan,
            retry=RetryPolicy(max_attempts=2),
        )
        comm.Allreduce_sum(self._bufs(comm))
        comm.Allreduce_max(self._bufs(comm))
        comm.Bcast(np.arange(3))
        comm.Gather(self._bufs(comm))
        comm.Barrier()
        assert comm.stats.retries == 5  # every collective was hit once
        assert plan.exhausted()

    def test_corrupt_collective_changes_result(self):
        plan = FaultPlan([FaultSpec(kind="corrupt", index=0,
                                    scope="collective")], seed=0)
        clean = SimulatedComm(perlmutter_cluster(2))
        bad = SimulatedComm(perlmutter_cluster(2), fault_plan=plan)
        a = clean.Allreduce_sum(self._bufs(clean))
        b = bad.Allreduce_sum(self._bufs(bad))
        assert (a != b).sum() == 1

    def test_exhaustion_propagates(self):
        comm = SimulatedComm(
            perlmutter_cluster(2),
            fault_plan=FaultPlan([FaultSpec(kind="crash", index=0,
                                            scope="collective", times=9)]),
            retry=RetryPolicy(max_attempts=3),
        )
        with pytest.raises(RetryExhaustedError, match="collective allreduce#0"):
            comm.Allreduce_sum(self._bufs(comm))

    def test_comm_telemetry_counters(self):
        with telemetry.session() as tel:
            plan = FaultPlan([FaultSpec(kind="crash", index=0,
                                        scope="collective")])
            comm = SimulatedComm(perlmutter_cluster(2), fault_plan=plan,
                                 retry=RetryPolicy(max_attempts=2))
            comm.Barrier()
        snap = tel.snapshot()["counters"]
        assert snap["comm.retries"] == 1.0
        assert snap["resilience.faults_injected"] == 1.0


# -------------------------------------------------------- checkpoint/resume
@pytest.fixture(scope="module")
def amazon_graph():
    return load_dataset("amazon", model="IC", seed=0)


def _make_sampler(graph, seed=0):
    return RRRSampler(
        get_model("IC", graph),
        SamplingConfig.efficientimm(num_threads=1),
        seed=seed,
    )


class TestSamplingCheckpointer:
    def test_save_restore_roundtrip(self, amazon_graph, tmp_path):
        sampler = _make_sampler(amazon_graph)
        sampler.extend(50)
        ck = SamplingCheckpointer(tmp_path, "roundtrip")
        path = ck.save(sampler, 0)
        assert path is not None and path.exists()

        fresh = _make_sampler(amazon_graph)
        assert ck.restore(fresh) == 0
        assert len(fresh.store) == 50
        # Continuing both samplers must produce identical futures: every
        # set is keyed by (seed, index), and the index is the store length.
        sampler.extend(80)
        fresh.extend(80)
        assert np.array_equal(
            sampler.store.vertex_counts(), fresh.store.vertex_counts()
        )

    def test_restore_missing_returns_none(self, amazon_graph, tmp_path):
        ck = SamplingCheckpointer(tmp_path, "nothing-here")
        assert not ck.has_checkpoint()
        assert ck.restore(_make_sampler(amazon_graph)) is None

    def test_restore_wrong_key_rejected(self, amazon_graph, tmp_path):
        sampler = _make_sampler(amazon_graph)
        sampler.extend(10)
        ck = SamplingCheckpointer(tmp_path, "key-a")
        ck.save(sampler, 0)
        # Simulate a mislabeled checkpoint: same bytes, different key slot.
        os.rename(ck.path(), tmp_path / "checkpoint-key-b.npz")
        with pytest.raises(ArtifactError):
            SamplingCheckpointer(tmp_path, "key-b").restore(
                _make_sampler(amazon_graph)
            )

    def test_pre_bump_checkpoint_refused(self, amazon_graph, tmp_path):
        """A version-1 checkpoint (Generator-drawn sets plus the Generator
        state) is refused, never resumed into a mixed stream."""
        from repro.service.artifacts import save_store

        sampler = _make_sampler(amazon_graph)
        sampler.extend(10)
        ck = SamplingCheckpointer(tmp_path, "old")
        save_store(
            sampler.store, ck.path(), fingerprint="old",
            counter=sampler.counter,
            meta={
                "checkpoint_version": 1, "run_key": "old", "batch_index": 0,
                "rng_state": np.random.default_rng(0).bit_generator.state,
            },
        )
        with pytest.raises(ArtifactError, match="checkpoint version 1"):
            ck.restore(_make_sampler(amazon_graph))

    def test_cadence(self, amazon_graph, tmp_path):
        sampler = _make_sampler(amazon_graph)
        sampler.extend(10)
        ck = SamplingCheckpointer(tmp_path, "cadence", every=2)
        assert ck.save(sampler, 0) is not None
        assert ck.save(sampler, 1) is None  # thinned
        assert ck.save(sampler, 2) is not None
        assert ck.saves == 2

    def test_rejects_bad_cadence(self, tmp_path):
        with pytest.raises(ArtifactError):
            SamplingCheckpointer(tmp_path, "x", every=0)

    def test_clear(self, amazon_graph, tmp_path):
        sampler = _make_sampler(amazon_graph)
        sampler.extend(5)
        ck = SamplingCheckpointer(tmp_path, "clearable")
        ck.save(sampler, 0)
        ck.clear()
        assert not ck.has_checkpoint()
        ck.clear()  # idempotent

    def test_run_key_sensitivity(self, amazon_graph):
        base = IMMParams(k=3, theta_cap=800, seed=0)
        key = run_key(amazon_graph, base, framework="EfficientIMM")
        assert key == run_key(amazon_graph, base, framework="EfficientIMM")
        assert key != run_key(
            amazon_graph, IMMParams(k=4, theta_cap=800, seed=0),
            framework="EfficientIMM",
        )
        assert key != run_key(
            amazon_graph, IMMParams(k=3, theta_cap=800, seed=1),
            framework="EfficientIMM",
        )
        assert key != run_key(amazon_graph, base, framework="Ripples")


class TestInterruptedRunResumes:
    """The acceptance criterion: a run crashed at ANY sampling batch and
    resumed with ``resume=True`` selects byte-identical seeds."""

    PARAMS = IMMParams(k=3, theta_cap=800, seed=0)

    @pytest.fixture(scope="class")
    def clean(self, amazon_graph, tmp_path_factory):
        root = tmp_path_factory.mktemp("ckpt-probe")
        ck = SamplingCheckpointer(
            root, run_key(amazon_graph, self.PARAMS, framework="EfficientIMM")
        )
        result = EfficientIMM(amazon_graph).run(self.PARAMS, checkpointer=ck)
        return result, ck.saves  # saves == number of sampling batches

    def test_run_has_multiple_batches(self, clean):
        _, num_batches = clean
        assert num_batches >= 2  # otherwise the boundary sweep is vacuous

    def test_crash_then_resume_at_every_batch(
        self, amazon_graph, clean, tmp_path
    ):
        clean_result, num_batches = clean
        for batch in range(num_batches):
            root = tmp_path / f"crash-at-{batch}"
            ck = SamplingCheckpointer(
                root,
                run_key(amazon_graph, self.PARAMS, framework="EfficientIMM"),
            )
            plan = FaultPlan([FaultSpec(kind="crash", index=batch,
                                        scope="batch")])
            with pytest.raises(FaultInjectedError):
                EfficientIMM(amazon_graph).run(
                    self.PARAMS, checkpointer=ck, fault_plan=plan
                )
            resumed = EfficientIMM(amazon_graph).run(
                self.PARAMS, checkpointer=ck, resume=True
            )
            assert np.array_equal(resumed.seeds, clean_result.seeds), (
                f"crash at batch {batch}: resumed seeds diverged"
            )
            assert resumed.num_rrrsets == clean_result.num_rrrsets

    def test_resume_without_checkpoint_is_a_fresh_run(
        self, amazon_graph, clean, tmp_path
    ):
        clean_result, _ = clean
        ck = SamplingCheckpointer(
            tmp_path, run_key(amazon_graph, self.PARAMS,
                              framework="EfficientIMM")
        )
        result = EfficientIMM(amazon_graph).run(
            self.PARAMS, checkpointer=ck, resume=True
        )
        assert np.array_equal(result.seeds, clean_result.seeds)

    def test_checkpoint_telemetry(self, amazon_graph, tmp_path):
        with telemetry.session() as tel:
            ck = SamplingCheckpointer(
                tmp_path,
                run_key(amazon_graph, self.PARAMS, framework="EfficientIMM"),
            )
            EfficientIMM(amazon_graph).run(self.PARAMS, checkpointer=ck)
        snap = tel.snapshot()["counters"]
        assert snap["resilience.checkpoints_written"] == float(ck.saves)


def _rewrite_header(ck, edit):
    """Rewrite ``ck``'s checkpoint with ``edit(meta)`` applied to its JSON
    header; the arrays, and so the CRC, are unchanged."""
    from repro.service.artifacts import load_store, save_store

    store, counter, meta = load_store(ck.path(), expect_fingerprint=ck.key)
    edit(meta)
    save_store(
        store, ck.path(), fingerprint=ck.key, counter=counter, meta=meta,
        compress=False,
    )


def _set_stat(name, value):
    return lambda meta: meta["stats"].__setitem__(name, value)


#: One malformed header per case: (id, edit, the field the error names).
#: The checkpoint holds 50 sets sampled at one thread.
MALFORMED_HEADERS = [
    ("no-batch-index", lambda m: m.pop("batch_index"), "batch_index"),
    ("bool-batch-index", lambda m: m.update(batch_index=True), "batch_index"),
    ("negative-batch-index", lambda m: m.update(batch_index=-1), "batch_index"),
    ("no-edges", lambda m: m.pop("per_set_edges"), "per_set_edges"),
    ("text-edges", lambda m: m.update(per_set_edges=["x"] * 50), "per_set_edges"),
    ("short-edges", lambda m: m.update(per_set_edges=[3] * 10), "per_set_edges"),
    ("negative-edges", lambda m: m.update(per_set_edges=[-1] * 50), "per_set_edges"),
    ("edges-overflow", lambda m: m.update(per_set_edges=[2**63] * 50), "per_set_edges"),
    ("no-stats", lambda m: m.pop("stats"), "stats"),
    ("text-stats", lambda m: m.update(stats="x"), "stats"),
    ("other-thread-count", lambda m: m.update(stats={
        "num_threads": 2, "loads": [0.0, 0.0], "stores": [0.0, 0.0],
        "atomics": [0.0, 0.0], "compute": [0.0, 0.0], "serial_ops": 0.0,
        "sync_barriers": 0,
    }), "stats.num_threads"),
    ("short-loads", _set_stat("loads", []), "stats.loads"),
    ("text-compute", _set_stat("compute", ["x"]), "stats.compute"),
    ("loads-overflow", _set_stat("loads", [10**400]), "stats.loads"),
    ("text-serial-ops", _set_stat("serial_ops", "x"), "stats.serial_ops"),
    ("float-barriers", _set_stat("sync_barriers", 1.5), "stats.sync_barriers"),
]


class TestCheckpointHeaderChecks:
    """The CRC covers only the arrays: ``restore`` checks the JSON header
    field by field and names the bad one in an ``ArtifactError``."""

    @pytest.mark.parametrize(
        "edit,field",
        [case[1:] for case in MALFORMED_HEADERS],
        ids=[case[0] for case in MALFORMED_HEADERS],
    )
    def test_malformed_header_rejected(self, amazon_graph, tmp_path, edit, field):
        sampler = _make_sampler(amazon_graph)
        sampler.extend(50)
        ck = SamplingCheckpointer(tmp_path, "malformed")
        ck.save(sampler, 0)
        _rewrite_header(ck, edit)
        fresh = _make_sampler(amazon_graph)
        with pytest.raises(ArtifactError, match=f"field '{field}'"):
            ck.restore(fresh)
        assert len(fresh.store) == 0 and fresh.per_set_edges.size == 0

    def test_retired_keys_resume_byte_identically(self, amazon_graph, tmp_path):
        """A header written before the sampler kept one per-set record
        still carries ``per_set_costs`` and ``num_atomic_updates``."""
        params = IMMParams(k=3, theta_cap=800, seed=0)
        clean = EfficientIMM(amazon_graph).run(params)
        ck = SamplingCheckpointer(
            tmp_path, run_key(amazon_graph, params, framework="EfficientIMM")
        )
        plan = FaultPlan([FaultSpec(kind="crash", index=1, scope="batch")])
        with pytest.raises(FaultInjectedError):
            EfficientIMM(amazon_graph).run(
                params, checkpointer=ck, fault_plan=plan
            )
        _rewrite_header(ck, lambda m: m.update(
            per_set_costs=[1.5] * len(m["per_set_edges"]), num_atomic_updates=7,
        ))
        resumed = EfficientIMM(amazon_graph).run(
            params, checkpointer=ck, resume=True
        )
        assert resumed.seeds.tolist() == clean.seeds.tolist()
        assert (resumed.theta, resumed.num_rrrsets, resumed.opt_lower_bound,
                resumed.coverage_fraction) == (
            clean.theta, clean.num_rrrsets, clean.opt_lower_bound,
            clean.coverage_fraction)
        for kernel, want in clean.stats.items():
            got = resumed.stats[kernel]
            for name in ("loads", "stores", "atomics", "compute"):
                np.testing.assert_array_equal(
                    getattr(got, name), getattr(want, name)
                )
            assert (got.serial_ops, got.sync_barriers) == (
                want.serial_ops, want.sync_barriers
            )

    def test_cli_resume_of_malformed_header_exits_4(self, tmp_path, capsys):
        from repro import cli

        argv = ["run", "amazon", "--k", "3", "--theta-cap", "2000",
                "--checkpoint", str(tmp_path)]
        assert cli.main([*argv, "--inject-faults", "crash@batch:1"]) == 7
        (path,) = tmp_path.glob("checkpoint-*.npz")
        ck = SamplingCheckpointer(tmp_path, path.stem[len("checkpoint-"):])
        _rewrite_header(ck, lambda m: m.pop("batch_index"))
        capsys.readouterr()
        assert cli.main([*argv, "--resume"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert "'batch_index'" in err[0]


# ------------------------------------------------------ degraded query serving
ALWAYS_CRASH = "crash@task:0x99"


def _failing_context():
    return ExecutionContext(
        BackendConfig(
            backend="serial",
            faults=FaultPlan.parse(ALWAYS_CRASH),
            telemetry_label="service",
        )
    )


class TestDegradedServing:
    def _seed_artifact(self, artifact_dir):
        """A healthy engine materialises one sketch artifact on disk."""
        cfg = EngineConfig(artifact_dir=artifact_dir, default_theta=300)
        with QueryEngine(config=cfg) as eng:
            resp = eng.query(IMQuery(dataset="amazon", k=3, theta_cap=300))
        assert resp.ok and not resp.degraded
        return cfg

    def test_stale_artifact_serves_degraded(self, tmp_path):
        self._seed_artifact(tmp_path)
        cfg = EngineConfig(artifact_dir=tmp_path, default_theta=300)
        with QueryEngine(config=cfg, context=_failing_context()) as eng:
            # Different theta -> different fingerprint -> cold sample, which
            # the fault plan kills; the stale 300-set sketch stands in.
            resp = eng.query(IMQuery(dataset="amazon", k=3, theta_cap=400))
            assert resp.ok and resp.degraded and not resp.cached
            assert resp.num_rrrsets == 300  # served from the stale sketch
            assert eng.stats.degraded == 1
            assert eng.stats.cold_samples == 0

            # Degraded entries are never cached under the failed fingerprint:
            # the next identical query attempts the real sketch again.
            again = eng.query(IMQuery(dataset="amazon", k=3, theta_cap=400))
            assert again.degraded and not again.cached
            assert eng.stats.degraded == 2

    def test_degraded_flag_on_the_wire(self, tmp_path):
        self._seed_artifact(tmp_path)
        cfg = EngineConfig(artifact_dir=tmp_path, default_theta=300)
        with QueryEngine(config=cfg, context=_failing_context()) as eng:
            resp = eng.query(IMQuery(dataset="amazon", k=2, theta_cap=400))
        assert resp.to_dict()["degraded"] is True

    def test_no_stale_artifact_means_error_response(self, tmp_path):
        cfg = EngineConfig(artifact_dir=tmp_path, default_theta=300)
        with QueryEngine(config=cfg, context=_failing_context()) as eng:
            resp = eng.query(IMQuery(dataset="amazon", k=3, theta_cap=300))
        assert resp.status == "error"
        assert "FaultInjectedError" in resp.error
        assert eng.stats.errors == 1 and eng.stats.degraded == 0

    def test_wrong_dataset_stale_not_used(self, tmp_path):
        self._seed_artifact(tmp_path)  # an *amazon* sketch
        cfg = EngineConfig(artifact_dir=tmp_path, default_theta=300)
        with QueryEngine(config=cfg, context=_failing_context()) as eng:
            resp = eng.query(IMQuery(dataset="dblp", k=3, theta_cap=300))
        assert resp.status == "error"  # dblp has no compatible stale sketch

    def test_no_artifact_store_means_error_response(self):
        cfg = EngineConfig(artifact_dir=None, default_theta=300)
        with QueryEngine(config=cfg, context=_failing_context()) as eng:
            resp = eng.query(IMQuery(dataset="amazon", k=3, theta_cap=300))
        assert resp.status == "error"

    def test_engine_retry_recovers_transient_cold_failure(self, tmp_path):
        ctx = ExecutionContext(
            BackendConfig(
                backend="serial",
                faults=FaultPlan.parse("crash@task:0"),  # fires once
                retry=RetryPolicy(max_attempts=2),
                telemetry_label="service",
            )
        )
        cfg = EngineConfig(artifact_dir=tmp_path, default_theta=300)
        with QueryEngine(config=cfg, context=ctx) as eng:
            resp = eng.query(IMQuery(dataset="amazon", k=3, theta_cap=300))
            assert resp.ok and not resp.degraded  # retried through the fault
            assert eng.stats.cold_samples == 1

    def test_degraded_telemetry_counter(self, tmp_path):
        self._seed_artifact(tmp_path)
        cfg = EngineConfig(artifact_dir=tmp_path, default_theta=300)
        with telemetry.session() as tel:
            with QueryEngine(config=cfg, context=_failing_context()) as eng:
                eng.query(IMQuery(dataset="amazon", k=3, theta_cap=400))
        snap = tel.snapshot()["counters"]
        assert snap["resilience.degraded_responses"] == 1.0
        assert snap["service.degraded"] == 1.0
