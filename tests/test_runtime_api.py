"""Tests for the unified execution API (BackendConfig / ExecutionContext)
and the deprecation shims that keep the pre-redesign call forms working."""

import pytest

from repro.errors import BackendError, ParameterError
from repro.resilience import FaultPlan, FaultSpec, RetryPolicy
from repro.runtime.api import BackendConfig, ExecutionContext
from repro.runtime.backends import (
    MultiprocessBackend,
    SerialBackend,
    make_backend,
)
from repro.runtime.workqueue import ChunkedWorkQueue
from repro.service import EngineConfig, QueryEngine


def _square(x):
    return x * x


# ------------------------------------------------------------- BackendConfig
class TestBackendConfig:
    def test_defaults(self):
        cfg = BackendConfig()
        assert cfg.backend == "serial"
        assert cfg.num_workers is None
        assert cfg.chunk_size == 1
        assert cfg.retry is None and cfg.faults is None

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            BackendConfig("serial")

    def test_rejects_unknown_backend(self):
        with pytest.raises(BackendError, match="unknown backend"):
            BackendConfig(backend="gpu")

    def test_rejects_bad_num_workers(self):
        for bad in (0, -1, -7):
            with pytest.raises(BackendError, match="num_workers"):
                BackendConfig(num_workers=bad)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ParameterError, match="chunk_size"):
            BackendConfig(chunk_size=0)

    def test_frozen(self):
        cfg = BackendConfig()
        with pytest.raises(AttributeError):
            cfg.backend = "multiprocess"

    def test_with_overrides(self):
        cfg = BackendConfig(backend="serial", chunk_size=4)
        out = cfg.with_overrides(num_workers=3)
        assert out.num_workers == 3 and out.chunk_size == 4
        assert cfg.num_workers is None  # original untouched

    def test_with_overrides_revalidates(self):
        with pytest.raises(BackendError):
            BackendConfig().with_overrides(backend="tpu")


# ---------------------------------------------------------- ExecutionContext
class TestExecutionContext:
    def test_default_is_serial(self):
        with ExecutionContext() as ctx:
            assert isinstance(ctx.backend, SerialBackend)
            assert ctx.run_tasks(_square, [1, 2, 3]) == [1, 4, 9]

    def test_backend_built_lazily(self):
        ctx = ExecutionContext(
            BackendConfig(backend="multiprocess", num_workers=2)
        )
        assert ctx._backend is None  # described, not built
        assert ctx.num_workers == 2  # answered from the config alone
        assert ctx.run_tasks(_square, [3]) == [9]  # forces the build
        assert isinstance(ctx._backend, MultiprocessBackend)
        ctx.close()

    def test_close_releases_and_rebuilds(self):
        ctx = ExecutionContext(BackendConfig(backend="serial"))
        first = ctx.backend
        ctx.close()
        assert ctx._backend is None
        assert ctx.backend is not first  # lazily rebuilt on next touch

    def test_wrapped_backend_not_closed(self):
        with MultiprocessBackend(1) as b:
            ctx = ExecutionContext(backend=b)
            assert ctx.run_tasks(_square, [2]) == [4]
            ctx.close()
            # The context never owned it; the backend stays serviceable.
            assert b.run_tasks(_square, [3]) == [9]

    def test_wrapping_installs_config_resilience(self):
        retry = RetryPolicy(max_attempts=2)
        plan = FaultPlan([FaultSpec(kind="crash", index=0)])
        b = SerialBackend()
        ExecutionContext(BackendConfig(retry=retry, faults=plan), backend=b)
        assert b.retry_policy is retry and b.fault_plan is plan

    def test_wrapping_keeps_existing_resilience(self):
        own = RetryPolicy(max_attempts=5)
        b = SerialBackend()
        b.retry_policy = own
        ExecutionContext(
            BackendConfig(retry=RetryPolicy(max_attempts=2)), backend=b
        )
        assert b.retry_policy is own  # the backend's own policy wins

    def test_make_workqueue_matches_config(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=1, scope="rank")])
        ctx = ExecutionContext(
            BackendConfig(num_workers=2, chunk_size=5, faults=plan)
        )
        q = ctx.make_workqueue(10)
        assert q.num_workers == 2
        assert q.remaining() == 2  # 10 items / chunk 5
        assert q.fault_plan is plan
        ctx.close()

    def test_config_factory_builds_with_resilience(self):
        plan = FaultPlan([FaultSpec(kind="crash", index=0, times=1)])
        retry = RetryPolicy(max_attempts=2)
        with ExecutionContext(BackendConfig(retry=retry, faults=plan)) as ctx:
            assert ctx.run_tasks(_square, [4]) == [16]  # fault fired, retried
        assert plan.injected == 1


# -------------------------------------------------------- deprecation shims
class TestDeprecationShims:
    """The pre-redesign positional call forms are gone: each fails at the
    call site, and the keyword / config forms work."""

    def test_make_backend_positional_name(self):
        with pytest.raises(BackendError, match="takes a BackendConfig"):
            make_backend("serial")

    def test_make_backend_positional_with_workers(self):
        with pytest.raises(TypeError):
            make_backend("multiprocess", 1)

    def test_make_backend_no_args_defaults_serial(self):
        assert isinstance(make_backend(), SerialBackend)

    def test_make_backend_config_plus_extras_rejected(self):
        with pytest.raises(TypeError):
            make_backend(BackendConfig(), num_workers=2)

    def test_workqueue_positional(self):
        with pytest.raises(TypeError):
            ChunkedWorkQueue(10, 2, 5)

    def test_workqueue_positional_workers_only(self):
        with pytest.raises(TypeError):
            ChunkedWorkQueue(4, 2)

    def test_workqueue_too_many_positionals(self):
        with pytest.raises(TypeError):
            ChunkedWorkQueue(10, 2, 5, 7)

    def test_workqueue_config_form(self):
        cfg = BackendConfig(num_workers=2, chunk_size=5)
        q = ChunkedWorkQueue(10, config=cfg)
        assert q.num_workers == 2 and q.remaining() == 2

    def test_workqueue_kwargs_override_config(self):
        cfg = BackendConfig(num_workers=2, chunk_size=5)
        q = ChunkedWorkQueue(10, config=cfg, chunk_size=2)
        assert q.remaining() == 5

    def test_workqueue_requires_workers_somewhere(self):
        with pytest.raises(ParameterError, match="num_workers"):
            ChunkedWorkQueue(10)

    def test_query_engine_positional(self):
        with pytest.raises(TypeError):
            QueryEngine(EngineConfig(default_theta=300))

    def test_query_engine_positional_and_keyword_rejected(self):
        with pytest.raises(TypeError):
            QueryEngine(EngineConfig(), config=EngineConfig())

    def test_query_engine_accepts_external_context(self):
        ctx = ExecutionContext(BackendConfig(telemetry_label="service"))
        eng = QueryEngine(config=EngineConfig(default_theta=300), context=ctx)
        assert eng.context is ctx
        eng.close()
