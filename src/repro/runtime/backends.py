"""Execution backends: serial reference and fork-based multiprocessing.

The CPython GIL forbids the shared-memory *thread* parallelism the paper's
C++/OpenMP code uses, so real parallel execution here is process-based
(DESIGN.md substitution table): workers are forked, the read-only graph
arrays are shared copy-on-write, and per-worker results are reduced at a
barrier.  A spawn start method is also supported; spawned workers inherit
nothing, so large state reaches them as :mod:`repro.shm` segment handles
rather than through fork or pickling.  That preserves the algorithms' partitioning and reduction
structure; the 1..128-thread *scaling* experiments instead run on the
simulated machine (:mod:`repro.simmachine`), which is not limited by host
core count.

The backend interface is deliberately tiny — ``run_tasks(worker_fn, tasks)``
with an optional per-process initializer — because both frameworks'
parallel sections reduce to "map independent work, then reduce".  Callers
construct the backend they need:
:func:`~repro.core.parallel_sampling.parallel_generate` forks (or spawns) a
:class:`MultiprocessBackend` per sampling pass, and
:class:`~repro.service.engine.QueryEngine` keeps one :class:`SerialBackend`
for in-process serving.

Each backend has one dispatch loop.  Resilience (docs/resilience.md): a
backend optionally carries a :class:`~repro.resilience.retry.RetryPolicy`
and a :class:`~repro.resilience.faults.FaultPlan`.  Faults are applied *per
task index* at the dispatch boundary in the parent process — semantically a
worker crashing on that task — and retries re-run only the failed tasks,
with backoff, until the policy's attempt budget runs out
(:class:`~repro.errors.RetryExhaustedError`).  With neither attached, a
call is one round that raises the first failure in task order.

Telemetry (docs/observability.md): when the global session is enabled,
``run_tasks`` records per-task latency (``runtime.task_latency_s``),
task/failure counts, worker utilisation, and reduce time.  Forked workers
inherit the enabled session; each task snapshots the worker-local registry
around the call and ships the *delta* back with its result, which the
parent merges under the ``runtime.reduce`` span — so counters recorded
inside worker code (e.g. ``sampling.rrr_sets``) aggregate exactly as they
do in-process.
"""

from __future__ import annotations

import os
import time
from abc import ABC, abstractmethod
from typing import Any, Callable, Sequence

from repro import telemetry
from repro.errors import BackendError, FaultInjectedError, RetryExhaustedError
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.telemetry.metrics import diff_snapshots

__all__ = ["ExecutionBackend", "SerialBackend", "MultiprocessBackend"]


def _instrumented_task(packed: tuple[Callable[[Any], Any], Any]):
    """Run one task in a worker, returning (result, seconds, metrics delta).

    Module-level so the fork pool can pickle it; ``worker_fn`` rides along
    in the payload.  The delta is the worker registry's growth during the
    task — the per-worker buffer half of the merge-on-reduce protocol.
    """
    worker_fn, task = packed
    tel = telemetry.get()
    before = tel.registry.snapshot()
    t0 = time.perf_counter()
    result = worker_fn(task)
    elapsed = time.perf_counter() - t0
    return result, elapsed, diff_snapshots(tel.registry.snapshot(), before)


class _InitGuard:
    """Initializer wrapper signalling worker init failures to the parent.

    Fork-inherited (never pickled): ``error`` is set when the wrapped
    initializer raises, ``ready`` counts successful initialisations, so the
    parent can distinguish "pool is up" from "workers are crash-looping".
    """

    def __init__(self, initializer, initargs, error, ready):
        self._initializer = initializer
        self._initargs = initargs
        self._error = error
        self._ready = ready

    def __call__(self):
        try:
            self._initializer(*self._initargs)
        except BaseException:
            self._error.set()
            # SystemExit keeps the child's death quiet (no traceback spam
            # from every respawned worker); the parent already has the flag.
            raise SystemExit(1)
        with self._ready.get_lock():
            self._ready.value += 1


class ExecutionBackend(ABC):
    """Minimal map-style execution interface."""

    #: Number of workers the backend actually uses.
    num_workers: int = 1

    #: Telemetry label distinguishing backend-specific metrics.
    backend_name: str = "backend"

    #: Optional resilience attachments (docs/resilience.md); ``None`` means
    #: fail-fast execution: one attempt per task, no injected faults.
    retry_policy: RetryPolicy | None = None
    fault_plan: FaultPlan | None = None

    @abstractmethod
    def run_tasks(
        self,
        worker_fn: Callable[[Any], Any],
        tasks: Sequence[Any],
    ) -> list[Any]:
        """Apply ``worker_fn`` to every task; results keep task order."""

    def close(self) -> None:  # pragma: no cover - trivial default
        """Release worker resources (idempotent)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------- telemetry
    def _record_run(
        self,
        task_seconds: list[float],
        wall_seconds: float,
        reduce_seconds: float = 0.0,
    ) -> None:
        """Record the unified per-run metrics (enabled-session callers only)."""
        reg = telemetry.get().registry
        lat = reg.histogram("runtime.task_latency_s")
        for s in task_seconds:
            lat.observe(s)
        reg.counter("runtime.tasks").inc(len(task_seconds))
        reg.counter("runtime.reduce_s").inc(reduce_seconds)
        busy = sum(task_seconds)
        capacity = self.num_workers * wall_seconds
        reg.gauge("runtime.worker_utilization").set(
            busy / capacity if capacity > 0 else 0.0
        )
        reg.gauge("runtime.num_workers").set(self.num_workers)


class SerialBackend(ExecutionBackend):
    """Run everything inline; the reference for correctness tests."""

    num_workers = 1
    backend_name = "serial"

    def run_tasks(self, worker_fn, tasks):
        tel = telemetry.get()
        with tel.span("runtime.run_tasks", backend=self.backend_name,
                      num_workers=1, num_tasks=len(tasks)):
            t0 = time.perf_counter()
            results: list[Any] = []
            task_seconds: list[float] = []
            for i, t in enumerate(tasks):
                s0 = time.perf_counter()
                try:
                    results.append(
                        self._call_resilient(lambda t=t: worker_fn(t), i)
                    )
                except Exception:
                    if tel.enabled:
                        tel.registry.counter("runtime.task_failures").inc()
                    raise
                task_seconds.append(time.perf_counter() - s0)
            if tel.enabled:
                self._record_run(task_seconds, time.perf_counter() - t0)
            return results

    def _call_resilient(self, fn: Callable[[], Any], index: int):
        """One task through the fault plan and retry policy."""
        plan = self.fault_plan

        def attempt():
            if plan is None:
                return fn()
            return plan.invoke("task", index, fn)

        if self.retry_policy is None:
            return attempt()
        return self.retry_policy.call(
            attempt, label=f"{self.backend_name} task {index}"
        )


class MultiprocessBackend(ExecutionBackend):
    """Process-pool backend; fork (copy-on-write) or spawn start method.

    Parameters
    ----------
    num_workers:
        Process count; defaults to ``os.cpu_count()``.
    initializer / initargs:
        Run once in each worker process (e.g. to install the graph into a
        module-level slot so tasks only carry small descriptors).  A
        raising initializer is detected here, the half-up pool is torn
        down (no leaked forked workers endlessly respawning), and a
        :class:`~repro.errors.BackendError` is raised.
    init_timeout_s:
        How long to wait for every worker's initializer to finish before
        declaring the spin-up failed.
    start_method:
        ``"fork"`` (default): workers inherit the parent's memory
        copy-on-write, so read-only state needs no explicit handoff.
        ``"spawn"``: workers are fresh interpreters and ``initargs`` is
        *pickled* to each one — keep it handle-sized and attach large
        state through :mod:`repro.shm` segments
        (:func:`~repro.core.parallel_sampling.parallel_generate` shows
        the pattern).  Results are identical either way; spawn exists for
        hosts/embeddings where fork is unsafe or unavailable.
    """

    backend_name = "multiprocess"

    def __init__(
        self,
        num_workers: int | None = None,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
        init_timeout_s: float = 120.0,
        start_method: str = "fork",
    ):
        import multiprocessing as mp

        self._pool = None  # so close() is safe even if __init__ fails below
        if num_workers is not None and num_workers <= 0:
            raise BackendError(f"num_workers must be positive, got {num_workers}")
        self.num_workers = num_workers if num_workers is not None else (os.cpu_count() or 1)
        if start_method not in ("fork", "spawn"):
            raise BackendError(
                f"unknown start_method {start_method!r}; expected 'fork' or 'spawn'"
            )
        self.start_method = start_method
        try:
            ctx = mp.get_context(start_method)
        except ValueError as exc:  # pragma: no cover - non-POSIX hosts
            raise BackendError(
                f"{start_method} start method unavailable on this host"
            ) from exc
        if initializer is None:
            self._pool = ctx.Pool(self.num_workers)
            return
        # Guarded spin-up: without this, an initializer that raises leaves
        # the pool respawning crash-looping forked workers forever and the
        # first map() hangs.  The guard reports failure (or completion) and
        # the pool is terminated before the error surfaces.
        error = ctx.Event()
        ready = ctx.Value("i", 0)
        self._pool = ctx.Pool(
            self.num_workers,
            initializer=_InitGuard(initializer, initargs, error, ready),
        )
        deadline = time.monotonic() + init_timeout_s
        while True:
            if error.is_set():
                self.close()
                raise BackendError(
                    "worker initializer raised during pool spin-up; "
                    "pool terminated"
                )
            with ready.get_lock():
                done = ready.value
            if done >= self.num_workers:
                return
            if time.monotonic() > deadline:
                self.close()
                raise BackendError(
                    f"worker initializers did not finish within "
                    f"{init_timeout_s:.0f}s; pool terminated"
                )
            time.sleep(0.002)

    def run_tasks(self, worker_fn, tasks):
        """Per-task async dispatch with parent-side faults and retries.

        Each round submits the outstanding tasks concurrently, collects
        their results (the barrier), merges the workers' metric deltas
        under ``runtime.reduce``, and — when the retry policy allows —
        re-submits only the failed ones after the policy's backoff.  Faults
        fire in the parent at the dispatch boundary so the plan's state
        stays in one process and the schedule is deterministic.
        """
        if self._pool is None:
            raise BackendError("backend already closed")
        tasks = list(tasks)
        tel = telemetry.get()
        plan, policy = self.fault_plan, self.retry_policy
        instrument = tel.enabled
        results: list[Any] = [None] * len(tasks)
        task_seconds: list[float] = []
        reduce_seconds = 0.0
        pending = list(range(len(tasks)))
        attempt = 1
        max_attempts = policy.max_attempts if policy is not None else 1
        with tel.span("runtime.run_tasks", backend=self.backend_name,
                      num_workers=self.num_workers, num_tasks=len(tasks)):
            t0 = time.perf_counter()
            while pending:
                submitted: list[tuple[int, Any, Any, BaseException | None]] = []
                for i in pending:
                    spec = plan.take("task", i) if plan is not None else None
                    if spec is not None and spec.kind == "crash":
                        submitted.append(
                            (i, None, spec,
                             FaultInjectedError(f"injected {spec.describe()}"))
                        )
                        continue
                    if spec is not None and spec.kind == "slow":
                        time.sleep(spec.delay_s)
                    if instrument:
                        ar = self._pool.apply_async(
                            _instrumented_task, ((worker_fn, tasks[i]),)
                        )
                    else:
                        ar = self._pool.apply_async(worker_fn, (tasks[i],))
                    submitted.append((i, ar, spec, None))
                failures: list[tuple[int, BaseException]] = []
                deltas: list[dict[str, Any]] = []
                for i, ar, spec, exc in submitted:
                    r = None
                    if ar is not None:
                        try:
                            r = ar.get()
                        except Exception as worker_exc:
                            exc = worker_exc
                    if exc is not None:
                        if instrument:
                            tel.registry.counter("runtime.task_failures").inc()
                        failures.append((i, exc))
                        continue
                    if instrument:
                        r, secs, delta = r
                        task_seconds.append(secs)
                        deltas.append(delta)
                    if spec is not None and spec.kind == "corrupt":
                        r = plan.corrupt(r)
                    results[i] = r
                if deltas:
                    r0 = time.perf_counter()
                    with tel.span("runtime.reduce", num_tasks=len(deltas)):
                        for delta in deltas:
                            tel.registry.merge_snapshot(delta)
                    reduce_seconds += time.perf_counter() - r0
                if not failures:
                    break
                first_idx, first_exc = failures[0]
                if policy is None:
                    raise first_exc
                for _, exc in failures:
                    if not policy.is_retryable(exc):
                        raise exc
                if attempt >= max_attempts:
                    raise RetryExhaustedError(
                        f"{self.backend_name} task {first_idx}",
                        attempt,
                        first_exc,
                    ) from first_exc
                if tel.enabled:
                    tel.registry.counter("resilience.retries").inc(len(failures))
                delay = policy.delay_for(attempt)
                if delay > 0:
                    time.sleep(delay)
                pending = [i for i, _ in failures]
                attempt += 1
            if instrument:
                self._record_run(
                    task_seconds, time.perf_counter() - t0, reduce_seconds
                )
        return results

    def close(self) -> None:
        """Terminate the pool; idempotent and exception-safe.

        Safe to call repeatedly, after a worker exception, or on a
        half-constructed instance: the pool handle is detached first, and
        teardown errors (e.g. an already-dead pool) are suppressed so
        ``with``-block exits never mask the original exception.
        """
        pool, self._pool = getattr(self, "_pool", None), None
        if pool is None:
            return
        try:
            pool.terminate()
            pool.join()
        except Exception:  # pragma: no cover - defensive teardown
            pass
