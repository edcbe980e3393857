"""The unified execution API: :class:`BackendConfig` and :class:`ExecutionContext`.

Before this redesign every layer grew its own execution knobs — the
backend factory took positional strings, the work queue took positional
counts, the query engine re-validated backend names — and there was no
place to hang cross-cutting concerns like retry policies or fault plans.
This module is that place:

- :class:`BackendConfig` is the one keyword-only, frozen description of
  *how to execute*: which backend, how many workers, the chunking, and the
  optional resilience attachments (:class:`~repro.resilience.retry.RetryPolicy`,
  :class:`~repro.resilience.faults.FaultPlan`).
- :class:`ExecutionContext` owns (or wraps) the backend built from a
  config, hands out matching work queues, and cleans up after itself.
  Backend construction is lazy, so describing a multiprocess context is
  free until someone actually runs tasks on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.errors import BackendError, ParameterError
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import RetryPolicy
from repro.runtime.backends import ExecutionBackend, make_backend
from repro.runtime.workqueue import ChunkedWorkQueue

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass

__all__ = ["BackendConfig", "ExecutionContext"]

#: Backend names the factory accepts.
BACKEND_NAMES = ("serial", "multiprocess")


@dataclass(frozen=True, kw_only=True)
class BackendConfig:
    """Keyword-only description of an execution setup.

    Attributes
    ----------
    backend:
        ``"serial"`` or ``"multiprocess"``.
    num_workers:
        Worker count; ``None`` lets the backend pick (serial: 1,
        multiprocess: the host CPU count).
    chunk_size:
        Chunk granularity for work queues built from this config.
    retry:
        Optional per-task/per-collective retry policy.
    faults:
        Optional fault-injection plan (tests, ``--inject-faults``).
    telemetry_label:
        Span/metric prefix for contexts built from this config.
    initializer / initargs:
        Per-process initializer for multiprocess backends.
    start_method:
        ``"fork"`` (default, copy-on-write sharing), or ``"spawn"`` —
        fresh interpreters that inherit nothing, so large state must reach
        workers explicitly; pair with :mod:`repro.shm` segment handles in
        ``initargs`` to keep the handoff at handle size (the pattern
        :func:`~repro.core.parallel_sampling.parallel_generate` uses).
        ``None`` lets the backend default to fork.
    """

    backend: str = "serial"
    num_workers: int | None = None
    chunk_size: int = 1
    retry: RetryPolicy | None = None
    faults: FaultPlan | None = None
    telemetry_label: str = "runtime"
    initializer: Callable[..., None] | None = None
    initargs: tuple = ()
    start_method: str | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise BackendError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.start_method not in (None, "fork", "spawn"):
            raise BackendError(
                f"unknown start_method {self.start_method!r}; "
                "expected 'fork' or 'spawn'"
            )
        if self.num_workers is not None and self.num_workers <= 0:
            raise BackendError(
                f"num_workers must be positive, got {self.num_workers}"
            )
        if self.chunk_size <= 0:
            raise ParameterError(
                f"chunk_size must be positive, got {self.chunk_size}"
            )

    def with_overrides(self, **changes: Any) -> "BackendConfig":
        """A copy with the given fields replaced (config is frozen)."""
        from dataclasses import replace

        return replace(self, **changes)


class ExecutionContext:
    """Owns the executing pieces described by one :class:`BackendConfig`.

    ``ExecutionContext()`` is a serial context; pass a config for anything
    else, or ``backend=`` to wrap an existing backend the caller owns (the
    context then never closes it).  The backend is built on first use —
    ``ExecutionContext(cfg)`` for a multiprocess config costs nothing until
    :attr:`backend` (or :meth:`run_tasks`) is touched.
    """

    def __init__(
        self,
        config: BackendConfig | None = None,
        *,
        backend: ExecutionBackend | None = None,
    ):
        if config is None:
            config = BackendConfig()
        self.config = config
        self._backend = backend
        self._owns_backend = backend is None
        if backend is not None:
            if backend.retry_policy is None and config.retry is not None:
                backend.retry_policy = config.retry
            if backend.fault_plan is None and config.faults is not None:
                backend.fault_plan = config.faults

    # ------------------------------------------------------------ properties
    @property
    def backend(self) -> ExecutionBackend:
        """The backend, built lazily from the config on first access."""
        if self._backend is None:
            self._backend = make_backend(self.config)
        return self._backend

    @property
    def retry(self) -> RetryPolicy | None:
        return self.config.retry

    @property
    def faults(self) -> FaultPlan | None:
        return self.config.faults

    @property
    def label(self) -> str:
        return self.config.telemetry_label

    @property
    def num_workers(self) -> int:
        if self._backend is not None:
            return self._backend.num_workers
        if self.config.num_workers is not None:
            return self.config.num_workers
        return 1

    # ------------------------------------------------------------- execution
    def run_tasks(
        self, worker_fn: Callable[[Any], Any], tasks: Sequence[Any]
    ) -> list[Any]:
        """Run tasks on this context's backend (faults/retries included)."""
        return self.backend.run_tasks(worker_fn, tasks)

    def make_workqueue(self, num_items: int) -> ChunkedWorkQueue:
        """A work queue matching this context's worker count and chunking."""
        return ChunkedWorkQueue(
            num_items,
            num_workers=self.num_workers,
            chunk_size=self.config.chunk_size,
            fault_plan=self.config.faults,
        )

    # --------------------------------------------------------------- cleanup
    def close(self) -> None:
        """Close the backend if this context built it; wrapped backends
        belong to their creator and are left running."""
        if self._owns_backend and self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "ExecutionContext":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        built = "built" if self._backend is not None else "lazy"
        return (
            f"ExecutionContext(backend={self.config.backend!r}, "
            f"num_workers={self.config.num_workers!r}, {built})"
        )
