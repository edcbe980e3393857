"""repro.telemetry — unified tracing, metrics, and profiling.

One *telemetry session* (:class:`Telemetry`) bundles a
:class:`~repro.telemetry.metrics.MetricsRegistry` (counters / gauges /
streaming histograms) with a :class:`~repro.telemetry.tracing.Tracer`
(hierarchical spans, optional :mod:`tracemalloc` attribution).  A global
session exists at import time but is **disabled**: every instrumented call
site in the package guards with one boolean check, so the subsystem costs
nothing until switched on.

Typical use::

    from repro import telemetry

    with telemetry.session() as tel:          # enable, scoped
        result = EfficientIMM(graph).run(params)
        telemetry.write_report("out/", tel, run={"dataset": "amazon"})

    tel = telemetry.enable()                  # or: enable globally
    ...
    print(tel.registry.snapshot()["counters"]["sampling.rrr_sets"])

Hot-loop call sites follow the pattern::

    tel = telemetry.get()
    ...
    if tel.enabled:
        tel.registry.counter("sampling.rrr_sets").inc(batch)
    with tel.span("imm.sampling", level=level):   # no-op when disabled
        ...

Multiprocessing: forked workers inherit the enabled session; the
:mod:`repro.runtime.backends` wrapper snapshots the worker registry around
each task and ships the delta back, where it is merged on reduce (see
:func:`repro.telemetry.metrics.diff_snapshots`).  Everything is standard
library + numpy-free; the package has no third-party dependencies.
"""

from __future__ import annotations

import contextlib
import tracemalloc
from typing import Any

from repro.telemetry.bridge import (
    record_access_counts,
    record_kernel_stats,
    record_stage_times,
)
from repro.telemetry.export import (
    BENCH_SCHEMA,
    bench_payload,
    write_bench_json,
    write_chrome_trace,
    write_metrics_json,
    write_report,
)
from repro.telemetry.metrics import (
    SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    merge_snapshots,
)
from repro.telemetry.tracing import NULL_SPAN, Span, Tracer, traced

__all__ = [
    "Telemetry",
    "get",
    "enable",
    "disable",
    "is_enabled",
    "session",
    "span",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "Tracer",
    "Span",
    "NULL_SPAN",
    "traced",
    "merge_snapshots",
    "diff_snapshots",
    "record_kernel_stats",
    "record_access_counts",
    "record_stage_times",
    "write_metrics_json",
    "write_chrome_trace",
    "write_report",
    "bench_payload",
    "write_bench_json",
    "SCHEMA",
    "BENCH_SCHEMA",
]


class Telemetry:
    """A registry + tracer pair with one shared enable switch."""

    __slots__ = ("registry", "tracer", "enabled", "memory", "_started_tracemalloc")

    def __init__(self, *, enabled: bool = False, memory: bool = False):
        self.registry = MetricsRegistry()
        self.tracer = Tracer(memory=memory)
        self.memory = bool(memory)
        self.enabled = False
        self._started_tracemalloc = False
        self._set_enabled(enabled)

    def _set_enabled(self, value: bool) -> None:
        self.enabled = bool(value)
        self.registry.enabled = self.enabled
        self.tracer.enabled = self.enabled
        if self.enabled and self.memory and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracemalloc = True
        elif not self.enabled and self._started_tracemalloc:
            tracemalloc.stop()
            self._started_tracemalloc = False

    # ------------------------------------------------------------ conveniences
    def span(self, name: str, **attrs: Any):
        """Open a span (no-op context manager while disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **attrs)

    def snapshot(self) -> dict[str, Any]:
        return self.registry.snapshot()

    def clear(self) -> None:
        self.registry.clear()
        self.tracer.clear()


_GLOBAL = Telemetry(enabled=False)


def get() -> Telemetry:
    """The active telemetry session (module-global; workers inherit it)."""
    return _GLOBAL


def enable(*, memory: bool = False, fresh: bool = True) -> Telemetry:
    """Switch the global session on (optionally clearing prior data)."""
    global _GLOBAL
    if fresh:
        _GLOBAL = Telemetry(enabled=True, memory=memory)
    else:
        _GLOBAL.memory = memory or _GLOBAL.memory
        _GLOBAL.tracer.memory = _GLOBAL.memory
        _GLOBAL._set_enabled(True)
    return _GLOBAL


def disable() -> None:
    """Switch the global session off (data is retained until re-enabled)."""
    _GLOBAL._set_enabled(False)


def is_enabled() -> bool:
    return _GLOBAL.enabled


def span(name: str, **attrs: Any):
    """Module-level shorthand for ``get().span(...)``."""
    return _GLOBAL.span(name, **attrs)


@contextlib.contextmanager
def session(*, memory: bool = False):
    """Scoped telemetry: install a fresh enabled session, restore on exit.

    The session object stays readable after the block (tests inspect it),
    but the previous global session — usually the disabled default — is
    reinstated, so instrumentation overhead vanishes again.
    """
    global _GLOBAL
    prev = _GLOBAL
    tel = Telemetry(enabled=True, memory=memory)
    _GLOBAL = tel
    try:
        yield tel
    finally:
        tel._set_enabled(False)
        _GLOBAL = prev
