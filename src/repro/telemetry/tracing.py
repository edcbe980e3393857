"""Hierarchical span tracing with JSON and Chrome trace-event export.

A *span* is a named wall-clock interval with attributes and children; the
tree mirrors the call structure (``imm.run`` > ``imm.sampling`` > ...).
Spans are recorded via a context manager or the :func:`traced` decorator;
nesting is tracked per thread, so spans opened on worker threads parent
correctly within their own thread.

Optional memory attribution: a :class:`Tracer` built with ``memory=True``
reads :mod:`tracemalloc` at span entry/exit (when tracing is active) and
stamps ``mem_delta_bytes`` / ``mem_peak_bytes`` onto each span.

Retention is bounded: a tracer keeps the newest :data:`MAX_ROOTS` root
spans, each with its whole tree, and counts the older ones it drops, so a
long-running server (one ``service.batch`` root per engine batch) holds a
fixed amount of trace memory.

Exports:

- :meth:`Tracer.to_dict` — the span tree as nested JSON (the repo schema),
  with the count of dropped roots under ``dropped_roots``;
- :meth:`Tracer.to_chrome_trace` — flat ``traceEvents`` in the Chrome
  trace-event format, loadable in ``chrome://tracing`` / Perfetto.
"""

from __future__ import annotations

import functools
import os
import threading
import time
import tracemalloc
from typing import Any, Callable, Iterator

__all__ = ["Span", "Tracer", "NULL_SPAN", "MAX_ROOTS"]

#: Root spans one tracer keeps; pushing another drops the oldest.
MAX_ROOTS = 4096


class Span:
    """One named interval; durations are :func:`time.perf_counter` based."""

    __slots__ = ("name", "attrs", "children", "t0", "t1", "tid", "_mem0")

    def __init__(self, name: str, attrs: dict[str, Any], tid: int):
        self.name = name
        self.attrs = attrs
        self.children: list[Span] = []
        self.t0 = 0.0
        self.t1 = 0.0
        self.tid = tid
        self._mem0 = None

    @property
    def duration_s(self) -> float:
        return max(self.t1 - self.t0, 0.0)

    def to_dict(self) -> dict[str, Any]:
        d: dict[str, Any] = {
            "name": self.name,
            "start_s": self.t0,
            "duration_s": self.duration_s,
        }
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    def iter_tree(self) -> Iterator["Span"]:
        yield self
        for c in self.children:
            yield from c.iter_tree()

    def find(self, name: str) -> list["Span"]:
        """All spans named ``name`` in this subtree (depth-first order)."""
        return [s for s in self.iter_tree() if s.name == name]


class _NullSpan:
    """Shared no-op context manager returned when tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


NULL_SPAN = _NullSpan()


class _SpanContext:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        self.tracer._push(self.span)
        if self.tracer.memory and tracemalloc.is_tracing():
            self.span._mem0 = tracemalloc.get_traced_memory()
        self.span.t0 = time.perf_counter()
        return self.span

    def __exit__(self, *exc) -> None:
        self.span.t1 = time.perf_counter()
        if self.span._mem0 is not None:
            cur, peak = tracemalloc.get_traced_memory()
            self.span.attrs["mem_delta_bytes"] = cur - self.span._mem0[0]
            self.span.attrs["mem_peak_bytes"] = peak
        self.tracer._pop(self.span)


class Tracer:
    """Collects span trees; one instance per telemetry session."""

    def __init__(self, *, memory: bool = False):
        self.enabled = True
        self.memory = bool(memory)
        self.roots: list[Span] = []
        #: Roots dropped to keep ``roots`` within :data:`MAX_ROOTS`.
        self.dropped_roots = 0
        self.epoch = time.perf_counter()
        self._local = threading.local()
        self._lock = threading.Lock()

    # ---------------------------------------------------------------- stack
    def _stack(self) -> list[Span]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _push(self, span: Span) -> None:
        st = self._stack()
        if st:
            st[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)
                if len(self.roots) > MAX_ROOTS:
                    del self.roots[0]
                    self.dropped_roots += 1
        st.append(span)

    def _pop(self, span: Span) -> None:
        st = self._stack()
        if st and st[-1] is span:
            st.pop()
        elif span in st:  # pragma: no cover - unbalanced exit guard
            st.remove(span)

    # ------------------------------------------------------------------ api
    def span(self, name: str, **attrs: Any):
        """Context manager opening a child span of the current span."""
        if not self.enabled:
            return NULL_SPAN
        return _SpanContext(self, Span(name, attrs, threading.get_ident()))

    def current(self) -> Span | None:
        st = self._stack()
        return st[-1] if st else None

    def clear(self) -> None:
        with self._lock:
            self.roots.clear()
            self.dropped_roots = 0
        self._local = threading.local()
        self.epoch = time.perf_counter()

    def find(self, name: str) -> list[Span]:
        out: list[Span] = []
        for r in self.roots:
            out.extend(r.find(name))
        return out

    # -------------------------------------------------------------- exports
    def to_dict(self) -> dict[str, Any]:
        return {
            "spans": [r.to_dict() for r in self.roots],
            "dropped_roots": self.dropped_roots,
        }

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (complete ``"X"`` events, microseconds)."""
        pid = os.getpid()
        events = []
        tids: dict[int, int] = {}
        for root in self.roots:
            for s in root.iter_tree():
                tid = tids.setdefault(s.tid, len(tids))
                ev: dict[str, Any] = {
                    "name": s.name,
                    "ph": "X",
                    "pid": pid,
                    "tid": tid,
                    "ts": (s.t0 - self.epoch) * 1e6,
                    "dur": s.duration_s * 1e6,
                }
                if s.attrs:
                    ev["args"] = {k: _jsonable(v) for k, v in s.attrs.items()}
                events.append(ev)
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _jsonable(v: Any) -> Any:
    if isinstance(v, (str, int, float, bool)) or v is None:
        return v
    return str(v)


def traced(name: str | None = None, **attrs: Any) -> Callable:
    """Decorator recording each call of the wrapped function as a span.

    The tracer is resolved at call time through the active telemetry
    session, so decorating a function costs nothing while telemetry is off.
    """

    def wrap(fn: Callable) -> Callable:
        span_name = name or f"{fn.__module__}.{fn.__qualname__}"

        @functools.wraps(fn)
        def inner(*args, **kwargs):
            from repro.telemetry import get

            tel = get()
            if not tel.enabled:
                return fn(*args, **kwargs)
            with tel.tracer.span(span_name, **attrs):
                return fn(*args, **kwargs)

        return inner

    return wrap
