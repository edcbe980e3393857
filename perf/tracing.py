"""Benchmark-side tracing: timed wrappers around the program's functions.

The program itself is not modified.  :meth:`Tracer.install` replaces each
target function or method -- in every loaded module namespace that imported
it by name -- with a wrapper that times the call.  A call's *self time* is
its duration minus the time of the wrapped calls it made, so the self times
of all layers add up exactly to the time of the outermost calls.

Targets marked ``aggregate`` are the per-set hot paths (one call per RRR
set, hundreds of thousands per run); they only add to per-thread counts and
totals.  Every other call is also kept as a span -- name, layer, start,
end, self time, and the self time of its whole subtree by layer -- in
memory, and written out at exit by :meth:`Tracer.dump`.

A target that no longer exists is listed in ``missing`` and skipped, as is
one whose arguments or result no longer fit its counters, so a refactor of
the program breaks only the rows that depend on it.  Each
thread keeps its own stack and totals, merged when a report is taken, so
the hot path takes no lock.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

from stats import percentile

#: The layer of the benchmark's own operations and of generator lag.
CLIENT = "client"


@dataclass(frozen=True)
class Target:
    """One function to wrap, as ``"module:Qualified.name"``."""

    path: str
    layer: str
    aggregate: bool = False
    #: ``(args, kwargs, result) -> {counter: amount}``, added to the counts.
    measure: Callable[..., dict[str, float]] | None = None
    #: ``(args, kwargs, result) -> dict`` stored on the span.
    attrs: Callable[..., dict[str, Any]] | None = None


def _count(name: str) -> Callable[..., dict[str, float]]:
    return lambda args, kwargs, result: {name: 1}


def _one_set(args, kwargs, result):
    return {"kernels.sets": 1, "kernels.edges": result[1]}


def _kernel_batch(args, kwargs, result):
    _flat, sizes, edges = result
    return {"kernels.sets": len(sizes), "kernels.edges": int(edges.sum())}


def _appended(args, kwargs, result):
    vertices = args[1] if len(args) > 1 else kwargs["vertices"]
    return {"sketch.appends": 1, "sketch.entries": len(vertices)}


def _selection(args, kwargs, result):
    entries = args[0].total_entries
    return {
        "selection.calls": 1,
        "selection.entries": entries,
        "selection.entry_rounds": entries * len(result.seeds),
    }


def _batch(counter: str) -> Callable[..., dict[str, float]]:
    def measure(args, kwargs, result):
        return {counter + ".batches": 1, counter + ".queries": len(args[1])}

    return measure


def _query_ids(args, kwargs, result):
    return {"ids": [q.id for q in args[1]]}


def _repair(args, kwargs, result):
    return {
        "dynamic.repairs": 1,
        "dynamic.invalidated": result.invalidated_fraction,
        "dynamic.full_resamples": int(result.mode == "full"),
    }


#: What the benchmark wraps, layer by layer (layers are named after the
#: program's modules).
TARGETS: tuple[Target, ...] = (
    Target("repro.core.sampling:reverse_sample_with_cost", "kernels", True, _one_set),
    Target(
        "repro.kernels.dispatch:KernelSampler.sample_for_roots",
        "kernels", True, _kernel_batch,
    ),
    Target("repro.core.sampling:RRRSampler.extend", "sampling", measure=_count("sampling.extends")),
    Target("repro.sketch.store:FlatRRRStore.append", "sketch", True, _appended),
    Target("repro.sketch.store:FlatRRRStore.replace_sets", "sketch"),
    Target("repro.core.selection:efficient_select", "selection", measure=_selection),
    Target("repro.core.imm:run_imm", "imm", measure=_count("imm.runs")),
    Target(
        "repro.service.engine:QueryEngine.execute", "service",
        measure=_batch("service"), attrs=_query_ids,
    ),
    Target("repro.shard.router:Router.execute", "shard", measure=_batch("router")),
    Target("repro.shard.worker:ShardWorker.session_open", "shard", True, _count("shard.calls")),
    Target("repro.shard.worker:ShardWorker.session_cover", "shard", True, _count("shard.calls")),
    Target("repro.shard.worker:ShardWorker.session_counts", "shard", True, _count("shard.calls")),
    Target("repro.shard.worker:ShardWorker.session_close", "shard", True, _count("shard.calls")),
    Target("repro.shard.cluster:ShardCluster.publish", "shard"),
    Target("repro.dynamic.serving:DynamicService.apply", "dynamic"),
    Target("repro.dynamic.delta:DeltaGraph.commit", "dynamic"),
    Target("repro.dynamic.maintain:IncrementalMaintainer.apply", "dynamic", measure=_repair),
)


class _Frame:
    __slots__ = ("layer", "child", "sub")

    def __init__(self, layer: str):
        self.layer = layer
        self.child = 0.0  # time of wrapped calls made from this one
        self.sub: dict[str, float] = {}  # subtree self time by layer


class _ThreadState:
    """One thread's stack and totals (merged by :meth:`Tracer.report`)."""

    def __init__(self):
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0  # time of calls made with an empty stack
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []
        self.paused = 0
        self.paused_s = 0.0


class Tracer:
    """Records layer self times, counts and spans of wrapped calls."""

    def __init__(self):
        self._local = threading.local()
        self._threads: list[_ThreadState] = []
        self._threads_lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []
        self.broken: set[str] = set()  # targets whose counts could not be read

    # ------------------------------------------------------------ patching
    def install(self, targets: tuple[Target, ...] = TARGETS) -> None:
        """Wrap every target that exists; list the others in ``missing``."""
        for target in targets:
            modname, _, qualname = target.path.partition(":")
            try:
                owner = importlib.import_module(modname)
                *outer, attr = qualname.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(target.path)
                continue
            wrapper = self._wrap(original, target)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                # A function imported by name lives on in every importing
                # module's namespace; patch each of them.
                for modname, module in list(sys.modules.items()):
                    if (
                        modname.partition(".")[0] == "repro"
                        and getattr(module, attr, None) is original
                    ):
                        self._patch(module, attr, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        name = target.path.partition(":")[2]
        layer = target.layer
        keep_span = not target.aggregate
        measure, attrs = target.measure, target.attrs
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            if state.paused:
                return fn(*args, **kwargs)
            frame = _Frame(layer)
            state.stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                state.stack.pop()
                tracer._close(state, name, frame, t0, t1, keep_span)
            try:
                if measure is not None:
                    for key, amount in measure(args, kwargs, result).items():
                        state.counts[key] += amount
                if keep_span and attrs is not None:
                    state.spans[-1][-1].update(attrs(args, kwargs, result))
            except Exception:  # noqa: BLE001 - a changed signature loses
                tracer.broken.add(name)  # its counts, never the run
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    # ------------------------------------------------------------- recording
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadState()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def _close(
        self, state: _ThreadState, name: str, frame: _Frame,
        t0: float, t1: float, keep_span: bool,
    ) -> None:
        dur = t1 - t0
        own = dur - frame.child
        state.self_s[frame.layer] += own
        state.calls[name] += 1
        state.total_s[name] += dur
        frame.sub[frame.layer] = frame.sub.get(frame.layer, 0.0) + own
        if state.stack:
            parent = state.stack[-1]
            parent.child += dur
            for layer, secs in frame.sub.items():
                parent.sub[layer] = parent.sub.get(layer, 0.0) + secs
        else:
            state.root_s += dur
        if keep_span:
            state.spans.append(
                (name, frame.layer, t0, t1, own, threading.get_ident(),
                 len(state.stack), dict(frame.sub), {})
            )

    @contextmanager
    def op(self, name: str):
        """One operation of the benchmark itself: a root span in the
        ``client`` layer, whose self time is whatever the program's wrapped
        calls inside it do not cover."""
        state = self._state()
        frame = _Frame(CLIENT)
        state.stack.append(frame)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            state.stack.pop()
            self._close(state, name, frame, t0, t1, True)

    @contextmanager
    def paused(self):
        """Run the benchmark's own untimed work (answer checks) unrecorded;
        its wall time is excluded from the traced wall time."""
        state = self._state()
        state.paused += 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            state.paused -= 1
            state.paused_s += time.perf_counter() - t0

    def reset(self) -> None:
        """Forget everything recorded so far (calls in flight still close)."""
        for state in list(self._threads):
            for totals in (state.self_s, state.calls, state.total_s, state.counts):
                totals.clear()
            state.spans.clear()
            state.root_s = state.paused_s = 0.0

    # --------------------------------------------------------------- reports
    def spans(self) -> list[dict[str, Any]]:
        out = []
        for state in list(self._threads):
            for name, layer, t0, t1, own, tid, depth, sub, attrs in state.spans:
                out.append({
                    "name": name, "layer": layer, "t0": t0, "t1": t1,
                    "self_s": own, "tid": tid, "depth": depth,
                    "layers": sub, **attrs,
                })
        out.sort(key=lambda s: s["t0"])
        return out

    def report(self) -> dict[str, Any]:
        """Merged totals: self time by layer, per-name calls and totals,
        counts, time of outermost calls, paused time, missing targets."""
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        total_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        root_s = paused_s = 0.0
        for state in list(self._threads):
            for d, src in ((self_s, state.self_s), (calls, state.calls),
                           (total_s, state.total_s), (counts, state.counts)):
                for key, value in src.items():
                    d[key] += value
            root_s += state.root_s
            paused_s += state.paused_s
        durations: dict[str, list[float]] = defaultdict(list)
        for span in self.spans():
            durations[span["name"]].append(span["t1"] - span["t0"])
        names = {}
        for name in calls:
            row = {"calls": calls[name], "total_s": total_s[name]}
            if durations.get(name):
                row["p50_ms"] = percentile(durations[name], 50) * 1e3
                row["p99_ms"] = percentile(durations[name], 99) * 1e3
            names[name] = row
        return {
            "self_s": dict(self_s),
            "root_s": root_s,
            "paused_s": paused_s,
            "names": names,
            "counts": dict(counts),
            "missing": list(self.missing) + sorted(self.broken),
        }

    def dump(self, path: str) -> None:
        """Write the report and every kept span as JSON."""
        with open(path, "w") as fh:
            json.dump({"report": self.report(), "spans": self.spans()}, fh)


def chrome_trace(spans: list[dict[str, Any]]) -> dict[str, Any]:
    """Spans as Chrome trace events (open in chrome://tracing or Perfetto)."""
    return {
        "traceEvents": [
            {
                "name": s["name"], "cat": s["layer"], "ph": "X",
                "ts": s["t0"] * 1e6, "dur": (s["t1"] - s["t0"]) * 1e6,
                "pid": 0, "tid": s["tid"],
            }
            for s in spans
        ]
    }


def request_layers(
    samples: list[dict[str, Any]], spans: list[dict[str, Any]]
) -> dict[str, Any]:
    """Split each served request's latency, timed from its due time, into
    layers: generator lag (``client``), ``wire`` (client round trip minus
    the server's ``latency_s``), ``gateway`` queueing (``latency_s`` minus
    the engine batch that served it, joined on query id) and the batch's
    own layer breakdown.  The parts of a joined request add up to its
    latency exactly.
    """
    batch_of: dict[str, dict[str, Any]] = {}
    for span in spans:
        for qid in span.get("ids") or ():
            batch_of[qid] = span
    self_s: dict[str, float] = defaultdict(float)
    parts: dict[str, list[float]] = defaultdict(list)
    batch_sizes = []
    joined = 0
    latency_s = 0.0
    for s in samples:
        span = batch_of.get(s["id"])
        if s["status"] != "ok" or span is None:
            continue
        joined += 1
        batch_s = span["t1"] - span["t0"]
        lag = s["sent"] - s["due"]
        wire = (s["done"] - s["sent"]) - s["server_s"]
        queue = s["server_s"] - batch_s
        latency_s += s["done"] - s["due"]
        for layer, secs in ((CLIENT, lag), ("wire", wire), ("gateway", queue)):
            self_s[layer] += secs
            parts[layer].append(secs)
        parts["engine"].append(batch_s)
        batch_sizes.append(len(span["ids"]))
        for layer, secs in span["layers"].items():
            self_s[layer] += secs
    return {
        "self_s": dict(self_s),
        "latency_s": latency_s,
        "joined": joined,
        "parts": dict(parts),
        "batch_sizes": batch_sizes,
    }
