"""Adapters projecting existing stat records onto the unified registry.

The repo predates the telemetry subsystem, so several layers already keep
their own counters: :class:`repro.core.params.KernelStats` (per-emulated-
thread operation counts), :class:`repro.simmachine.cache.AccessCounts`
(cache hits/misses), and the :class:`repro._util.StageTimes` wall-clock
breakdown.  (:class:`repro.distributed.comm.CommStats` instruments itself
live instead — see :mod:`repro.distributed.comm`.)  The functions here
map each of them onto registry metric names so simulated (:mod:`simmachine`)
and real (:mod:`multiprocessing`) runs share one schema — the only
difference is which backend-specific names appear alongside.

Everything is duck-typed on the stat objects' public attributes, so this
module imports nothing from the rest of the package (no cycles) and the
layers stay importable without telemetry enabled.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "record_kernel_stats",
    "record_access_counts",
    "record_stage_times",
    "record_codec_stats",
]


def _slug(name: str) -> str:
    return name.strip().lower().replace(" ", "_")


def record_kernel_stats(registry, kernel: str, stats: Any) -> None:
    """Project a ``KernelStats`` onto ``kernel.<name>.*`` metrics.

    Per-thread vectors are recorded as totals plus a load-imbalance gauge
    (max/mean of per-thread ops), matching the quantity the scaling
    experiments reason about.
    """
    key = _slug(kernel)
    for field in ("loads", "stores", "atomics", "compute"):
        vec = getattr(stats, field)
        registry.counter(f"kernel.{key}.{field}").inc(float(vec.sum()))
    registry.counter(f"kernel.{key}.serial_ops").inc(float(stats.serial_ops))
    registry.counter(f"kernel.{key}.sync_barriers").inc(int(stats.sync_barriers))
    per_thread = stats.per_thread_ops()
    mean = float(per_thread.mean()) if per_thread.size else 0.0
    imbalance = float(per_thread.max()) / mean if mean > 0 else 1.0
    registry.gauge(f"kernel.{key}.imbalance").set(imbalance)
    registry.gauge(f"kernel.{key}.num_threads").set(int(stats.num_threads))


def record_access_counts(registry, kernel: str, counts: Any) -> None:
    """Project an ``AccessCounts`` onto ``cache.<name>.*`` counters."""
    key = _slug(kernel)
    for field in ("l1_hits", "l1_misses", "l2_hits", "l2_misses"):
        registry.counter(f"cache.{key}.{field}").inc(int(getattr(counts, field)))


def record_codec_stats(registry, store: Any) -> None:
    """Project a compressed store's codec accounting onto ``sketch.compressed.*``.

    Duck-typed on :class:`~repro.sketch.compressed_store.CompressedRRRStore`'s
    public surface (``nbytes()``, ``compression_ratio``, ``encode_seconds``,
    ``decode_seconds``).  The store calls this after every append it
    encodes and every decode, so it keeps ``nbytes()`` and
    ``compression_ratio`` constant-time.  Gauges are idempotent, so the
    snapshot always carries the current
    footprint, ratio, and cumulative codec time (``perf_counter``-based)
    alongside the event-stream ``sketch.compressed.sets`` counter.
    """
    registry.gauge("sketch.compressed.bytes").set(float(store.nbytes()))
    registry.gauge("sketch.compressed.ratio").set(float(store.compression_ratio))
    registry.gauge("sketch.compressed.encode_s").set(float(store.encode_seconds))
    registry.gauge("sketch.compressed.decode_s").set(float(store.decode_seconds))


def record_stage_times(registry, times: Any) -> None:
    """Project a ``StageTimes`` onto ``phase.<stage>_s`` counters.

    These are the numbers Figure 2's breakdown plots; accumulating them as
    counters lets repeated runs in one session sum naturally.
    """
    for stage, seconds in times.stages.items():
        registry.counter(f"phase.{_slug(stage)}_s").inc(float(seconds))
