"""Small shared utilities: RNG normalisation, timers, formatting helpers.

Kept deliberately dependency-free (numpy only) so every subpackage may import
it without cycles.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "as_rng",
    "sorted_unique",
    "stable_argsort",
    "Timer",
    "StageTimes",
    "human_bytes",
    "human_time",
    "check_positive_int",
    "check_fraction",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged so callers can share stream state).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` for non-negative integer keys.

    Computed as one sort of the unique values ``key * len + position``,
    several times faster than numpy's stable (merge/tim) argsort on the
    int32/int64 keys this package groups by.  Needs ``max(keys) *
    len(keys) < 2**63``, which vertex ids and entry counts below 2**31
    guarantee.
    """
    m = keys.size
    return np.sort(keys.astype(np.int64) * m + np.arange(m)) % m


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-d integer array: sort, then keep first copies.

    An order of magnitude faster than ``np.unique`` on the int64 pair keys
    the sampling kernels deduplicate every level (numpy's hash-based
    unique pays a hash pass and then a sort anyway).
    """
    out = np.sort(values)
    if out.size > 1:
        keep = np.empty(out.size, dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


@dataclass
class Timer:
    """Context-manager stopwatch measuring wall-clock seconds."""

    elapsed: float = 0.0
    _start: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += time.perf_counter() - self._start


@dataclass
class StageTimes:
    """Accumulates named per-stage wall-clock times (runtime breakdown).

    Mirrors the paper's Figure 2 breakdown: Generate_RRRsets,
    Find_Most_Influential_Set, and everything else.
    """

    stages: dict[str, float] = field(default_factory=dict)

    def add(self, name: str, seconds: float) -> None:
        self.stages[name] = self.stages.get(name, 0.0) + float(seconds)

    def measure(self, name: str):
        """Return a context manager charging its elapsed time to ``name``."""
        outer = self

        class _Stage:
            def __enter__(self):
                self._t0 = time.perf_counter()
                return self

            def __exit__(self, *exc):
                outer.add(name, time.perf_counter() - self._t0)

        return _Stage()

    @property
    def total(self) -> float:
        return sum(self.stages.values())

    def fractions(self) -> dict[str, float]:
        t = self.total
        if t <= 0.0:
            return {k: 0.0 for k in self.stages}
        return {k: v / t for k, v in self.stages.items()}


_BYTE_UNITS = ["B", "KiB", "MiB", "GiB", "TiB"]


def human_bytes(n: float) -> str:
    """Render a byte count with a binary unit suffix (e.g. ``1.5 GiB``)."""
    n = float(n)
    for unit in _BYTE_UNITS:
        if abs(n) < 1024.0 or unit == _BYTE_UNITS[-1]:
            return f"{n:,.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024.0
    raise AssertionError("unreachable")


def human_time(seconds: float) -> str:
    """Render seconds compactly (``823 us``, ``1.24 s``, ``3m12s``)."""
    s = float(seconds)
    if s < 1e-3:
        return f"{s * 1e6:.0f} us"
    if s < 1.0:
        return f"{s * 1e3:.1f} ms"
    if s < 120.0:
        return f"{s:.2f} s"
    m, rem = divmod(s, 60.0)
    return f"{int(m)}m{rem:02.0f}s"


def check_positive_int(name: str, value: int) -> int:
    """Validate that ``value`` is a positive integer; return it as ``int``."""
    iv = int(value)
    if iv != value or iv <= 0:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")
    return iv


def check_fraction(name: str, value: float, *, open_left: bool = True) -> float:
    """Validate that ``value`` lies in (0, 1] (or [0, 1] if not open_left)."""
    fv = float(value)
    lo_ok = fv > 0.0 if open_left else fv >= 0.0
    if not (lo_ok and fv <= 1.0):
        interval = "(0, 1]" if open_left else "[0, 1]"
        raise ParameterError(f"{name} must be in {interval}, got {value!r}")
    return fv


def log2ceil(n: int) -> int:
    """Smallest ``i`` with ``2**i >= n`` (used by IMM's estimation loop)."""
    if n <= 1:
        return 0
    return int(math.ceil(math.log2(n)))
