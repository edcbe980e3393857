"""Deterministic fault injection: :class:`FaultSpec` and :class:`FaultPlan`.

A fault plan is a small, seedable script of failures keyed by *(scope,
index)* — e.g. "crash task 3", "slow down sampling batch 0", "corrupt the
result of collective 2" — that the execution layers consult at well-defined
points (:data:`FAULT_SCOPES`):

- :mod:`repro.runtime.backends` — per *task* index in ``run_tasks``;
- :mod:`repro.core.imm` — per sampling *batch* in the IMM driver;
- :mod:`repro.distributed.comm` — per *collective* sequence number;
- :mod:`repro.control.controller` — per reconcile *action* sequence number;
- :mod:`repro.control.rollout` — per *canary* epoch.

Because firing is keyed by deterministic indices and each spec has a finite
``times`` budget, a run under a fault plan is exactly reproducible: the same
plan string produces the same failures in the same places, which is what
lets the checkpoint/resume test interrupt a run at *every* batch boundary
and assert byte-identical seed sets (docs/resilience.md).

Plans are built in code (``FaultPlan([FaultSpec(...)])``) or parsed from the
CLI's ``--inject-faults`` spec string::

    crash@task:3            # raise FaultInjectedError before task 3 runs
    crash@batch:1x2         # fire twice (defeats a 2-attempt retry policy)
    slow@task:0:0.05        # sleep 50 ms before task 0 is dispatched
    corrupt@collective:2    # deterministically mangle collective 2's result
    crash@1                 # scope defaults to "task"

Multiple specs are comma-separated.  The parser accepts any scope string;
a CLI command refuses a scope it never consults (``repro run`` consults
only ``batch``, ``repro control`` only ``action``).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro import telemetry
from repro.errors import FaultInjectedError, ParameterError

__all__ = ["FaultSpec", "FaultPlan", "FAULT_KINDS", "FAULT_SCOPES"]

#: Supported fault kinds.
FAULT_KINDS = ("crash", "slow", "corrupt")

#: The scopes the library's injection points consult (the parser accepts
#: free-form strings; a spec in any other scope never fires).
FAULT_SCOPES = ("task", "batch", "collective", "action", "canary")


def _count(name: str, amount: float = 1) -> None:
    tel = telemetry.get()
    if tel.enabled:
        tel.registry.counter(name).inc(amount)


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: *kind* at *(scope, index)*, firing *times* times.

    ``delay_s`` only applies to ``slow`` faults.  ``times`` is the firing
    budget — a ``crash`` with ``times=1`` fails the first attempt and lets a
    retry succeed, which is the canonical "transient fault" scenario.
    """

    kind: str
    index: int
    scope: str = "task"
    times: int = 1
    delay_s: float = 0.01

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ParameterError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.index < 0:
            raise ParameterError(f"fault index must be >= 0, got {self.index}")
        if self.times < 1:
            raise ParameterError(f"fault times must be >= 1, got {self.times}")
        if self.delay_s < 0:
            raise ParameterError(f"fault delay_s must be >= 0, got {self.delay_s}")

    def describe(self) -> str:
        extra = f"x{self.times}" if self.times != 1 else ""
        return f"{self.kind}@{self.scope}:{self.index}{extra}"

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind@[scope:]index[xN][:delay]`` token."""
        head, _, rest = text.strip().partition("@")
        if not rest:
            raise ParameterError(
                f"bad fault spec {text!r}: expected kind@[scope:]index[xN][:delay]"
            )
        kind = head.strip().lower()
        parts = rest.split(":")
        scope = "task"
        if parts and not parts[0].lstrip("-").isdigit():
            scope = parts.pop(0).strip().lower()
        if not parts:
            raise ParameterError(f"bad fault spec {text!r}: missing index")
        idx_tok, times = parts.pop(0), 1
        if "x" in idx_tok:
            idx_tok, _, times_tok = idx_tok.partition("x")
            try:
                times = int(times_tok)
            except ValueError as exc:
                raise ParameterError(
                    f"bad fault spec {text!r}: repeat count {times_tok!r}"
                ) from exc
        try:
            index = int(idx_tok)
        except ValueError as exc:
            raise ParameterError(f"bad fault spec {text!r}: index {idx_tok!r}") from exc
        delay_s = 0.01
        if parts:
            try:
                delay_s = float(parts.pop(0))
            except ValueError as exc:
                raise ParameterError(f"bad fault spec {text!r}: delay") from exc
        if parts:
            raise ParameterError(f"bad fault spec {text!r}: trailing fields")
        return cls(kind=kind, index=index, scope=scope, times=times, delay_s=delay_s)


class FaultPlan:
    """A seedable, thread-safe script of :class:`FaultSpec` firings.

    The plan owns all mutable injection state (per-spec remaining budgets,
    the total ``injected`` count, and the RNG that drives ``corrupt``
    mangling), so the same plan object threaded through several layers keeps
    one coherent account of what fired where.
    """

    def __init__(self, specs: "list[FaultSpec] | tuple[FaultSpec, ...]" = (), *, seed: int = 0):
        self.specs = list(specs)
        self.seed = int(seed)
        self._remaining = [s.times for s in self.specs]
        self._rng = np.random.default_rng(self.seed)
        self._lock = threading.Lock()
        self.injected = 0
        self.by_kind: dict[str, int] = {}

    @classmethod
    def parse(cls, text: str, *, seed: int = 0) -> "FaultPlan":
        """Build a plan from a comma-separated spec string (CLI format)."""
        specs = [FaultSpec.parse(tok) for tok in text.split(",") if tok.strip()]
        if not specs:
            raise ParameterError(f"fault spec {text!r} contains no faults")
        return cls(specs, seed=seed)

    # ------------------------------------------------------------- firing
    def take(self, scope: str, index: int) -> FaultSpec | None:
        """Consume and return the matching spec, or ``None``.

        At most one spec fires per call (specs match in declaration order);
        a fired spec's remaining budget is decremented, so an exhausted
        fault never fires again — the mechanism that lets retries succeed.
        """
        with self._lock:
            for i, spec in enumerate(self.specs):
                if (
                    spec.scope == scope
                    and spec.index == index
                    and self._remaining[i] > 0
                ):
                    self._remaining[i] -= 1
                    self.injected += 1
                    self.by_kind[spec.kind] = self.by_kind.get(spec.kind, 0) + 1
                    _count("resilience.faults_injected")
                    _count(f"resilience.faults.{spec.kind}")
                    return spec
            return None

    def invoke(self, scope: str, index: int, fn):
        """Run ``fn`` under this plan's faults for *(scope, index)*.

        ``crash`` raises :class:`~repro.errors.FaultInjectedError` *before*
        ``fn`` runs; ``slow`` sleeps ``delay_s`` first; ``corrupt`` runs
        ``fn`` and mangles its return value.
        """
        spec = self.take(scope, index)
        if spec is None:
            return fn()
        if spec.kind == "crash":
            raise FaultInjectedError(f"injected {spec.describe()}")
        if spec.kind == "slow":
            time.sleep(spec.delay_s)
            return fn()
        return self.corrupt(fn())

    # --------------------------------------------------------- corruption
    def corrupt(self, value):
        """Deterministically mangle a value (driven by the plan's seed).

        Best-effort over the payload shapes the backends move around:
        numpy arrays get one element perturbed, ``bytes`` one bit flipped,
        tuples/lists have their first corruptible element mangled, numbers
        are offset.  Uncorruptible values pass through unchanged.
        """
        if isinstance(value, np.ndarray):
            if value.size == 0:
                return value
            out = value.copy()
            pos = int(self._rng.integers(0, out.size))
            flat = out.reshape(-1)
            if np.issubdtype(out.dtype, np.number):
                flat[pos] = flat[pos] + 1
            return out
        if isinstance(value, (bytes, bytearray)):
            if not value:
                return value
            buf = bytearray(value)
            buf[int(self._rng.integers(0, len(buf)))] ^= 0x01
            return bytes(buf)
        if isinstance(value, bool):
            return not value
        if isinstance(value, (int, float)):
            return value + 1
        if isinstance(value, tuple):
            return tuple(self.corrupt(v) for v in value)
        if isinstance(value, list):
            return [self.corrupt(v) for v in value]
        return value

    # ----------------------------------------------------------- accounting
    def remaining(self) -> int:
        """Total firing budget left across every spec."""
        with self._lock:
            return sum(self._remaining)

    def exhausted(self) -> bool:
        return self.remaining() == 0

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "seed": self.seed,
                "specs": [s.describe() for s in self.specs],
                "remaining": list(self._remaining),
                "injected": self.injected,
                "by_kind": dict(self.by_kind),
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({', '.join(s.describe() for s in self.specs)})"
