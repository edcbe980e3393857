"""repro.resilience — fault injection, retries, and checkpoint recovery.

The production-service framing of the roadmap needs the long-running
parallel sections (sampling fan-out, simulated collectives, cold serving
passes) to survive the failures they will actually meet at scale.  This
package provides the three primitives, threaded through
:mod:`repro.runtime`, :mod:`repro.distributed`, :mod:`repro.core`, and
:mod:`repro.service` (docs/resilience.md):

- :class:`FaultPlan` / :class:`FaultSpec` — a deterministic, seedable
  script of crash/slow/corrupt faults keyed by task index, sampling batch,
  collective sequence number, control action, or canary epoch; usable from
  tests and from ``repro run --inject-faults``;
- :class:`RetryPolicy` — bounded attempts with exponential backoff, a
  deterministic jitter cap, and retryable-error classification, applied
  per task by the execution backends and per collective by
  :class:`~repro.distributed.comm.SimulatedComm`;
- :class:`SamplingCheckpointer` — per-batch RRR-store snapshots through
  the artifact layer, so an interrupted ``repro run`` resumes with
  ``--resume`` and selects byte-identical seed sets.

Telemetry: ``resilience.retries``, ``resilience.faults_injected``,
``resilience.checkpoints_written``, ``resilience.checkpoints_restored``,
and ``resilience.degraded_responses`` (docs/observability.md).
"""

from repro.resilience.checkpoint import SamplingCheckpointer, run_key
from repro.resilience.faults import FAULT_KINDS, FAULT_SCOPES, FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy, call_with_retry

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FAULT_KINDS",
    "FAULT_SCOPES",
    "RetryPolicy",
    "call_with_retry",
    "SamplingCheckpointer",
    "run_key",
]
