"""Analytic cost model: per-thread kernel work -> simulated parallel time.

This is the layer that produces the 1..128-thread curves (Figures 1, 2, 6,
7) and the best-runtime table (Table III).  Its honesty contract
(DESIGN.md): every *workload-dependent* quantity is measured by executing
the real kernels; the model only applies machine constants
(:mod:`repro.simmachine.topology`) to them.

How thread-count dependence is obtained without running 128 threads
--------------------------------------------------------------------
Both selection kernels are executed (really) at p=1 and p=2 and their total
operation counts decomposed as ``W(p) = A + B*p``:

- ``A`` — work that *partitions* (each element handled by exactly one
  thread: counter writes, EfficientIMM's everything);
- ``B`` — work every thread *repeats* (Ripples' full-store traversals and
  per-set probes).

Work-efficient kernels have ``B ~ 0``; Ripples' selection has ``B`` of the
order of the whole store, which is precisely the paper's Challenge 1.  Time
at p threads is then::

    compute(p)  = (A / p) * imbalance(p) + B            [ops, makespan]
    traffic(p)  = (A + B * p) * bytes_per_op            [bytes]
    time(p)     = max(compute(p) * op_ns, traffic(p) / bw(p))
                  + serial(p) + barriers(p) + atomics(p)

``bw(p)`` honours NUMA placement: EfficientIMM's worker-local stores draw
from every active node's controller; Ripples' gathered store is homed on one
node (first-touch), so its bandwidth ceiling never grows — the saturation
behind Figure 1.  Sampling time uses the real per-set costs with the real
scheduling policy (static vs dynamic chunked) via
:func:`repro.runtime.workqueue.simulate_schedule`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.errors import ParameterError, SimulationError
from repro.runtime.workqueue import simulate_schedule
from repro.simmachine.topology import MachineTopology, perlmutter

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.selection import SelectionResult

__all__ = ["KernelCost", "RunProfile", "CostModel", "ScalingCurve", "profile_pair"]


@dataclass(frozen=True)
class KernelCost:
    """A + B*p decomposition of one kernel's operation count."""

    partitioned_ops: float  # A: divided across threads
    replicated_ops: float  # B: repeated by every thread
    atomic_ops: float = 0.0  # subset of A paying atomic latency
    serial_ops_per_round: float = 0.0
    rounds: int = 1
    bytes_per_op: float = 8.0

    @classmethod
    def from_two_runs(
        cls, total_p1: float, total_p2: float, **kw
    ) -> "KernelCost":
        """Solve A + B from totals measured at p=1 and p=2."""
        b = max(total_p2 - total_p1, 0.0)
        a = max(total_p1 - b, 0.0)
        return cls(partitioned_ops=a, replicated_ops=b, **kw)

    @classmethod
    def measure(
        cls, select_at: Callable[[int], SelectionResult]
    ) -> tuple[KernelCost, SelectionResult]:
        """Run one selection kernel (really) at p=1 and p=2 and decompose
        its operation count; ``select_at(p)`` runs it at p threads.

        Returns the cost and the p=2 selection.  The atomic count is the
        p=2 run's (Ripples' selection takes none, so it prices 0).
        """
        total_p1 = float(select_at(1).stats.per_thread_ops().sum())
        sel = select_at(2)
        cost = cls.from_two_runs(
            total_p1, float(sel.stats.per_thread_ops().sum()),
            atomic_ops=float(sel.stats.atomics.sum()),
            serial_ops_per_round=1.0,
            rounds=sel.num_rounds,
        )
        return cost, sel


@dataclass
class RunProfile:
    """Everything the cost model needs about one (graph, model, framework).

    Extracted by :func:`profile_pair` from real executions.
    """

    framework: str
    dataset: str
    model: str
    n: int
    num_sets: int
    total_entries: int
    per_set_costs: np.ndarray
    sampling_schedule: str  # "static" | "dynamic"
    numa_aware: bool  # local/interleaved placement vs single-home
    selection: KernelCost = field(default=None)  # type: ignore[assignment]
    gather_bytes: float = 0.0
    store_bytes: int = 0


@dataclass(frozen=True)
class ScalingCurve:
    """time(p) series for one configuration."""

    label: str
    thread_counts: tuple[int, ...]
    times_s: tuple[float, ...]
    stages: dict[int, dict[str, float]] = field(default_factory=dict)

    def speedup_vs(self, baseline_time: float) -> tuple[float, ...]:
        return tuple(baseline_time / t for t in self.times_s)

    @property
    def best_time(self) -> float:
        return min(self.times_s)

    @property
    def best_threads(self) -> int:
        return self.thread_counts[int(np.argmin(self.times_s))]

    def saturation_threads(self, tolerance: float = 0.05) -> int:
        """The smallest p after which time stops improving by > tolerance
        (Figure 1's 'scalability limit')."""
        best = self.times_s[0]
        sat = self.thread_counts[0]
        for p, t in zip(self.thread_counts[1:], self.times_s[1:]):
            if t < best * (1.0 - tolerance):
                best, sat = t, p
        return sat


class CostModel:
    """Prices :class:`RunProfile` kernels on a :class:`MachineTopology`."""

    #: Per-core sustainable streaming bandwidth (bytes/s); the node ceiling
    #: in the topology dominates once a node's cores are all busy.
    per_core_bandwidth = 6e9
    #: Blended cost of one array element operation that mostly hits cache
    #: (sequential streams amortise one line fetch over 8-16 elements).
    stream_op_ns = 7.0
    #: Cost of a random (scatter/probe) operation missing to DRAM often.
    random_op_ns = 14.0

    def __init__(self, topology: MachineTopology | None = None):
        self.topology = topology or perlmutter()

    # ------------------------------------------------------------ plumbing
    def _bandwidth(self, p: int, numa_aware: bool) -> float:
        """Aggregate DRAM bandwidth available to p packed cores."""
        topo = self.topology
        nodes = topo.active_nodes(p) if numa_aware else 1
        return min(p * self.per_core_bandwidth, nodes * topo.node_bandwidth_bytes_s)

    def _op_ns(self, numa_aware: bool, p: int) -> float:
        """Blended per-op latency; NUMA-unaware placement pays the remote
        premium on the fraction of accesses served by non-home nodes."""
        topo = self.topology
        base = self.stream_op_ns
        if numa_aware or p <= topo.cores_per_numa:
            return base
        nodes = topo.active_nodes(p)
        remote_fraction = (nodes - 1) / nodes
        premium = (topo.remote_ns - topo.dram_local_ns) / 16.0  # line-amortised
        return base + remote_fraction * premium

    def _atomic_ns(self, p: int, counter_entries: int) -> float:
        """Expected cost of one atomic add with p concurrent updaters."""
        topo = self.topology
        lines = max(counter_entries // 8, 1)
        conflict = 1.0 - (1.0 - min(p / lines, 1.0)) ** max(p - 1, 0)
        return topo.atomic_base_ns + conflict * topo.atomic_conflict_ns

    def _barrier_ns(self, p: int) -> float:
        return self.topology.barrier_ns * math.log2(p + 1)

    # ------------------------------------------------------------- kernels
    def sampling_time_s(self, profile: RunProfile, p: int) -> float:
        """Generate_RRRsets: real per-set costs, real scheduling policy."""
        self._check_p(p)
        costs = profile.per_set_costs
        if costs.size == 0:
            return 0.0
        sched = simulate_schedule(costs, p, policy=profile.sampling_schedule)
        op_ns = self._op_ns(profile.numa_aware, p)
        compute_s = sched.makespan * op_ns * 1e-9
        total_bytes = float(costs.sum()) * 8.0
        # Graph reads are interleaved for both frameworks (the input layout),
        # so sampling bandwidth scales with the active nodes in both.
        bw = self._bandwidth(p, numa_aware=True)
        mem_s = total_bytes / bw
        return max(compute_s, mem_s) + self._barrier_ns(p) * 1e-9

    def selection_time_s(self, profile: RunProfile, p: int) -> float:
        """Find_Most_Influential_Set from the A + B*p decomposition."""
        self._check_p(p)
        kc = profile.selection
        if kc is None:
            raise SimulationError("profile has no selection cost; run profile_pair")
        imb = self._imbalance(profile, p)
        per_thread_ops = (kc.partitioned_ops / p) * imb + kc.replicated_ops
        op_ns = self._op_ns(profile.numa_aware, p)
        compute_s = per_thread_ops * op_ns * 1e-9
        total_bytes = (kc.partitioned_ops + kc.replicated_ops * p) * kc.bytes_per_op
        bw = self._bandwidth(p, profile.numa_aware)
        mem_s = total_bytes / bw
        atomic_s = (kc.atomic_ops / p) * self._atomic_ns(p, profile.n) * 1e-9
        serial_s = kc.serial_ops_per_round * kc.rounds * p * 2.0 * 1e-9
        barrier_s = kc.rounds * 2 * self._barrier_ns(p) * 1e-9
        return max(compute_s, mem_s) + atomic_s + serial_s + barrier_s

    def gather_time_s(self, profile: RunProfile, p: int) -> float:
        """Ripples' redistribution: all entries funnel through one node."""
        if profile.gather_bytes <= 0.0:
            return 0.0
        bw = self._bandwidth(p, numa_aware=False)
        return profile.gather_bytes / bw + self._barrier_ns(p) * 1e-9

    def total_time_s(self, profile: RunProfile, p: int) -> dict[str, float]:
        """Stage breakdown of the whole run at p threads (Figure 2's bars)."""
        stages = {
            "Generate_RRRsets": self.sampling_time_s(profile, p),
            "Find_Most_Influential_Set": self.selection_time_s(profile, p),
            "Other": self.gather_time_s(profile, p),
        }
        stages["Total"] = sum(
            v for k, v in stages.items() if k != "Total"
        )
        return stages

    def scaling_curve(
        self,
        profile: RunProfile,
        thread_counts: list[int] | None = None,
        *,
        label: str | None = None,
    ) -> ScalingCurve:
        """time(p) for the whole run across a thread sweep."""
        if thread_counts is None:
            thread_counts = [1, 2, 4, 8, 16, 32, 64, 128]
        thread_counts = [
            p for p in thread_counts if 1 <= p <= self.topology.num_cores
        ]
        times = []
        stages = {}
        for p in thread_counts:
            st = self.total_time_s(profile, p)
            stages[p] = st
            times.append(st["Total"])
        return ScalingCurve(
            label=label or f"{profile.framework}/{profile.dataset}/{profile.model}",
            thread_counts=tuple(thread_counts),
            times_s=tuple(times),
            stages=stages,
        )

    # ------------------------------------------------------------- helpers
    def _imbalance(self, profile: RunProfile, p: int) -> float:
        """Makespan inflation of a static block partition of the sets."""
        sizes = profile.per_set_costs
        if sizes.size == 0 or p == 1:
            return 1.0
        sched = simulate_schedule(sizes, p, policy="static")
        return max(sched.imbalance, 1.0)

    def _check_p(self, p: int) -> None:
        if not (1 <= p <= self.topology.num_cores):
            raise ParameterError(
                f"p={p} outside [1, {self.topology.num_cores}] for "
                f"{self.topology.name}"
            )


def profile_pair(
    graph,
    dataset: str,
    model: str,
    *,
    k: int = 50,
    epsilon: float = 0.5,
    theta_cap: int | None = 2000,
    seed: int = 0,
) -> dict[str, RunProfile]:
    """Profile **both** frameworks from one shared sampling pass.

    The RRR sets a run draws depend only on the diffusion model and seed,
    not on the framework, so one pass is sampled and priced per framework
    with :meth:`~repro.core.sampling.RRRSampler.costs`; each framework's
    selection kernel then runs (really) at p=1 and p=2 on the shared store
    (:meth:`KernelCost.measure`).  Returns ``{"Ripples": ...,
    "EfficientIMM": ...}``.
    """
    from repro.core.martingale import MartingaleSchedule
    from repro.core.sampling import (
        RRRSampler, SamplingConfig, modelled_store_bytes,
    )
    from repro.core.selection import efficient_select, ripples_select
    from repro.diffusion.base import get_model

    efficient = SamplingConfig.efficientimm(num_threads=1)
    sampler = RRRSampler(get_model(model, graph), efficient, seed=seed)
    store = sampler.store

    def select(p: int) -> SelectionResult:
        return efficient_select(store, k, p, initial_counter=sampler.counter)

    # Run the real estimation loop so theta reflects the workload's actual
    # coverage dynamics (LT's tiny path-sets drive theta orders of magnitude
    # above IC's, exactly as §III observes), bounded by theta_cap.
    sched = MartingaleSchedule.for_run(graph.num_vertices, k, epsilon, 1.0)
    _, theta, _ = sched.certify(
        lambda theta_i, _level: sampler.extend(theta_i),
        lambda _level: select(1).coverage_fraction,
        theta_cap,
    )
    sampler.extend(theta)

    out: dict[str, RunProfile] = {}
    for framework, config, select_at in (
        ("Ripples", SamplingConfig.ripples(), lambda p: ripples_select(store, k, p)),
        ("EfficientIMM", efficient, select),
    ):
        ripples = framework == "Ripples"
        cost, _ = KernelCost.measure(select_at)
        out[framework] = RunProfile(
            framework=framework,
            dataset=dataset,
            model=model,
            n=graph.num_vertices,
            num_sets=len(store),
            total_entries=store.total_entries,
            per_set_costs=sampler.costs(config),
            sampling_schedule=config.schedule,
            numa_aware=not ripples,
            selection=cost,
            gather_bytes=store.total_entries * 8.0 if ripples else 0.0,
            store_bytes=modelled_store_bytes(
                store.sizes(), graph.num_vertices, config.adaptive_policy
            ),
        )
    return out
