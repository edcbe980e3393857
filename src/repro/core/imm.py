"""The IMM driver: Algorithm 1 (sampling phase + selection phase).

Shared by both facades; the framework-specific behaviour is injected through
the :class:`~repro.core.sampling.SamplingConfig` and a selection callable.

The control flow is Tang et al.'s (and Ripples'):

1. **Estimation loop** (:meth:`MartingaleSchedule.certify
   <repro.core.martingale.MartingaleSchedule.certify>`) — for levels
   ``i = 1 .. log2(n)-1``: grow the RRR store to ``theta_i = lambda' /
   (n / 2^i)`` sets, run the greedy selection, and stop as soon as
   ``n F(S) >= (1 + eps') * n / 2^i``; this certifies the OPT lower bound
   ``LB = n F(S) / (1 + eps')``.
2. **Top-up** — compute ``theta = lambda* / LB``; if more sets are needed,
   generate them (reusing everything already sampled — the martingale
   argument is what makes this reuse sound).
3. **Selection phase** — one final greedy over all theta sets.

``params.theta_cap`` bounds both phases for test/bench workloads; when it
binds, the run is flagged (``theta_capped``) so accuracy-sensitive callers
can tell.

Resilience (docs/resilience.md): every ``sampler.extend`` call is one
*sampling batch*, numbered from 0 in driver order (estimation levels, then
the top-up).  A :class:`~repro.resilience.checkpoint.SamplingCheckpointer`
snapshots the sampler after each completed batch; ``resume=True`` restores
the latest snapshot before the loop, after which the already-sampled
batches replay as no-ops (``extend`` targets a set *count*, which the
restored store already meets) and sampling continues at the next set index
— yielding byte-identical seeds to an uninterrupted run.  A
:class:`~repro.resilience.faults.FaultPlan` fires ``batch``-scoped faults
just before each batch runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Protocol

import numpy as np

from repro import telemetry
from repro._util import StageTimes
from repro.core.martingale import MartingaleSchedule
from repro.core.params import IMMParams, IMMResult
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.core.selection import SelectionResult
from repro.diffusion.base import get_model
from repro.graph.csr import CSRGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.checkpoint import SamplingCheckpointer
    from repro.resilience.faults import FaultPlan

__all__ = ["run_imm", "SelectFn"]


class SelectFn(Protocol):
    """Signature of a selection kernel as the driver invokes it."""

    def __call__(
        self,
        store,
        k: int,
        num_threads: int,
        initial_counter: np.ndarray | None,
    ) -> SelectionResult: ...


def run_imm(
    graph: CSRGraph,
    params: IMMParams,
    sampling_config: SamplingConfig,
    select_fn: SelectFn,
    *,
    gather_before_select: bool = False,
    framework: str = "IMM",
    checkpointer: "SamplingCheckpointer | None" = None,
    resume: bool = False,
    fault_plan: "FaultPlan | None" = None,
) -> IMMResult:
    """Execute Algorithm 1 and return a fully populated :class:`IMMResult`.

    ``gather_before_select=True`` charges Ripples' redistribution step (every
    stored entry copied once) ahead of each selection; EfficientIMM's fused,
    partition-local pipeline skips it.  ``framework`` labels the telemetry
    spans/metrics this run emits (docs/observability.md).

    ``checkpointer`` snapshots the sampler after every completed sampling
    batch; ``resume=True`` restores its latest snapshot first (no-op when
    none exists).  ``fault_plan`` fires ``batch``-scoped faults at the
    batch boundaries (docs/resilience.md).
    """
    tel = telemetry.get()
    with tel.span(
        "imm.run", framework=framework, model=params.model,
        k=params.k, epsilon=params.epsilon, num_threads=params.num_threads,
    ):
        result = _run_imm_inner(
            graph, params, sampling_config, select_fn, gather_before_select,
            tel, checkpointer, resume, fault_plan,
        )
    if tel.enabled:
        _record_imm_telemetry(tel, result, framework)
    return result


def _run_imm_inner(
    graph: CSRGraph,
    params: IMMParams,
    sampling_config: SamplingConfig,
    select_fn: SelectFn,
    gather_before_select: bool,
    tel,
    checkpointer: "SamplingCheckpointer | None" = None,
    resume: bool = False,
    fault_plan: "FaultPlan | None" = None,
) -> IMMResult:
    n = graph.num_vertices
    times = StageTimes()
    model = get_model(params.model, graph)
    sched = MartingaleSchedule.for_run(n, params.k, params.epsilon, params.ell)
    sampler = RRRSampler(model, sampling_config, seed=params.seed)

    restored_batch: int | None = None
    if checkpointer is not None and resume:
        restored_batch = checkpointer.restore(sampler)

    # Batches are numbered in driver order regardless of resume, so a fault
    # spec like crash@batch:2 and a checkpoint's batch_index always refer to
    # the same extend call.  Replayed batches (index <= restored) are no-op
    # extends — the restored store already meets their target — and skip the
    # redundant checkpoint write.
    batch_index = -1

    def sample_batch(target: int) -> None:
        nonlocal batch_index
        batch_index += 1
        if fault_plan is not None:
            fault_plan.invoke("batch", batch_index, lambda: None)
        sampler.extend(target)
        if checkpointer is not None and (
            restored_batch is None or batch_index > restored_batch
        ):
            checkpointer.save(sampler, batch_index)

    sel_stats = None

    def select(**span) -> SelectionResult:
        nonlocal sel_stats
        if gather_before_select:
            # Ripples' redistribution: every stored entry copied once.
            per_thread = sampler.gather_cost() / sampling_config.num_threads
            st = sampler.stats
            st.loads += per_thread / 2.0
            st.stores += per_thread / 2.0
            st.sync_barriers += 1
        with times.measure("Find_Most_Influential_Set"), tel.span(
            "imm.selection", **span
        ):
            selection = select_fn(
                sampler.store, params.k, params.num_threads,
                sampler.counter if sampling_config.fused else None,
            )
        sel_stats = (
            selection.stats if sel_stats is None
            else sel_stats.merge(selection.stats)
        )
        return selection

    def estimation_sample(theta_i: int, level: int) -> None:
        if tel.enabled:
            tel.registry.counter("imm.martingale_rounds").inc()
        with times.measure("Generate_RRRsets"), tel.span(
            "imm.sampling", phase="estimation", level=level, theta=theta_i
        ):
            sample_batch(theta_i)

    # ------------------------------------------------- 1. estimation loop
    lb, theta, theta_capped = sched.certify(
        estimation_sample,
        lambda level: select(phase="estimation", level=level).coverage_fraction,
        params.theta_cap,
    )

    # --------------------------------------------------------- 2. top-up
    if len(sampler.store) < theta:
        with times.measure("Generate_RRRsets"), tel.span(
            "imm.sampling", phase="top_up", theta=theta
        ):
            sample_batch(theta)

    # ----------------------------------------------- 3. selection phase
    final = select(phase="final")

    return IMMResult(
        seeds=final.seeds.copy(),
        params=params,
        theta=theta,
        num_rrrsets=len(sampler.store),
        coverage_fraction=final.coverage_fraction,
        opt_lower_bound=lb,
        times=times,
        stats={
            "Generate_RRRsets": sampler.stats,
            "Find_Most_Influential_Set": sel_stats,
        },
        rrr_store_bytes=sampler.modelled_bytes(),
        spread_estimate=n * final.coverage_fraction,
        theta_capped=theta_capped,
    )


def _record_imm_telemetry(tel, result: IMMResult, framework: str) -> None:
    """Project one finished run onto the unified schema.

    The gauges here are what the golden telemetry test cross-checks against
    the :class:`IMMResult` (theta, RRR-set count, seed count), and the
    kernel/phase bridges expose the same numbers the simulated-machine
    experiments consume — one schema for simulated and real runs.
    """
    reg = tel.registry
    reg.counter("imm.runs").inc()
    reg.counter(f"imm.runs.{framework.lower()}").inc()
    reg.gauge("imm.theta").set(result.theta)
    reg.gauge("imm.num_rrrsets").set(result.num_rrrsets)
    reg.gauge("imm.k").set(result.params.k)
    reg.gauge("imm.num_seeds").set(int(result.seeds.size))
    reg.gauge("imm.coverage_fraction").set(result.coverage_fraction)
    reg.gauge("imm.opt_lower_bound").set(result.opt_lower_bound)
    reg.gauge("imm.spread_estimate").set(result.spread_estimate)
    reg.gauge("imm.rrr_store_bytes").set(result.rrr_store_bytes)
    telemetry.record_stage_times(reg, result.times)
    for kernel, stats in result.stats.items():
        telemetry.record_kernel_stats(reg, kernel, stats)
