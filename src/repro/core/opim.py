"""OPIM-C: online processing influence maximization (Tang et al., SIGMOD'18).

The related-work section (§VI) singles out OPIM as the IMM variant that
"enabl[es] early termination of sampling when influence coverage is
sufficient, which improves performance in resource-constrained scenarios".
This module implements OPIM-C on top of the same sampling and selection
kernels as the IMM facades, so the two approaches are directly comparable
(see ``benchmarks/bench_opim_ablation.py``).

Algorithm sketch (SIGMOD'18, Alg. 3):

1. Maintain two *independent* RRR collections, ``R1`` (selection) and
   ``R2`` (validation), of equal size.
2. Per iteration: double both collections; greedily select ``S`` from
   ``R1``; then compute
   - a **lower** bound on ``sigma(S)`` from S's coverage on the held-out
     ``R2`` (Chernoff-style; S never saw R2, so the bound is honest), and
   - an **upper** bound on ``OPT`` from S's coverage on ``R1`` inflated by
     the greedy guarantee (``Lambda1 / (1 - 1/e)``);
3. Stop once ``lower / upper >= 1 - 1/e - epsilon``: the seed set is
   certified without having sampled IMM's worst-case theta.

The bounds below are the paper's (their eq. (6)/(7)), with
``a = ln(3 * i_max / delta)`` split across iterations by a union bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro._util import StageTimes
from repro.core.params import IMMParams
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.core.selection import efficient_select
from repro.diffusion.base import get_model
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph

__all__ = ["OPIMResult", "run_opim", "coverage_of_seeds"]

_E_FACTOR = 1.0 - 1.0 / math.e


@dataclass
class OPIMResult:
    """Seeds plus the certification trace of the online run."""

    seeds: np.ndarray
    approx_guarantee: float  # certified sigma_l / sigma_u at termination
    num_rrrsets: int  # total across R1 + R2
    iterations: int
    spread_lower_bound: float
    opt_upper_bound: float
    times: StageTimes = field(default_factory=StageTimes)
    certified: bool = True

    def summary(self) -> str:
        return (
            f"OPIM-C k={self.seeds.size} sets={self.num_rrrsets:,} "
            f"iters={self.iterations} ratio={self.approx_guarantee:.3f} "
            f"sigma>={self.spread_lower_bound:,.0f}"
        )


def coverage_of_seeds(store, seeds: np.ndarray) -> int:
    """Number of sets in ``store`` hit by ``seeds`` (Lambda(S); exact)."""
    seed_set = set(int(s) for s in np.asarray(seeds).ravel())
    hit = 0
    for s in store:
        for v in s.tolist():
            if v in seed_set:
                hit += 1
                break
    return hit


def _sigma_lower(n: int, theta: int, coverage: int, a: float) -> float:
    """Lower bound on sigma(S) from held-out coverage (OPIM eq. (6))."""
    if theta == 0:
        return 0.0
    lam = float(coverage)
    inner = math.sqrt(lam + 2.0 * a / 9.0) - math.sqrt(a / 2.0)
    # sigma(S) >= 0 always holds, so clamp the concentration bound there.
    return max((max(inner, 0.0) ** 2 - a / 18.0) * n / theta, 0.0)


def _opt_upper(n: int, theta: int, coverage: int, a: float) -> float:
    """Upper bound on OPT via the greedy guarantee (OPIM eq. (7))."""
    if theta == 0:
        return float(n)
    lam_ub = float(coverage) / _E_FACTOR
    return (math.sqrt(lam_ub + a / 2.0) + math.sqrt(a / 2.0)) ** 2 * n / theta


def run_opim(
    graph: CSRGraph,
    params: IMMParams | None = None,
    *,
    delta: float | None = None,
    initial_theta: int = 64,
    max_iterations: int = 24,
) -> OPIMResult:
    """Run OPIM-C under ``params`` (same parameter object as the facades).

    ``delta`` is the failure probability (default ``1/n``, matching IMM's
    ``ell=1``); ``params.theta_cap`` bounds each collection's size, and a
    run that exhausts the cap returns uncertified best-effort seeds
    (``certified=False``) rather than sampling forever.
    """
    params = params or IMMParams()
    n = graph.num_vertices
    if params.k > n:
        raise ParameterError(f"k={params.k} exceeds vertex count {n}")
    delta = delta if delta is not None else 1.0 / max(n, 2)
    if not (0.0 < delta < 1.0):
        raise ParameterError(f"delta must be in (0, 1), got {delta}")
    times = StageTimes()

    # Two independent collections: separate models (scratch) and separate
    # deterministic streams.
    model1 = get_model(params.model, graph)
    model2 = get_model(params.model, graph)
    r1 = RRRSampler(
        model1, SamplingConfig.efficientimm(), seed=params.seed
    )
    r2 = RRRSampler(
        model2,
        SamplingConfig.efficientimm(),
        seed=params.seed + 0x5EED,
    )
    a_total = math.log(3.0 * max_iterations / delta)
    target = _E_FACTOR - params.epsilon

    theta = initial_theta
    seeds = np.empty(0, dtype=np.int64)
    lower = 0.0
    upper = float(n)
    for iteration in range(1, max_iterations + 1):
        if params.theta_cap is not None:
            theta = min(theta, params.theta_cap)
        with times.measure("Generate_RRRsets"):
            r1.extend(theta)
            r2.extend(theta)
        with times.measure("Find_Most_Influential_Set"):
            sel = efficient_select(
                r1.store, params.k, params.num_threads,
                initial_counter=r1.counter,
            )
        seeds = sel.seeds.copy()
        with times.measure("Bound_Estimation"):
            cov1 = int(round(sel.coverage_fraction * len(r1.store)))
            cov2 = coverage_of_seeds(r2.store, seeds)
            lower = _sigma_lower(n, len(r2.store), cov2, a_total)
            upper = _opt_upper(n, len(r1.store), cov1, a_total)
        ratio = lower / upper if upper > 0 else 0.0
        if ratio >= target:
            return OPIMResult(
                seeds=seeds,
                approx_guarantee=ratio,
                num_rrrsets=len(r1.store) + len(r2.store),
                iterations=iteration,
                spread_lower_bound=lower,
                opt_upper_bound=upper,
                times=times,
                certified=True,
            )
        if params.theta_cap is not None and theta >= params.theta_cap:
            break
        theta *= 2

    return OPIMResult(
        seeds=seeds,
        approx_guarantee=lower / upper if upper > 0 else 0.0,
        num_rrrsets=len(r1.store) + len(r2.store),
        iterations=min(max_iterations, iteration),
        spread_lower_bound=lower,
        opt_upper_bound=upper,
        times=times,
        certified=False,
    )
