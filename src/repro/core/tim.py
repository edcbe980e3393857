"""TIM: Two-phase Influence Maximization (Tang et al., SIGMOD 2014).

IMM's direct predecessor and the natural third point on the lineage this
repository covers (TIM -> IMM -> EfficientIMM).  TIM introduced the
RIS-based two-phase structure — estimate how many RRR sets are needed,
then sample and greedily cover — but bounds the sample size through
**KPT**, the expected spread of a *single* random vertex, instead of IMM's
martingale-certified OPT lower bound.  That makes TIM's theta looser
(typically several times larger than IMM's for the same guarantee), which
is precisely the improvement IMM demonstrated; the comparison bench makes
the gap measurable.

Implemented per the SIGMOD'14 paper:

- **KPT estimation** (their Algorithm 2): for rounds ``i = 1 ..
  log2(n) - 1``, draw ``c_i = ceil((6 l ln n + 6 ln log2 n) 2^i)`` RRR
  sets; for each set ``R`` compute ``kappa(R) = 1 - (1 - w(R)/m)^k`` with
  ``w(R)`` the number of edges entering ``R``; accept round ``i`` when the
  mean kappa exceeds ``1 / 2^i``, yielding ``KPT* = n * mean / 2``.
- **theta** = ``lambda / KPT*`` with
  ``lambda = (8 + 2 eps) n (l ln n + ln C(n,k) + ln 2) / eps^2``.
- **Node selection**: the same greedy max-cover kernel as the rest of the
  repository (:func:`~repro.core.selection.efficient_select`), so quality
  differences are attributable to theta alone.

The TIM+ intermediate refinement step (their §5) is intentionally omitted:
it was superseded by IMM's estimation loop, which this repository already
implements in full.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro._util import StageTimes
from repro.core.martingale import log_choose
from repro.core.params import IMMParams
from repro.core.sampling import RRRSampler, SamplingConfig
from repro.core.selection import efficient_select
from repro.diffusion.base import get_model
from repro.errors import ParameterError
from repro.graph.csr import CSRGraph

__all__ = ["TIMResult", "run_tim", "estimate_kpt"]


@dataclass
class TIMResult:
    """Seeds plus TIM's internal estimates."""

    seeds: np.ndarray
    kpt: float
    theta: int
    num_rrrsets: int
    coverage_fraction: float
    spread_estimate: float
    times: StageTimes = field(default_factory=StageTimes)
    theta_capped: bool = False

    def summary(self) -> str:
        return (
            f"TIM k={self.seeds.size} KPT={self.kpt:,.1f} "
            f"theta={self.theta:,} sets={self.num_rrrsets:,} "
            f"sigma~={self.spread_estimate:,.0f}"
        )


def estimate_kpt(
    graph: CSRGraph,
    sampler: RRRSampler,
    k: int,
    ell: float,
    *,
    theta_cap: int | None = None,
) -> float:
    """TIM's Algorithm 2: KPT* from the kappa statistic of random RRR sets.

    Consumes sets from ``sampler`` (growing it as needed), so a subsequent
    sampling phase reuses everything drawn here.
    """
    n, m = graph.num_vertices, graph.num_edges
    if m == 0 or n < 2:
        return 1.0
    indeg = np.bincount(graph.indices, minlength=n).astype(np.float64)
    log_n = math.log(n)
    loglog = math.log(max(math.log2(n), 1.0 + 1e-9))
    base = 6.0 * ell * log_n + 6.0 * loglog
    max_rounds = max(int(math.log2(n)) - 1, 1)

    consumed = 0
    for i in range(1, max_rounds + 1):
        c_i = int(math.ceil(base * (2.0**i)))
        if theta_cap is not None:
            c_i = min(c_i, theta_cap)
        sampler.extend(consumed + c_i)
        kappa_sum = 0.0
        for j in range(consumed, consumed + c_i):
            width = float(indeg[sampler.store.get(j)].sum())
            kappa_sum += 1.0 - (1.0 - width / m) ** k
        consumed += c_i
        mean_kappa = kappa_sum / c_i
        if mean_kappa > 1.0 / (2.0**i):
            return max(n * mean_kappa / 2.0, 1.0)
        if theta_cap is not None and consumed >= theta_cap:
            return max(n * mean_kappa / 2.0, 1.0)
    return 1.0


def run_tim(graph: CSRGraph, params: IMMParams | None = None) -> TIMResult:
    """Run two-phase TIM under the shared parameter object."""
    params = params or IMMParams()
    n = graph.num_vertices
    if params.k > n:
        raise ParameterError(f"k={params.k} exceeds vertex count {n}")
    times = StageTimes()
    model = get_model(params.model, graph)
    sampler = RRRSampler(
        model, SamplingConfig.efficientimm(), seed=params.seed
    )

    with times.measure("KPT_Estimation"):
        kpt = estimate_kpt(
            graph, sampler, params.k, params.ell, theta_cap=params.theta_cap
        )

    log_n = math.log(max(n, 2))
    lam = (
        (8.0 + 2.0 * params.epsilon)
        * n
        * (params.ell * log_n + log_choose(n, params.k) + math.log(2.0))
        / (params.epsilon**2)
    )
    theta_ideal = int(math.ceil(lam / kpt))
    theta = theta_ideal
    capped = False
    if params.theta_cap is not None and theta > params.theta_cap:
        theta = params.theta_cap
        capped = True

    with times.measure("Generate_RRRsets"):
        sampler.extend(max(theta, len(sampler.store)))
    with times.measure("Find_Most_Influential_Set"):
        sel = efficient_select(
            sampler.store, params.k, params.num_threads,
            initial_counter=sampler.counter,
        )
    return TIMResult(
        seeds=sel.seeds.copy(),
        kpt=kpt,
        theta=theta_ideal,
        num_rrrsets=len(sampler.store),
        coverage_fraction=sel.coverage_fraction,
        spread_estimate=n * sel.coverage_fraction,
        times=times,
        theta_capped=capped,
    )
