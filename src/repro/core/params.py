"""Run parameters and result records shared by every IMM implementation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro._util import StageTimes, check_fraction, check_positive_int
from repro.errors import ParameterError

__all__ = ["IMMParams", "KernelStats", "IMMResult"]


@dataclass(frozen=True)
class IMMParams:
    """Parameters of one IMM run (paper defaults: ``k=50``, ``epsilon=0.5``).

    Attributes
    ----------
    k:
        Seed-set budget |S|.
    epsilon:
        Approximation quality; the returned set is a
        ``(1 - 1/e - epsilon)``-approximation w.p. ``>= 1 - 1/n**ell``.
    ell:
        Failure-probability exponent (Tang et al.'s l, default 1).
    model:
        Diffusion model name, ``"IC"`` or ``"LT"``.
    seed:
        RNG seed; every implementation is deterministic given it.
    num_threads:
        The *emulated* thread count p: kernels execute the exact p-thread
        work program serially and report per-thread statistics, which the
        simulated machine turns into parallel time (DESIGN.md).
    theta_cap:
        Optional hard cap on the number of RRR sets, used by tests and
        benchmarks to bound runtime; ``None`` (default) is the faithful
        uncapped algorithm.
    """

    k: int = 50
    epsilon: float = 0.5
    ell: float = 1.0
    model: str = "IC"
    seed: int = 0
    num_threads: int = 1
    theta_cap: int | None = None

    def __post_init__(self) -> None:
        check_positive_int("k", self.k)
        check_fraction("epsilon", self.epsilon)
        check_positive_int("num_threads", self.num_threads)
        if self.ell <= 0:
            raise ParameterError(f"ell must be positive, got {self.ell}")
        if self.model.upper() not in ("IC", "LT"):
            raise ParameterError(f"model must be 'IC' or 'LT', got {self.model!r}")
        if self.theta_cap is not None and self.theta_cap < 1:
            raise ParameterError(f"theta_cap must be >= 1, got {self.theta_cap}")


@dataclass
class KernelStats:
    """Per-thread operation counts emitted by every kernel.

    These are the quantities the simulated machine prices: array element
    loads/stores, atomic updates, binary-search probes, and generic compute
    operations, each as a length-``num_threads`` vector so load imbalance is
    visible.  ``serial_ops`` counts work on the critical section /
    single-thread path (e.g. Ripples' merge of thread-local counters), which
    is what produces its Amdahl saturation.
    """

    num_threads: int
    loads: np.ndarray = field(default=None)  # type: ignore[assignment]
    stores: np.ndarray = field(default=None)  # type: ignore[assignment]
    atomics: np.ndarray = field(default=None)  # type: ignore[assignment]
    compute: np.ndarray = field(default=None)  # type: ignore[assignment]
    serial_ops: float = 0.0
    sync_barriers: int = 0

    def __post_init__(self) -> None:
        for name in ("loads", "stores", "atomics", "compute"):
            if getattr(self, name) is None:
                setattr(self, name, np.zeros(self.num_threads, dtype=np.float64))

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Accumulate another kernel's stats (thread counts must match)."""
        if other.num_threads != self.num_threads:
            raise ParameterError("cannot merge stats across thread counts")
        self.loads += other.loads
        self.stores += other.stores
        self.atomics += other.atomics
        self.compute += other.compute
        self.serial_ops += other.serial_ops
        self.sync_barriers += other.sync_barriers
        return self

    @property
    def total_memory_ops(self) -> float:
        return float(self.loads.sum() + self.stores.sum() + self.atomics.sum())

    def per_thread_ops(self) -> np.ndarray:
        return self.loads + self.stores + self.atomics + self.compute


@dataclass
class IMMResult:
    """Everything one IMM run produced.

    ``coverage_fraction`` is F(S): the fraction of sampled RRR sets the seed
    set intersects; ``n * coverage_fraction`` is IMM's unbiased influence
    estimate.  ``stats`` maps kernel name -> accumulated
    :class:`KernelStats`; ``times`` is the wall-clock stage breakdown.
    ``theta_capped`` says whether ``params.theta_cap`` bound theta below
    the martingale's ``lambda* / LB``.
    """

    seeds: np.ndarray
    params: IMMParams
    theta: int
    num_rrrsets: int
    coverage_fraction: float
    opt_lower_bound: float
    times: StageTimes = field(default_factory=StageTimes)
    stats: dict[str, KernelStats] = field(default_factory=dict)
    rrr_store_bytes: int = 0
    spread_estimate: float = 0.0
    theta_capped: bool = False

    def summary(self) -> str:
        return (
            f"IMM[{self.params.model}] k={self.params.k} "
            f"theta={self.theta:,} sets={self.num_rrrsets:,} "
            f"F(S)={self.coverage_fraction:.3f} "
            f"sigma~={self.spread_estimate:,.0f} "
            f"time={self.times.total:.3f}s"
        )
