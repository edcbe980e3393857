"""Martingale-based sample-size (theta) estimation from Tang et al. (2015).

IMM's statistical core: how many RRR sets are enough for the greedy
max-cover over them to be a ``(1 - 1/e - epsilon)``-approximation of the
influence-maximisation optimum with probability ``>= 1 - n**(-ell)``.

Implemented formulas (SIGMOD'15 paper, §4; notation preserved):

- ``log C(n, k)`` computed stably via lgamma;
- ``ell' = ell * (1 + log 2 / log n)`` — the union-bound adjustment that
  accounts for the extra failure probability of the estimation phase;
- ``epsilon' = sqrt(2) * epsilon``;
- ``lambda' = (2 + 2/3 eps') * (logcnk + ell log n + log log2(n)) * n / eps'^2``
  — the per-level sample requirement of the estimation loop;
- ``alpha = sqrt(ell log n + log 2)``,
  ``beta = sqrt((1 - 1/e) * (logcnk + ell log n + log 2))``,
  ``lambda* = 2 n ((1 - 1/e) alpha + beta)^2 / eps^2`` — the final
  requirement given the OPT lower bound;
- the estimation loop's acceptance test ``n F(S) / theta_i >= (1 + eps') x``
  and the resulting bound ``LB = n F(S) / theta_i / (1 + eps')``.

Every function is pure so the property tests can probe monotonicity
(theta decreasing in epsilon, increasing in k and n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro._util import check_fraction, check_positive_int
from repro.errors import ParameterError

__all__ = [
    "log_choose",
    "adjusted_ell",
    "lambda_prime",
    "lambda_star",
    "estimation_levels",
    "level_theta",
    "accepts_level",
    "lower_bound_from_level",
    "final_theta",
    "MartingaleSchedule",
]


def log_choose(n: int, k: int) -> float:
    """``log C(n, k)`` via lgamma; exact domain checks."""
    n = check_positive_int("n", n)
    k = int(k)
    if not (0 <= k <= n):
        raise ParameterError(f"k={k} outside [0, n={n}]")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def adjusted_ell(ell: float, n: int) -> float:
    """``ell' = ell * (1 + log 2 / log n)``: inflates the failure exponent so
    the estimation phase's extra union bound still leaves ``1 - n**-ell``."""
    if n < 2:
        return ell
    return ell * (1.0 + math.log(2.0) / math.log(n))


def lambda_prime(n: int, k: int, ell: float, epsilon: float) -> float:
    """Per-level sample requirement of the OPT-estimation loop."""
    check_fraction("epsilon", epsilon)
    eps_p = math.sqrt(2.0) * epsilon
    logcnk = log_choose(n, k)
    log_n = math.log(max(n, 2))
    loglog = math.log(max(math.log2(max(n, 2)), 1.0))
    return (
        (2.0 + 2.0 / 3.0 * eps_p)
        * (logcnk + ell * log_n + loglog)
        * n
        / (eps_p * eps_p)
    )


def lambda_star(n: int, k: int, ell: float, epsilon: float) -> float:
    """Final sample requirement ``lambda*`` (given an OPT lower bound LB,
    ``theta = lambda* / LB``)."""
    check_fraction("epsilon", epsilon)
    logcnk = log_choose(n, k)
    log_n = math.log(max(n, 2))
    e_inv = 1.0 - 1.0 / math.e
    alpha = math.sqrt(ell * log_n + math.log(2.0))
    beta = math.sqrt(e_inv * (logcnk + ell * log_n + math.log(2.0)))
    return 2.0 * n * (e_inv * alpha + beta) ** 2 / (epsilon * epsilon)


def estimation_levels(n: int) -> int:
    """Number of halving levels the estimation loop may need:
    ``log2(n) - 1`` (at least 1)."""
    return max(int(math.log2(max(n, 2))) - 1, 1)


def level_theta(n: int, k: int, ell: float, epsilon: float, level: int) -> int:
    """``theta_i = lambda' / x_i`` with ``x_i = n / 2**level`` (level >= 1)."""
    if level < 1:
        raise ParameterError(f"level must be >= 1, got {level}")
    x = n / float(2**level)
    return int(math.ceil(lambda_prime(n, k, ell, epsilon) / x))


def accepts_level(
    n: int, epsilon: float, level: int, coverage_fraction: float, theta_i: int
) -> bool:
    """The estimation loop's stopping test:
    ``n * F(S) >= (1 + eps') * x_i`` (F measured over theta_i sets)."""
    eps_p = math.sqrt(2.0) * epsilon
    x = n / float(2**level)
    del theta_i  # the fraction already normalises by theta_i
    return n * coverage_fraction >= (1.0 + eps_p) * x


def lower_bound_from_level(
    n: int, epsilon: float, coverage_fraction: float
) -> float:
    """``LB = n * F(S) / (1 + eps')`` — the certified OPT lower bound."""
    eps_p = math.sqrt(2.0) * epsilon
    return n * coverage_fraction / (1.0 + eps_p)


def final_theta(n: int, k: int, ell: float, epsilon: float, lb: float) -> int:
    """``theta = ceil(lambda* / LB)``."""
    if lb <= 0:
        raise ParameterError(f"OPT lower bound must be positive, got {lb}")
    return int(math.ceil(lambda_star(n, k, ell, epsilon) / lb))


@dataclass(frozen=True)
class MartingaleSchedule:
    """Precomputed schedule for one run: adjusted ell and both lambdas.

    Bundles the constants so the driver computes them once; ``ell`` here is
    already the *adjusted* ell'.
    """

    n: int
    k: int
    epsilon: float
    ell: float
    lambda_prime_: float
    lambda_star_: float

    @classmethod
    def for_run(cls, n: int, k: int, epsilon: float, ell: float) -> "MartingaleSchedule":
        if k > n:
            raise ParameterError(f"k={k} exceeds the vertex count n={n}")
        ell_adj = adjusted_ell(ell, n)
        return cls(
            n=n,
            k=k,
            epsilon=epsilon,
            ell=ell_adj,
            lambda_prime_=lambda_prime(n, k, ell_adj, epsilon),
            lambda_star_=lambda_star(n, k, ell_adj, epsilon),
        )

    def theta_for_level(self, level: int) -> int:
        x = self.n / float(2**level)
        return int(math.ceil(self.lambda_prime_ / x))

    def accepts(self, level: int, coverage_fraction: float) -> bool:
        return accepts_level(self.n, self.epsilon, level, coverage_fraction, 0)

    def lower_bound(self, coverage_fraction: float) -> float:
        return lower_bound_from_level(self.n, self.epsilon, coverage_fraction)

    def theta_final(self, lb: float) -> int:
        return final_theta(self.n, self.k, self.ell, self.epsilon, lb)

    @property
    def max_level(self) -> int:
        return estimation_levels(self.n)

    def certify(
        self,
        sample: Callable[[int, int], None],
        coverage: Callable[[int], float],
        theta_cap: int | None = None,
    ) -> tuple[float, int, bool]:
        """Algorithm 1's estimation loop: the one loop every IMM run uses.

        At each level ``i = 1 .. max_level``, ``sample(theta_i, i)`` grows
        the caller's RRR sets to ``theta_i`` (bounded by ``theta_cap``) and
        ``coverage(i)`` returns the greedy coverage fraction F(S) over them.
        The loop stops at the first level passing ``n F(S) >= (1 + eps')
        x_i``, or at the first whose ``theta_i`` reached the cap.  Returns
        ``(LB, theta, capped)``: ``theta = lambda* / LB`` bounded by
        ``theta_cap``, and whether the cap bound it.  The top-up to theta
        is the caller's.
        """

        def cap(theta: int) -> int:
            return theta if theta_cap is None else min(theta, theta_cap)

        lb = 1.0
        for level in range(1, self.max_level + 1):
            theta_i = cap(self.theta_for_level(level))
            sample(theta_i, level)
            fraction = coverage(level)
            if self.accepts(level, fraction):
                lb = self.lower_bound(fraction)
                break
            if theta_cap is not None and theta_i >= theta_cap:
                # The cap bound the level; certify with what we have.
                lb = max(self.lower_bound(fraction), 1.0)
                break
        theta = self.theta_final(lb)
        return lb, cap(theta), theta_cap is not None and theta > theta_cap
