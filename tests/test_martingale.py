"""Tests for the Tang et al. martingale math."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.martingale import (
    MartingaleSchedule,
    accepts_level,
    adjusted_ell,
    estimation_levels,
    final_theta,
    lambda_prime,
    lambda_star,
    level_theta,
    log_choose,
    lower_bound_from_level,
)
from repro.errors import ParameterError


class TestLogChoose:
    def test_small_exact(self):
        assert log_choose(5, 2) == pytest.approx(math.log(10))
        assert log_choose(10, 0) == pytest.approx(0.0)
        assert log_choose(10, 10) == pytest.approx(0.0)

    def test_symmetry(self):
        assert log_choose(30, 7) == pytest.approx(log_choose(30, 23))

    def test_large_stable(self):
        # C(1e6, 50) overflows floats; the log form must not.
        val = log_choose(10**6, 50)
        assert 500 < val < 700

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            log_choose(5, 6)
        with pytest.raises(ParameterError):
            log_choose(5, -1)

    @given(st.integers(2, 500), st.integers(0, 500))
    @settings(max_examples=60, deadline=None)
    def test_pascal_recurrence(self, n, k):
        if k > n - 1:
            k = n - 1
        if k < 1:
            return
        # log C(n,k) = log( C(n-1,k-1) + C(n-1,k) )
        lhs = log_choose(n, k)
        a, b = log_choose(n - 1, k - 1), log_choose(n - 1, k)
        rhs = max(a, b) + math.log1p(math.exp(min(a, b) - max(a, b)))
        assert lhs == pytest.approx(rhs, rel=1e-9)


class TestAdjustedEll:
    def test_greater_than_ell(self):
        assert adjusted_ell(1.0, 1000) > 1.0

    def test_converges_for_large_n(self):
        assert adjusted_ell(1.0, 10**9) == pytest.approx(1.0, abs=0.04)

    def test_small_n_passthrough(self):
        assert adjusted_ell(1.0, 1) == 1.0


class TestLambdas:
    def test_lambda_prime_positive(self):
        assert lambda_prime(1000, 50, 1.0, 0.5) > 0

    def test_lambda_star_positive(self):
        assert lambda_star(1000, 50, 1.0, 0.5) > 0

    def test_decreasing_in_epsilon(self):
        hi = lambda_star(1000, 50, 1.0, 0.1)
        lo = lambda_star(1000, 50, 1.0, 0.9)
        assert hi > lo
        assert lambda_prime(1000, 50, 1.0, 0.1) > lambda_prime(1000, 50, 1.0, 0.9)

    def test_increasing_in_k(self):
        assert lambda_star(1000, 100, 1.0, 0.5) > lambda_star(1000, 10, 1.0, 0.5)

    def test_increasing_in_n(self):
        assert lambda_star(10000, 50, 1.0, 0.5) > lambda_star(1000, 50, 1.0, 0.5)

    def test_epsilon_quadratic_scaling(self):
        # lambda* ~ 1/eps^2.
        a = lambda_star(1000, 50, 1.0, 0.25)
        b = lambda_star(1000, 50, 1.0, 0.5)
        assert a / b == pytest.approx(4.0, rel=1e-9)

    @given(
        st.integers(60, 100_000),
        st.integers(1, 50),
        st.floats(0.05, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_both_lambdas_finite_positive(self, n, k, eps):
        assert 0 < lambda_prime(n, k, 1.0, eps) < float("inf")
        assert 0 < lambda_star(n, k, 1.0, eps) < float("inf")


class TestLevels:
    def test_estimation_levels(self):
        assert estimation_levels(1024) == 9
        assert estimation_levels(2) == 1

    def test_level_theta_monotone_in_level(self):
        # Halving x doubles theta_i.
        t1 = level_theta(4096, 10, 1.0, 0.5, 1)
        t2 = level_theta(4096, 10, 1.0, 0.5, 2)
        assert t2 == pytest.approx(2 * t1, rel=0.01)

    def test_level_theta_rejects_level_zero(self):
        with pytest.raises(ParameterError):
            level_theta(100, 5, 1.0, 0.5, 0)

    def test_accepts_level_threshold(self):
        n, eps, level = 1024, 0.5, 2
        x = n / 4
        needed = (1 + math.sqrt(2) * eps) * x / n
        assert accepts_level(n, eps, level, needed + 0.01, 0)
        assert not accepts_level(n, eps, level, needed - 0.01, 0)

    def test_lower_bound_formula(self):
        lb = lower_bound_from_level(1000, 0.5, 0.4)
        assert lb == pytest.approx(400 / (1 + math.sqrt(2) * 0.5))

    def test_final_theta(self):
        theta = final_theta(1000, 50, 1.0, 0.5, lb=100.0)
        assert theta == math.ceil(lambda_star(1000, 50, 1.0, 0.5) / 100.0)

    def test_final_theta_rejects_nonpositive_lb(self):
        with pytest.raises(ParameterError):
            final_theta(1000, 50, 1.0, 0.5, 0.0)


class TestSchedule:
    def test_for_run_adjusts_ell(self):
        s = MartingaleSchedule.for_run(1000, 50, 0.5, 1.0)
        assert s.ell > 1.0

    def test_rejects_k_above_n(self):
        with pytest.raises(ParameterError):
            MartingaleSchedule.for_run(10, 11, 0.5, 1.0)

    def test_theta_final_larger_for_smaller_lb(self):
        s = MartingaleSchedule.for_run(1000, 50, 0.5, 1.0)
        assert s.theta_final(10.0) > s.theta_final(100.0)

    def test_better_coverage_means_fewer_samples(self):
        s = MartingaleSchedule.for_run(4096, 20, 0.5, 1.0)
        assert s.theta_final(s.lower_bound(0.8)) < s.theta_final(s.lower_bound(0.2))

    def test_max_level(self):
        s = MartingaleSchedule.for_run(1024, 5, 0.5, 1.0)
        assert s.max_level == 9


def reference_certify(sched, sample, coverage, theta_cap):
    """The estimation loop as ``run_imm`` wrote it inline before
    :meth:`MartingaleSchedule.certify` existed, kept as the oracle."""

    def capped(theta):
        if theta_cap is not None:
            return min(theta, theta_cap)
        return theta

    lb = 1.0
    for level in range(1, sched.max_level + 1):
        theta_i = capped(sched.theta_for_level(level))
        sample(theta_i, level)
        fraction = coverage(level)
        if sched.accepts(level, fraction):
            lb = sched.lower_bound(fraction)
            break
        if theta_cap is not None and theta_i >= theta_cap:
            lb = max(sched.lower_bound(fraction), 1.0)
            break
    theta = capped(sched.theta_final(lb))
    theta_capped = theta_cap is not None and sched.theta_final(lb) > theta_cap
    return lb, theta, theta_capped


def _run(certify, sched, fractions, theta_cap):
    """Drive one certify implementation; return its sample calls and
    answer.  Level i reports coverage ``fractions[i - 1]``."""
    calls = []
    out = certify(
        sched,
        lambda theta_i, level: calls.append((theta_i, level)),
        lambda level: fractions[level - 1],
        theta_cap,
    )
    return calls, out


class TestCertify:
    @given(
        st.integers(2, 200_000),
        st.integers(1, 60),
        st.floats(0.05, 0.99),
        st.one_of(st.none(), st.integers(1, 5_000)),
        st.lists(
            st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.5, 1.0])),
            min_size=20, max_size=20,
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_loop(self, n, k, eps, theta_cap, fractions):
        sched = MartingaleSchedule.for_run(n, min(k, n), eps, 1.0)
        got = _run(MartingaleSchedule.certify, sched, fractions, theta_cap)
        want = _run(reference_certify, sched, fractions, theta_cap)
        assert got == want

    def test_full_coverage_stops_at_level_one(self):
        sched = MartingaleSchedule.for_run(4096, 10, 0.5, 1.0)
        calls, (lb, theta, capped) = _run(
            MartingaleSchedule.certify, sched, [1.0] * 20, None
        )
        assert calls == [(sched.theta_for_level(1), 1)]
        assert lb == sched.lower_bound(1.0)
        assert theta == sched.theta_final(lb) and not capped

    def test_cap_stops_the_loop_and_flags_theta(self):
        sched = MartingaleSchedule.for_run(4096, 10, 0.5, 1.0)
        calls, (lb, theta, capped) = _run(
            MartingaleSchedule.certify, sched, [0.0] * 20, 100
        )
        assert calls == [(100, 1)]
        assert (lb, theta, capped) == (1.0, 100, True)

    def test_no_level_accepts_without_cap(self):
        sched = MartingaleSchedule.for_run(1024, 5, 0.5, 1.0)
        calls, (lb, theta, capped) = _run(
            MartingaleSchedule.certify, sched, [0.0] * 20, None
        )
        assert [level for _, level in calls] == list(range(1, sched.max_level + 1))
        assert (lb, theta, capped) == (1.0, sched.theta_final(1.0), False)
