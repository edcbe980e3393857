"""Tests for the OPIM-C online algorithm."""

import math

import numpy as np
import pytest

from repro.core import EfficientIMM, IMMParams
from repro.core.opim import (
    OPIMResult,
    _opt_upper,
    _sigma_lower,
    coverage_of_seeds,
    run_opim,
)
from repro.errors import ParameterError

from conftest import make_store


class TestBounds:
    def test_sigma_lower_below_empirical(self):
        # The lower bound must sit below the plug-in estimate n*cov/theta.
        n, theta, cov, a = 1000, 500, 300, 5.0
        assert _sigma_lower(n, theta, cov, a) < n * cov / theta

    def test_opt_upper_above_empirical(self):
        n, theta, cov, a = 1000, 500, 300, 5.0
        assert _opt_upper(n, theta, cov, a) > n * cov / theta

    def test_bounds_tighten_with_samples(self):
        # Same coverage *rate*, more samples => tighter interval.
        n, a = 1000, 5.0
        gap_small = _opt_upper(n, 100, 60, a) - _sigma_lower(n, 100, 60, a)
        gap_big = _opt_upper(n, 10_000, 6000, a) - _sigma_lower(n, 10_000, 6000, a)
        assert gap_big < gap_small

    def test_sigma_lower_nonnegative(self):
        assert _sigma_lower(1000, 100, 0, 10.0) >= -1e-9 * 1000
        assert _sigma_lower(1000, 0, 0, 10.0) == 0.0

    def test_zero_theta_upper_is_n(self):
        assert _opt_upper(1000, 0, 0, 5.0) == 1000.0


class TestCoverageOfSeeds:
    def test_exact_count(self):
        store = make_store(10, [[1, 2], [3], [2, 3]])
        assert coverage_of_seeds(store, np.array([2])) == 2
        assert coverage_of_seeds(store, np.array([1, 3])) == 3
        assert coverage_of_seeds(store, np.array([9])) == 0


class TestRunOpim:
    @pytest.fixture(scope="class")
    def amazon(self):
        from repro.graph.datasets import load_dataset

        return load_dataset("amazon", model="IC", seed=0)

    def test_returns_k_seeds(self, amazon):
        res = run_opim(amazon, IMMParams(k=8, theta_cap=2000, seed=1))
        assert res.seeds.size == 8
        assert len(set(res.seeds.tolist())) == 8

    def test_certifies_at_target(self, amazon):
        params = IMMParams(k=8, epsilon=0.5, theta_cap=4000, seed=1)
        res = run_opim(amazon, params)
        assert res.certified
        target = 1.0 - 1.0 / math.e - params.epsilon
        assert res.approx_guarantee >= target

    def test_uses_fewer_samples_than_imm(self, amazon):
        params = IMMParams(k=8, epsilon=0.5, theta_cap=4000, seed=1)
        opim = run_opim(amazon, params)
        imm = EfficientIMM(amazon).run(params)
        assert opim.certified
        # The §VI claim: early termination when coverage is sufficient.
        assert opim.num_rrrsets < imm.num_rrrsets

    def test_bounds_bracket_truth(self, amazon):
        from repro.diffusion import estimate_spread, get_model

        params = IMMParams(k=8, epsilon=0.5, theta_cap=4000, seed=2)
        res = run_opim(amazon, params)
        model = get_model("IC", amazon)
        mc = estimate_spread(model, res.seeds, num_samples=120, seed=3)
        assert res.spread_lower_bound <= mc.mean + 4 * mc.stderr
        assert res.opt_upper_bound >= mc.mean - 4 * mc.stderr

    def test_determinism(self, amazon):
        params = IMMParams(k=5, theta_cap=1000, seed=4)
        a = run_opim(amazon, params)
        b = run_opim(amazon, params)
        assert np.array_equal(a.seeds, b.seeds)
        assert a.num_rrrsets == b.num_rrrsets

    def test_cap_exhaustion_uncertified(self, amazon):
        # epsilon tiny + tight cap: cannot certify, must say so.
        res = run_opim(
            amazon, IMMParams(k=8, epsilon=0.05, theta_cap=128, seed=5)
        )
        assert not res.certified
        assert res.seeds.size == 8

    def test_times_recorded(self, amazon):
        res = run_opim(amazon, IMMParams(k=5, theta_cap=1000, seed=6))
        assert "Generate_RRRsets" in res.times.stages
        assert "Bound_Estimation" in res.times.stages

    def test_rejects_bad_delta(self, amazon):
        with pytest.raises(ParameterError):
            run_opim(amazon, IMMParams(k=3, theta_cap=100), delta=1.5)

    def test_rejects_k_above_n(self, amazon):
        with pytest.raises(ParameterError):
            run_opim(amazon, IMMParams(k=amazon.num_vertices + 1, theta_cap=100))

    def test_quality_close_to_imm(self, amazon):
        from repro.diffusion import estimate_spread, get_model

        params = IMMParams(k=8, epsilon=0.5, theta_cap=4000, seed=7)
        opim = run_opim(amazon, params)
        imm = EfficientIMM(amazon).run(params)
        model = get_model("IC", amazon)
        s_opim = estimate_spread(model, opim.seeds, num_samples=80, seed=8).mean
        s_imm = estimate_spread(model, imm.seeds, num_samples=80, seed=8).mean
        assert s_opim >= 0.85 * s_imm
