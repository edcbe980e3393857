"""Tests for the statistical validation utilities, plus the end-to-end
statistical health checks of the samplers themselves."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.validate import (
    roots_are_uniform,
    same_size_distribution,
    seed_stability,
    spread_consistent,
)


class TestRootsUniform:
    def test_uniform_passes(self, rng):
        roots = rng.integers(0, 1000, size=5000)
        assert roots_are_uniform(roots, 1000)

    def test_skewed_fails(self, rng):
        roots = np.concatenate([
            rng.integers(0, 100, size=4500),
            rng.integers(0, 1000, size=500),
        ])
        assert not roots_are_uniform(roots, 1000)

    def test_needs_enough_samples(self):
        with pytest.raises(ParameterError):
            roots_are_uniform(np.arange(5), 100)

    def test_real_sampler_roots_uniform(self, amazon_ic):
        from repro.kernels import roots_for_indices

        n = amazon_ic.num_vertices
        roots = roots_for_indices(0, np.arange(4000), n)
        assert roots_are_uniform(roots, n)


class TestSizeDistribution:
    def test_same_distribution_passes(self, rng):
        a = rng.exponential(50, size=400)
        b = rng.exponential(50, size=400)
        assert same_size_distribution(a, b)

    def test_different_distributions_fail(self, rng):
        a = rng.exponential(50, size=400)
        b = rng.exponential(200, size=400)
        assert not same_size_distribution(a, b)

    def test_needs_enough_samples(self):
        with pytest.raises(ParameterError):
            same_size_distribution(np.ones(3), np.ones(30))

    def test_serial_vs_parallel_sampler(self, skitter_ic):
        """The process-parallel sampler must draw from the same RRR-size
        distribution as the serial one (different streams, same law)."""
        from repro.core.parallel_sampling import parallel_generate
        from repro.core.sampling import RRRSampler, SamplingConfig
        from repro.diffusion.base import get_model
        from repro.runtime.backends import SerialBackend

        serial = RRRSampler(
            get_model("IC", skitter_ic),
            SamplingConfig.efficientimm(num_threads=1),
            seed=10,
        )
        serial.extend(250)
        par = parallel_generate(
            skitter_ic, "IC", 250, num_workers=3, seed=99,
            backend=SerialBackend(),
        )
        assert same_size_distribution(serial.store.sizes(), par.sizes())


class TestSpreadConsistent:
    def test_within_noise_passes(self):
        assert spread_consistent(1000.0, 995.0, mc_stderr=5.0)

    def test_large_gap_fails(self):
        assert not spread_consistent(2000.0, 1000.0, mc_stderr=5.0)

    def test_selection_bias_slack(self):
        # 8% above MC with tiny stderr: absorbed by the relative slack.
        assert spread_consistent(1080.0, 1000.0, mc_stderr=1.0)

    def test_end_to_end(self, amazon_ic):
        from repro.core import EfficientIMM, IMMParams
        from repro.diffusion import estimate_spread, get_model

        res = EfficientIMM(amazon_ic).run(
            IMMParams(k=8, theta_cap=1200, seed=3)
        )
        est = estimate_spread(
            get_model("IC", amazon_ic), res.seeds, num_samples=150, seed=4
        )
        assert spread_consistent(res.spread_estimate, est.mean, est.stderr)


class TestSeedStability:
    def test_identical_sets_perfect(self):
        sets = [np.array([1, 2, 3])] * 3
        r = seed_stability(sets)
        assert r and r.statistic == 1.0

    def test_disjoint_sets_fail(self):
        sets = [np.array([1, 2]), np.array([3, 4]), np.array([5, 6])]
        assert not seed_stability(sets)

    def test_needs_two_sets(self):
        with pytest.raises(ParameterError):
            seed_stability([np.array([1])])

    def test_imm_seeds_stable_on_hub_graph(self):
        # Identity-stability needs hubs AND a subcritical cascade (with the
        # paper's uniform [0,1] weights the replicas percolate, making every
        # vertex near-equally influential — seed identity is then noise by
        # construction).  Preferential attachment + weak probabilities
        # concentrates influence on the early hubs.
        from repro.core import EfficientIMM, IMMParams
        from repro.graph.builder import from_edge_array
        from repro.graph.generators import barabasi_albert
        from repro.graph.weights import assign_ic_weights

        src, dst = barabasi_albert(2000, 2, seed=4)
        g = assign_ic_weights(
            from_edge_array(src, dst, num_vertices=2000, make_undirected=True),
            seed=4, scale=0.15,
        )
        sets = [
            EfficientIMM(g).run(IMMParams(k=10, theta_cap=3000, seed=s)).seeds
            for s in (1, 2, 3)
        ]
        assert seed_stability(sets, min_mean_jaccard=0.3)

    def test_flat_graphs_stable_in_quality_not_identity(self, amazon_ic):
        # On community graphs without hubs many seed sets are near-optimal:
        # seed *identity* varies across RNG seeds, but the achieved spread
        # must not (the correct notion of stability there).
        from repro.core import EfficientIMM, IMMParams
        from repro.diffusion import estimate_spread, get_model

        model = get_model("IC", amazon_ic)
        spreads = [
            estimate_spread(
                model,
                EfficientIMM(amazon_ic)
                .run(IMMParams(k=10, theta_cap=800, seed=s))
                .seeds,
                num_samples=60,
                seed=50 + s,
            ).mean
            for s in (1, 2, 3)
        ]
        assert max(spreads) - min(spreads) < 0.1 * max(spreads)
