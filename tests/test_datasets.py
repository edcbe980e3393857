"""Tests for the replica dataset registry."""

import numpy as np
import pytest

from repro.diffusion import get_model
from repro.errors import DatasetError
from repro.graph.datasets import DATASETS, dataset_names, load_dataset
from repro.graph.weights import lt_incoming_weight_sums
from repro.kernels import KernelSampler


class TestRegistry:
    def test_eight_datasets(self):
        assert len(DATASETS) == 8

    def test_names_match_paper_order(self):
        assert dataset_names() == [
            "amazon", "dblp", "youtube", "livejournal",
            "pokec", "skitter", "google", "twitter7",
        ]

    def test_specs_have_paper_stats(self):
        for spec in DATASETS.values():
            assert spec.paper_nodes > 0
            assert spec.paper_edges > spec.paper_nodes
            assert 0 < spec.paper_avg_coverage <= spec.paper_max_coverage <= 1

    def test_unknown_name_rejected(self):
        with pytest.raises(DatasetError, match="unknown dataset"):
            load_dataset("facebook")

    def test_paper_name_lookup(self):
        a = load_dataset("com-Amazon")
        b = load_dataset("amazon")
        assert a == b

    def test_unknown_model_rejected(self):
        with pytest.raises(DatasetError, match="unknown diffusion model"):
            load_dataset("amazon", model="SIR")


class TestMaterialisation:
    def test_determinism(self):
        a = load_dataset("dblp", seed=0)
        b = load_dataset("dblp", seed=0)
        assert a == b

    def test_seed_changes_instance(self):
        a = load_dataset("dblp", seed=0)
        b = load_dataset("dblp", seed=1)
        assert a != b

    def test_bare_topology_has_unit_probs(self):
        g = load_dataset("amazon")
        assert np.all(g.probs == 1.0)

    def test_ic_weights_uniform(self, amazon_ic):
        assert 0.35 < amazon_ic.probs.mean() < 0.65
        assert np.all((amazon_ic.probs >= 0) & (amazon_ic.probs <= 1))

    def test_lt_weights_constraint(self, amazon_lt):
        assert np.all(lt_incoming_weight_sums(amazon_lt) <= 1.0 + 1e-9)

    def test_scale_grows_graph(self):
        small = load_dataset("dblp", scale=0.5)
        big = load_dataset("dblp", scale=1.0)
        assert big.num_vertices > small.num_vertices

    def test_undirected_replicas_symmetric(self):
        g = load_dataset("amazon")
        edges = {(u, v) for u, v, _ in g.iter_edges()}
        assert all((v, u) in edges for u, v in edges)

    def test_skitter_is_dag(self):
        g = load_dataset("skitter")
        src, dst, _ = g.edge_array()
        assert np.all(src < dst)

    def test_cache_roundtrip(self, tmp_path):
        a = load_dataset("dblp", cache_dir=tmp_path)
        assert any(tmp_path.iterdir())
        b = load_dataset("dblp", cache_dir=tmp_path)
        assert a == b


class TestCoverageSignature:
    """The property the replicas exist to preserve (Table I), measured on
    the sets the kernel draws."""

    @staticmethod
    def coverage(name, seed, count):
        """Mean coverage of ``count`` kernel-drawn IC sets on ``name``."""
        g = load_dataset(name, model="IC", seed=0)
        _flat, sizes, _ = KernelSampler(get_model("IC", g)).sample_indexed(
            seed, 0, count
        )
        return sizes.mean() / g.num_vertices

    @pytest.mark.parametrize("name", dataset_names())
    def test_coverage_band(self, name):
        spec = DATASETS[name]
        avg_cov = self.coverage(name, 99, 30)
        # Within a factor-2 band of the paper's measured average coverage
        # (skitter, the ~1% outlier, must stay the outlier).
        assert spec.paper_avg_coverage / 2.2 < avg_cov < spec.paper_avg_coverage * 2.2

    def test_skitter_is_the_low_coverage_outlier(self):
        # skitter / google is ~0.09 (paper: 0.016 / 0.174), close to the
        # 0.1 bound, so each mean is taken over 1,000 sets: 25 left the
        # comparison to the draw.
        covs = {
            name: self.coverage(name, 5, 1000)
            for name in ("skitter", "amazon", "google")
        }
        assert covs["skitter"] < 0.1 * covs["amazon"]
        assert covs["skitter"] < 0.1 * covs["google"]
