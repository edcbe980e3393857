"""Tests for the adaptive list/bitmap policy."""

import numpy as np
import pytest

from repro.core.sampling import modelled_store_bytes
from repro.errors import ParameterError
from repro.sketch.rrr import AdaptivePolicy


class TestAdaptivePolicy:
    def test_default_threshold_is_memory_crossover(self):
        # 4-byte ids vs n/8-byte bitmap: crossover at n/32.
        p = AdaptivePolicy()
        assert p.threshold(3200) == 100

    def test_choose(self):
        p = AdaptivePolicy(bitmap_fraction=0.1)
        assert p.choose(5, 100) == "list"
        assert p.choose(11, 100) == "bitmap"

    def test_rejects_bad_fraction(self):
        with pytest.raises(ParameterError):
            AdaptivePolicy(bitmap_fraction=0.0)
        with pytest.raises(ParameterError):
            AdaptivePolicy(bitmap_fraction=1.5)

    def test_adaptive_picks_smaller_representation(self):
        # At the threshold the two must cost the same order; beyond it the
        # bitmap must be no larger than the list it replaced.
        n = 3200
        policy = AdaptivePolicy()
        assert policy.choose(200, n) == "bitmap"
        assert modelled_store_bytes(np.array([200]), n, policy) <= (
            modelled_store_bytes(np.array([200]), n, None)
        )
