"""Tests for the shared utility helpers."""

import time

import numpy as np
import pytest

from repro._util import (
    StageTimes,
    Timer,
    as_rng,
    check_fraction,
    check_positive_int,
    human_bytes,
    human_time,
    log2ceil,
)


class TestRng:
    def test_as_rng_from_int(self):
        a, b = as_rng(5), as_rng(5)
        assert a.integers(0, 100) == b.integers(0, 100)

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g


class TestTimers:
    def test_timer_measures(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_timer_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.005)
        with t:
            time.sleep(0.005)
        assert t.elapsed >= 0.009

    def test_stage_times(self):
        st = StageTimes()
        with st.measure("a"):
            time.sleep(0.002)
        st.add("b", 1.0)
        assert st.stages["b"] == 1.0
        assert st.total > 1.0
        assert abs(sum(st.fractions().values()) - 1.0) < 1e-9

    def test_stage_times_empty_fractions(self):
        st = StageTimes()
        st.add("a", 0.0)
        assert st.fractions() == {"a": 0.0}


class TestFormatting:
    def test_human_bytes(self):
        assert human_bytes(512) == "512 B"
        assert human_bytes(1536) == "1.5 KiB"
        assert "GiB" in human_bytes(3 * 1024**3)

    def test_human_time(self):
        assert "us" in human_time(5e-6)
        assert "ms" in human_time(0.05)
        assert human_time(2.0) == "2.00 s"
        assert human_time(150) == "2m30s"


class TestValidators:
    def test_positive_int_ok(self):
        assert check_positive_int("x", 5) == 5

    def test_positive_int_rejects(self):
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError):
                check_positive_int("x", bad)

    def test_fraction_ok(self):
        assert check_fraction("x", 0.5) == 0.5
        assert check_fraction("x", 1.0) == 1.0
        assert check_fraction("x", 0.0, open_left=False) == 0.0

    def test_fraction_rejects(self):
        with pytest.raises(ValueError):
            check_fraction("x", 0.0)
        with pytest.raises(ValueError):
            check_fraction("x", 1.1)

    def test_log2ceil(self):
        assert log2ceil(1) == 0
        assert log2ceil(2) == 1
        assert log2ceil(1000) == 10


class TestErrors:
    def test_hierarchy(self):
        from repro.errors import (
            DatasetError,
            OutOfMemoryModelError,
            ParameterError,
            ReproError,
        )

        assert issubclass(DatasetError, ReproError)
        assert issubclass(ParameterError, (ReproError, ValueError))
        err = OutOfMemoryModelError(200, 100)
        assert isinstance(err, ReproError)
        assert "200" in str(err) and "100" in str(err)
