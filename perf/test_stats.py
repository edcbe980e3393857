import statistics

import pytest

from stats import beyond, percentile, quartiles, spread, supported, tail


def test_percentile_is_an_observed_sample():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 1) == 1.0
    # Nearest rank: the 90th percentile of 1..100 is 90 itself, not a blend.
    assert percentile(list(range(1, 101)), 90) == 90


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_ten_samples_beyond_rule():
    # p90 of 100 samples leaves exactly 10 beyond it: supported.
    assert beyond(100, 90) == 10 and supported(100, 90)
    # p95 of 100 leaves 5: one outlier too many decides it.
    assert beyond(100, 95) == 5 and not supported(100, 95)
    assert supported(200, 95) and not supported(1000, 99.9)
    assert supported(129, 90) and not supported(3, 90)


def test_tail_is_the_median_where_the_percentile_is_unsupported():
    assert tail(list(range(1, 101)), 90) == 90
    # Seven IMM runs: the slowest would decide a p90, so the median stands in.
    assert tail([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 9.0], 90) == 2.0


def test_latency_p50_is_the_median_of_cycle_means():
    from run import e2e_metrics

    def sample(cycle, latency, status="ok"):
        return {"cycle": cycle, "due": 1.0, "done": 1.0 + latency, "status": status}

    closed = [sample(0, 0.01), sample(0, 0.03), sample(1, 0.05), sample(1, 9.0, "shed"),
              sample(2, 0.02), sample(2, 0.04)]
    result = {"closed": closed, "closed_s": [(2, 1.0), (1, 1.0), (2, 1.0)],
              "calib": [0.4, 0.4], "rss_mb": 1.0}
    # Cycle means 0.02, 0.05 and 0.03; the shed request counts in no cycle.
    # One factor for the run: the host took twice the reference time.
    m = e2e_metrics("serve-gateway", result, [(1.0, 0.2)], 1.0, calibrated=True)
    assert m["latency_p50_ms"] == pytest.approx(0.03 * 0.5e3)
    assert m["throughput_per_s"] == pytest.approx(4.0)


def test_each_epoch_is_scaled_by_the_calibrations_around_it():
    from run import e2e_metrics

    def epoch(queries, calib):
        return {"commit_s": 0.0, "queries": [{"s": s} for s in queries], "calib": calib}

    # The first two epochs ran at reference speed, the last between
    # calibrations averaging twice the reference.
    epochs = [epoch([0.1, 0.3], [0.2, 0.2]), epoch([0.4], [0.2, 0.2]), epoch([0.4], [0.2, 0.6])]
    result = {"epochs": epochs, "calib": [0.2, 0.2, 0.6], "rss_mb": 1.0}
    m = e2e_metrics("update-shard", result, [(1.0, 0.2)], 1.0, calibrated=True)
    # Epoch means 0.2, 0.4 and 0.4 / 2.
    assert m["latency_p50_ms"] == pytest.approx(200.0)
    raw = e2e_metrics("update-shard", result, [(1.0, 0.2)], 1.0, calibrated=False)
    assert raw["latency_p50_ms"] == pytest.approx(400.0)


def test_quartiles_and_spread_match_statistics_quantiles():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    assert quartiles(values) == (q1, med, q3)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
