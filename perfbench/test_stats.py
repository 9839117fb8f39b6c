"""Nearest-rank percentiles and the sample-count rule."""

import math

import pytest

from perfbench.stats import (
    is_supported,
    median,
    percentile,
    quartile_spread,
    samples_beyond,
)


def test_nearest_rank_picks_an_observed_value():
    values = [float(v) for v in range(10, 0, -1)]  # unsorted on purpose
    assert percentile(values, 10) == 1.0
    assert percentile(values, 50) == 5.0
    assert percentile(values, 90) == 9.0
    assert percentile(values, 91) == 10.0
    assert percentile(values, 100) == 10.0
    assert median([3.0]) == 3.0


def test_nearest_rank_on_uneven_sample_rounds_rank_up():
    # rank = ceil(q/100 * n): 0.5 * 5 = 2.5 -> 3rd value, 0.9 * 5 = 4.5 -> 5th.
    assert percentile([1, 2, 3, 4, 5], 50) == 3
    assert percentile([1, 2, 3, 4, 5], 90) == 5


def test_failures_count_against_the_tail():
    values = [0.01] * 8 + [math.inf] * 2
    assert percentile(values, 50) == 0.01
    assert percentile(values, 90) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_sample_count_rule():
    assert samples_beyond(100, 90) == 10
    assert is_supported(100, 90)
    assert not is_supported(99, 90)
    assert is_supported(20, 50) and not is_supported(19, 50)
    assert is_supported(1000, 99) and not is_supported(999, 99)
    # A batch run of ~30 jobs supports its median but not its p90.
    assert is_supported(30, 50)
    assert not is_supported(30, 90)


def test_quartile_spread_matches_statistics_quantiles():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # quantiles(n=4, method="exclusive") -> 2.75, 5.5, 8.25
    assert quartile_spread(values) == pytest.approx((8.25 - 2.75) / 5.5)
