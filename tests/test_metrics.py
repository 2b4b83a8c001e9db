"""Series binning, NaN-aware smoothing, and distribution summaries."""

from __future__ import annotations

import math

import numpy as np
import pytest

from cosimnet.metrics import (
    SMOOTH_WIDTH,
    delay_series,
    goodput_series,
    histogram,
    kde,
    silverman_bandwidth,
    smooth,
)
from tests.series_stats import kde_mode, mode_count, spearman

MS = 1_000_000


def test_goodput_bins_and_scales():
    # 3 deliveries of 8000 bits: two in sample 0, one in sample 2
    rate = goodput_series([0, 900 * MS // 1000, 2500 * MS // 1000], 8000,
                          duration_ns=4 * MS, period_ns=MS)
    assert rate.shape == (4,)
    assert rate[0] == pytest.approx(16_000 * 1e9 / MS)
    assert rate[1] == 0.0
    assert rate[2] == pytest.approx(8_000 * 1e9 / MS)
    assert rate[3] == 0.0


def test_goodput_against_loop_oracle():
    rng = np.random.default_rng(5)
    duration, period = 50 * MS, MS
    times = rng.integers(0, duration, size=400)
    bits = rng.integers(100, 9000, size=400)
    fast = goodput_series(times, bits, duration, period)
    slow = np.zeros(50)
    for t, b in zip(times, bits):
        slow[t // period] += b
    np.testing.assert_allclose(fast, slow * 1e9 / period)


def test_goodput_validates_input():
    with pytest.raises(ValueError, match="multiple"):
        goodput_series([], 100, duration_ns=5 * MS, period_ns=2 * MS)
    with pytest.raises(ValueError, match="outside"):
        goodput_series([6 * MS], 100, duration_ns=5 * MS, period_ns=MS)


def test_delay_series_means_and_nans():
    delays = delay_series(
        times_ns=[0, 0, 3 * MS], delays_ns=[10.0, 30.0, 7.0],
        duration_ns=4 * MS, period_ns=MS,
    )
    assert delays[0] == pytest.approx(20.0)
    assert math.isnan(delays[1]) and math.isnan(delays[2])
    assert delays[3] == pytest.approx(7.0)


def test_smooth_matches_brute_force_with_nan_patches():
    rng = np.random.default_rng(10)
    x = rng.normal(size=300)
    x[40:80] = np.nan
    x[200] = np.nan
    got = smooth(x, SMOOTH_WIDTH)
    for i in range(x.size):
        window = x[max(0, i - 10) : min(x.size, i + 10)]
        finite = window[~np.isnan(window)]
        if finite.size == 0:
            assert math.isnan(got[i])
        else:
            assert got[i] == pytest.approx(finite.mean())


def test_smooth_all_nan_window_stays_nan():
    x = np.full(60, np.nan)
    x[0] = 1.0
    got = smooth(x)
    assert got[0] == pytest.approx(1.0)
    assert np.isnan(got[30:]).all()


def test_histogram_density_integrates_to_one():
    rng = np.random.default_rng(3)
    h = histogram(rng.exponential(size=500), bins=30)
    assert int(h.counts.sum()) == 500
    assert float((h.density * np.diff(h.edges)).sum()) == pytest.approx(1.0)
    assert not h.empty


def test_histogram_of_nothing_is_flagged_empty():
    h = histogram([np.nan, np.nan])
    assert h.empty
    assert (h.counts == 0).all()


def test_silverman_bandwidth_formula():
    rng = np.random.default_rng(8)
    x = rng.normal(size=400)
    std = x.std()
    iqr = np.percentile(x, 75) - np.percentile(x, 25)
    expected = 0.9 * min(std, iqr / 1.34) * 400 ** (-0.2)
    assert silverman_bandwidth(x) == pytest.approx(expected)
    assert silverman_bandwidth(np.full(50, 2.5)) > 0  # degenerate sample


def test_kde_integrates_to_one_and_finds_the_bulk():
    rng = np.random.default_rng(21)
    x = rng.normal(loc=5.0, scale=0.5, size=800)
    grid, density = kde(x)
    assert float(np.trapezoid(density, grid)) == pytest.approx(1.0, abs=5e-3)
    assert abs(kde_mode(x) - 5.0) < 0.2


def test_mode_count_separates_unimodal_from_bimodal():
    rng = np.random.default_rng(33)
    uni = rng.normal(size=600)
    bi = np.concatenate([rng.normal(-4, 0.3, 400), rng.normal(4, 0.3, 400)])
    assert mode_count(kde(uni)[1]) == 1
    assert mode_count(kde(bi)[1]) == 2


def test_spearman_known_values():
    assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)
    assert spearman([1, 2, 3, 4], [9, 7, 5, 3]) == pytest.approx(-1.0)
    assert spearman([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)


def test_spearman_drops_nan_pairs_and_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(12)
    x = rng.normal(size=200)
    y = 0.4 * x + rng.normal(size=200)
    x[5] = np.nan
    y[17] = np.nan
    keep = ~(np.isnan(x) | np.isnan(y))
    expected = stats.spearmanr(x[keep], y[keep]).statistic
    assert spearman(x, y) == pytest.approx(expected)


def test_spearman_with_heavy_ties_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(13)
    x = rng.integers(0, 5, size=300).astype(float)
    y = rng.integers(0, 4, size=300).astype(float)
    expected = stats.spearmanr(x, y).statistic
    assert spearman(x, y) == pytest.approx(expected)


def test_spearman_degenerate_cases():
    assert math.isnan(spearman([1.0], [2.0]))
    assert math.isnan(spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))
