"""Series binning, NaN-aware smoothing, and distribution summaries."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest

from cosimnet.metrics import (
    SMOOTH_WIDTH,
    delay_series,
    goodput_series,
    histogram,
    kde,
    mean,
    silverman_bandwidth,
    smooth,
)
from tests import series_stats
from tests.series_stats import kde_mode, mode_count, spearman

MS = 1_000_000


def test_goodput_bins_and_scales():
    # 3 deliveries of 8000 bits: two in sample 0, one in sample 2
    rate = np.asarray(goodput_series([0, 900 * MS // 1000, 2500 * MS // 1000], 8000,
                                     duration_ns=4 * MS, period_ns=MS))
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
    assert int(np.asarray(h.counts).sum()) == 500
    assert float((np.asarray(h.density) * np.diff(h.edges)).sum()) == pytest.approx(1.0)
    assert not h.empty


def test_histogram_of_nothing_is_flagged_empty():
    h = histogram([np.nan, np.nan])
    assert h.empty
    assert (np.asarray(h.counts) == 0).all()


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


# -- the plain-Python reduction against numpy's, bit for bit ----------------------


def hexes(values) -> list[str]:
    """`float.hex` of each value: tells -0.0 from 0.0 and places every NaN."""
    return [float(v).hex() for v in values]


def nan_patched(rng: random.Random, n: int) -> list[float]:
    x = [rng.choice((rng.uniform(0.0, 2e7), rng.expovariate(1e-6), 10 ** rng.uniform(-9, 9)))
         for _ in range(n)]
    for _ in range(rng.randrange(4)):
        start = rng.randrange(n + 1)
        stop = min(n, start + rng.randrange(60))
        x[start:stop] = [math.nan] * (stop - start)
    return x


def test_series_match_numpy_bit_for_bit():
    rng = random.Random(2401)
    for _ in range(600):
        n = rng.randrange(401)
        x = nan_patched(rng, n)
        width = rng.randrange(1, 60)
        assert hexes(smooth(x, width)) == hexes(series_stats.smooth(x, width))

        period = rng.choice((1, 7, 10 * MS))
        duration = rng.randrange(1, 401) * period
        times = [rng.randrange(duration) for _ in range(rng.randrange(400))]
        bits = [rng.randrange(1, 12_000) for _ in times]
        delays = [float(rng.randrange(10**9)) for _ in times]
        for b in (bits, 8000):
            assert hexes(goodput_series(times, b, duration, period)) == hexes(
                series_stats.goodput_series(times, b, duration, period)
            )
        assert hexes(delay_series(times, delays, duration, period)) == hexes(
            series_stats.delay_series(times, delays, duration, period)
        )


def histogram_inputs(rng: random.Random):
    """(values, bins) pairs."""
    for _ in range(150):
        bins = rng.randrange(1, 60)
        yield [rng.uniform(-5.0, 5.0)] * rng.randrange(1, 30), bins  # constant
        lo, hi = rng.uniform(-10.0, 10.0), rng.uniform(10.0, 1e4)
        edges = np.linspace(lo, hi, bins + 1).tolist()
        near = [  # on an edge, or one float either side of it
            rng.choice((e, math.nextafter(e, -math.inf), math.nextafter(e, math.inf)))
            for e in rng.choices(edges, k=rng.randrange(200))
        ]
        yield [lo, hi, *near], bins
        yield [rng.uniform(-1e9, 1e9)], bins  # a single value
        yield [math.nan] * rng.randrange(5), bins  # nothing but NaN
        # mixed magnitudes, with zeros of both signs inside the range (numpy's
        # min and max of a sample whose extreme is a zero of both signs return
        # either sign, by SIMD lane)
        mixed = [
            rng.choice((-1.0, 1.0)) * 10 ** rng.uniform(-200, 200)
            for _ in range(rng.randrange(2, 300))
        ]
        yield [*mixed, -1e-300, 1e-300, 0.0, -0.0], bins
        yield nan_patched(rng, rng.randrange(1, 401)), bins


def test_histogram_matches_numpy_bit_for_bit():
    rng = random.Random(2402)
    for values, bins in histogram_inputs(rng):
        h = histogram(values, bins)
        edges, counts, density = series_stats.histogram(values, bins)
        assert hexes(h.edges) == hexes(edges)
        assert hexes(h.counts) == hexes(counts)
        assert hexes(h.density) == hexes(density)
        assert h.empty == (counts.sum() == 0)


def test_mean_matches_ndarray_mean_bit_for_bit():
    rng = random.Random(2403)
    lengths = [*range(10), 7, 8, 9, 127, 128, 129, 255, 256, 257, 8191, 8192, 8193, 65_543]
    arrays = [[rng.uniform(-1.0, 1.0) * 10 ** rng.randrange(-8, 9) for _ in range(n)] for n in lengths]
    arrays += [[rng.choice((0.0, -0.0)) for _ in range(n)] for n in (1, 3, 8, 9, 200)]
    arrays += [nan_patched(rng, n) for n in (5, 150, 400)]
    arrays.append([rng.expovariate(1e-6) for _ in range(10**6)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the empty mean
        for x in arrays:
            assert hexes([mean(x)]) == hexes([series_stats.mean(x)]), len(x)
