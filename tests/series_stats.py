"""Distribution summaries that only the tests read: the mode of a kernel
density, its number of distinct modes, and Spearman's rank correlation;
and the numpy reduction that `cosimnet.metrics` replaced with plain Python,
kept as its oracle: the goodput and delay series, the smoothing, the
histogram and `ndarray.mean`."""

from __future__ import annotations

import math

import numpy as np

from cosimnet.metrics import _sample_count, kde


def goodput_series(times_ns, bits, duration_ns: int, period_ns: int) -> np.ndarray:
    n = _sample_count(duration_ns, period_ns)
    times = np.asarray(times_ns, dtype=np.int64)
    if times.size and (times.min() < 0 or times.max() >= duration_ns):
        raise ValueError("delivery time outside the run")
    weights = np.broadcast_to(np.asarray(bits, dtype=np.float64), times.shape)
    binned = np.bincount(times // period_ns, weights=weights, minlength=n)
    return binned * (1e9 / period_ns)


def delay_series(times_ns, delays_ns, duration_ns: int, period_ns: int) -> np.ndarray:
    n = _sample_count(duration_ns, period_ns)
    times = np.asarray(times_ns, dtype=np.int64)
    delays = np.asarray(delays_ns, dtype=np.float64)
    if times.shape != delays.shape:
        raise ValueError("times and delays must pair up")
    if times.size and (times.min() < 0 or times.max() >= duration_ns):
        raise ValueError("delivery time outside the run")
    bins = times // period_ns
    total = np.bincount(bins, weights=delays, minlength=n)
    count = np.bincount(bins, minlength=n)
    out = np.full(n, np.nan)
    hit = count > 0
    out[hit] = total[hit] / count[hit]
    return out


def smooth(values, width: int) -> np.ndarray:
    x = np.asarray(values, dtype=np.float64)
    ok = ~np.isnan(x)
    filled = np.where(ok, x, 0.0)
    csum = np.concatenate(([0.0], np.cumsum(filled)))
    ccnt = np.concatenate(([0], np.cumsum(ok)))
    idx = np.arange(x.size)
    lo = np.maximum(idx - width // 2, 0)
    hi = np.minimum(idx + (width - width // 2), x.size)
    sums = csum[hi] - csum[lo]
    counts = ccnt[hi] - ccnt[lo]
    out = np.full(x.size, np.nan)
    hit = counts > 0
    out[hit] = sums[hit] / counts[hit]
    return out


def histogram(values, bins: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(edges, counts, density), as `metrics.histogram` gives them."""
    x = np.asarray(values, dtype=np.float64)
    x = x[~np.isnan(x)]
    if x.size == 0:
        return np.linspace(0.0, 1.0, bins + 1), np.zeros(bins), np.zeros(bins)
    counts, edges = np.histogram(x, bins=bins)
    widths = np.diff(edges)
    density = counts / (counts.sum() * np.where(widths > 0, widths, 1.0))
    return edges, counts.astype(np.float64), density


def mean(values) -> float:
    return float(np.asarray(values, dtype=np.float64).mean())


def kde_mode(values) -> float:
    grid, density = kde(values)
    return float(grid[int(np.argmax(density))])


def mode_count(
    density, floor_fraction: float = 0.1, prominence_fraction: float = 0.1
) -> int:
    """Number of distinct modes in a density estimate.

    A local maximum only counts when it is taller than `floor_fraction`
    of the global peak and the valley separating it from every
    already-counted mode dips at least `prominence_fraction` of the
    global peak below it; sampling wiggles on one broad bump merge.
    """
    d = np.asarray(density, dtype=np.float64)
    if d.size < 3 or d.max() <= 0:
        return 0
    floor = d.max() * floor_fraction
    prominence = d.max() * prominence_fraction
    peaks = [
        i for i in range(1, d.size - 1)
        if d[i] > d[i - 1] and d[i] >= d[i + 1] and d[i] > floor
    ]
    peaks.sort(key=lambda i: d[i], reverse=True)
    accepted: list[int] = []
    for i in peaks:
        separated = True
        for j in accepted:
            valley = d[min(i, j) : max(i, j) + 1].min()
            if d[i] - valley < prominence:
                separated = False
                break
        if separated:
            accepted.append(i)
    return len(accepted)


def _rank_with_ties(x: np.ndarray) -> np.ndarray:
    order = np.argsort(x, kind="stable")
    ranks = np.empty(x.size, dtype=np.float64)
    xs = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and xs[j + 1] == xs[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation; pairs with NaN on either side are dropped."""
    a = np.asarray(x, dtype=np.float64)
    b = np.asarray(y, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("series must have equal length")
    keep = ~(np.isnan(a) | np.isnan(b))
    a, b = a[keep], b[keep]
    if a.size < 2:
        return float("nan")
    ra, rb = _rank_with_ties(a), _rank_with_ties(b)
    ra -= ra.mean()
    rb -= rb.mean()
    denom = math.sqrt(float((ra * ra).sum() * (rb * rb).sum()))
    if denom == 0:
        return float("nan")
    return float((ra * rb).sum() / denom)
