"""Post-run analysis: goodput and delay series plus distribution summaries.

Everything here is pure computation over the ledgers a run produces, so
the same run always yields the same numbers.  Delay samples with no
deliveries in their period are NaN, and the smoothing and statistics are
written to tolerate that rather than hide it.

The series, histograms and `mean` are plain Python over lists, so a run
never imports numpy to reduce a few hundred samples.  Each one makes
numpy's float operations in numpy's order (`np.bincount`, `np.cumsum`,
`np.histogram`, `ndarray.mean`), so their results are the ones numpy
gives, bit for bit; `tests/series_stats.py` keeps numpy's versions as the
oracle.  `kde` and `silverman_bandwidth` still use numpy, imported when
they are called.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import NamedTuple

SMOOTH_WIDTH = 20

_LEAF = 128  # numpy's pairwise-sum block


def _sample_count(duration_ns: int, period_ns: int) -> int:
    if period_ns <= 0 or duration_ns <= 0 or duration_ns % period_ns:
        raise ValueError(
            f"duration {duration_ns} ns must be a positive multiple of the "
            f"sample period {period_ns} ns"
        )
    return duration_ns // period_ns


def _check_inside(times: list, duration_ns: int) -> None:
    if times and (min(times) < 0 or max(times) >= duration_ns):
        raise ValueError("delivery time outside the run")


def goodput_series(times_ns, bits, duration_ns: int, period_ns: int) -> list[float]:
    """Delivered bits per sample period, scaled to bits per second.

    `bits` is a scalar (uniform packets) or one entry per delivery.
    """
    n = _sample_count(duration_ns, period_ns)
    times = list(times_ns)
    try:
        weights = [float(b) for b in bits]
    except TypeError:  # a scalar
        weights = [float(bits)] * len(times)
    if len(weights) != len(times):
        raise ValueError("times and bits must pair up")
    _check_inside(times, duration_ns)
    binned = [0.0] * n
    for t, w in zip(times, weights):  # in input order, as np.bincount sums
        binned[t // period_ns] += w
    scale = 1e9 / period_ns
    return [v * scale for v in binned]


def delay_series(times_ns, delays_ns, duration_ns: int, period_ns: int) -> list[float]:
    """Mean delivery delay (ns) per sample period; NaN where nothing landed."""
    n = _sample_count(duration_ns, period_ns)
    times = list(times_ns)
    delays = [float(d) for d in delays_ns]
    if len(times) != len(delays):
        raise ValueError("times and delays must pair up")
    _check_inside(times, duration_ns)
    total = [0.0] * n
    count = [0] * n
    for t, d in zip(times, delays):
        k = t // period_ns
        total[k] += d
        count[k] += 1
    return [s / c if c else math.nan for s, c in zip(total, count)]


def smooth(values, width: int = SMOOTH_WIDTH) -> list[float]:
    """Centered box average, skipping NaNs; all-NaN windows stay NaN.

    The window for sample i covers [i - width//2, i + width - width//2),
    clipped to the series.  Window sums are differences of one running
    sum, taken sequentially from the first sample as `np.cumsum` does.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    x = [float(v) for v in values]
    csum = [0.0, *accumulate(0.0 if math.isnan(v) else v for v in x)]
    ccnt = [0, *accumulate(0 if math.isnan(v) else 1 for v in x)]
    n, before, after = len(x), width // 2, width - width // 2
    out = []
    for i in range(n):
        lo, hi = max(i - before, 0), min(i + after, n)
        count = ccnt[hi] - ccnt[lo]
        out.append((csum[hi] - csum[lo]) / count if count else math.nan)
    return out


def _pairwise_sum(x: list[float], start: int, n: int) -> float:
    """numpy's pairwise sum of x[start:start + n]: eight running sums over
    each leaf of at most `_LEAF` values, split in halves rounded down to a
    multiple of eight above that."""
    if n < 8:
        total = -0.0
        for v in x[start:start + n]:
            total += v
        return total
    if n <= _LEAF:
        r = x[start:start + 8]
        stop = start + n - n % 8
        for i in range(start + 8, stop, 8):
            r = [a + b for a, b in zip(r, x[i:i + 8])]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in x[stop:start + n]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return _pairwise_sum(x, start, half) + _pairwise_sum(x, start + half, n - half)


def mean(values) -> float:
    """Arithmetic mean, bit for bit `ndarray.mean` of a float64 array: the
    sum starts at +0.0 and adds numpy's pairwise sum.  NaN when empty."""
    x = [float(v) for v in values]
    if not x:
        return math.nan
    return (0.0 + _pairwise_sum(x, 0, len(x))) / len(x)


class Histogram(NamedTuple):
    edges: list[float]  # len(counts) + 1
    counts: list[float]
    density: list[float]

    @property
    def empty(self) -> bool:
        return not any(self.counts)


def _edges(first: float, last: float, bins: int) -> list[float]:
    """`np.linspace(first, last, bins + 1)`."""
    step = (last - first) / bins
    return [i * step + first for i in range(bins)] + [last]


def histogram(values, bins: int = 40) -> Histogram:
    """Counts over `bins` equal bins spanning the non-NaN values, as
    `np.histogram` bins them, with mass density; a range of one value is
    widened by 0.5 each way.

    One difference from numpy: where the lowest or highest value is a zero
    held with both signs, its edge takes the sign Python's `min` or `max`
    gives, while numpy's vectorised reduction may return either.  A run's
    goodput and delay samples never hold -0.0."""
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    x = [v for v in map(float, values) if not math.isnan(v)]
    if not x:
        return Histogram(_edges(0.0, 1.0, bins), [0.0] * bins, [0.0] * bins)
    first, last = min(x), max(x)
    if not (math.isfinite(first) and math.isfinite(last)):
        raise ValueError(f"range [{first}, {last}] is not finite")
    if first == last:
        first, last = first - 0.5, last + 0.5
    edges = _edges(first, last, bins)
    if any(a >= b for a, b in zip(edges, edges[1:])):
        raise ValueError(f"too many bins for the range [{first}, {last}]")
    span = last - first
    counts = [0] * bins
    for v in x:
        # the bin from the value's fraction of the span, then corrected
        # against the edges the fraction rounded past
        k = int((v - first) / span * bins)
        if k == bins:
            k -= 1
        if v < edges[k]:
            k -= 1
        elif v >= edges[k + 1] and k != bins - 1:
            k += 1
        counts[k] += 1
    total = len(x)
    return Histogram(
        edges,
        [float(c) for c in counts],
        [c / (total * (hi - lo)) for c, lo, hi in zip(counts, edges, edges[1:])],
    )


def silverman_bandwidth(x) -> float:
    import numpy as np

    n = x.size
    std = float(np.std(x))
    q1, q3 = np.percentile(x, [25, 75])
    iqr = float(q3 - q1)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale <= 0:
        # degenerate sample (all equal): pick a sliver relative to scale
        scale = max(abs(float(x[0])), 1.0) * 1e-3
    return 0.9 * scale * n ** (-1 / 5)


def kde(values, grid_points: int = 512):
    """Gaussian kernel density on a padded grid, Silverman bandwidth: the
    grid and the density, as numpy arrays."""
    import numpy as np

    x = np.asarray(values, dtype=np.float64)
    x = x[~np.isnan(x)]
    if x.size == 0:
        grid = np.linspace(0.0, 1.0, grid_points)
        return grid, np.zeros(grid_points)
    h = silverman_bandwidth(x)
    grid = np.linspace(x.min() - 3 * h, x.max() + 3 * h, grid_points)
    density = np.zeros(grid_points)
    norm = 1.0 / (x.size * h * math.sqrt(2 * math.pi))
    for start in range(0, x.size, 4096):
        chunk = x[start : start + 4096]
        z = (grid[:, None] - chunk[None, :]) / h
        density += np.exp(-0.5 * z * z).sum(axis=1)
    return grid, density * norm
