"""Post-run analysis: goodput and delay series plus distribution summaries.

Everything here is pure computation over the ledgers a run produces, so
the same run always yields the same numbers.  Delay samples with no
deliveries in their period are NaN, and the smoothing and statistics are
written to tolerate that rather than hide it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SMOOTH_WIDTH = 20


def _sample_count(duration_ns: int, period_ns: int) -> int:
    if period_ns <= 0 or duration_ns <= 0 or duration_ns % period_ns:
        raise ValueError(
            f"duration {duration_ns} ns must be a positive multiple of the "
            f"sample period {period_ns} ns"
        )
    return duration_ns // period_ns


def goodput_series(
    times_ns, bits, duration_ns: int, period_ns: int
) -> np.ndarray:
    """Delivered bits per sample period, scaled to bits per second.

    `bits` is a scalar (uniform packets) or one entry per delivery.
    """
    n = _sample_count(duration_ns, period_ns)
    times = np.asarray(times_ns, dtype=np.int64)
    if times.size and (times.min() < 0 or times.max() >= duration_ns):
        raise ValueError("delivery time outside the run")
    weights = np.broadcast_to(np.asarray(bits, dtype=np.float64), times.shape)
    binned = np.bincount(times // period_ns, weights=weights, minlength=n)
    return binned * (1e9 / period_ns)


def delay_series(
    times_ns, delays_ns, duration_ns: int, period_ns: int
) -> np.ndarray:
    """Mean delivery delay (ns) per sample period; NaN where nothing landed."""
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


def smooth(values, width: int = SMOOTH_WIDTH) -> np.ndarray:
    """Centered box average, skipping NaNs; all-NaN windows stay NaN.

    The window for sample i covers [i - width//2, i + width - width//2),
    clipped to the series.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
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


@dataclass(frozen=True)
class Histogram:
    edges: np.ndarray  # len(counts) + 1
    counts: np.ndarray
    density: np.ndarray

    @property
    def empty(self) -> bool:
        return int(self.counts.sum()) == 0


def histogram(values, bins: int = 40) -> Histogram:
    x = np.asarray(values, dtype=np.float64)
    x = x[~np.isnan(x)]
    if x.size == 0:
        edges = np.linspace(0.0, 1.0, bins + 1)
        zero = np.zeros(bins)
        return Histogram(edges, zero, zero.copy())
    counts, edges = np.histogram(x, bins=bins)
    widths = np.diff(edges)
    density = counts / (counts.sum() * np.where(widths > 0, widths, 1.0))
    return Histogram(edges, counts.astype(np.float64), density)


def silverman_bandwidth(x: np.ndarray) -> float:
    n = x.size
    std = float(np.std(x))
    q1, q3 = np.percentile(x, [25, 75])
    iqr = float(q3 - q1)
    scale = min(std, iqr / 1.34) if iqr > 0 else std
    if scale <= 0:
        # degenerate sample (all equal): pick a sliver relative to scale
        scale = max(abs(float(x[0])), 1.0) * 1e-3
    return 0.9 * scale * n ** (-1 / 5)


def kde(values, grid_points: int = 512) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density on a padded grid, Silverman bandwidth."""
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
