"""Distribution summaries that only the tests read: the mode of a kernel
density, its number of distinct modes, and Spearman's rank correlation."""

from __future__ import annotations

import math

import numpy as np

from cosimnet.metrics import kde


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
