"""The object-building vector LOS kernel, kept as the oracle of the
columnar kernels and of their broad-phase cache.

`los_paths_vector` is the vector kernel as it was before the kernels
wrote columns: an AABB broad phase rebuilt on every call, the slab test on
its candidates, and one `PathDetails` per pair, in `wire.all_pairs` order.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from cosimnet.physics import _BROAD_SLACK
from cosimnet.wire import PathDetails


@lru_cache(maxsize=8)
def _pair_index(n: int):
    """Both ends of every unordered pair i < j, in the scalar loop's order,
    and the pair's LOS path, which is the same object in every window."""
    first, second = np.triu_indices(n, 1)
    first.setflags(write=False)
    second.setflags(write=False)
    los = tuple(
        PathDetails(ij, True, (0,), ()) for ij in zip(first.tolist(), second.tolist())
    )
    return first, second, los


def los_paths_vector(world, positions) -> list[PathDetails]:
    mins, maxs, losses = world._slabs
    first, second, los_paths = _pair_index(len(positions))
    pos = np.array(positions, dtype=np.float64).reshape(-1, 3).T
    p0 = pos.take(first, axis=1)
    p1 = pos.take(second, axis=1)
    delta = p1 - p0

    # broad phase: segment bounds against box bounds, inclusive
    slack = _BROAD_SLACK * float(np.abs(pos).max(initial=0.0))
    seg_lo = np.minimum(p0, p1)[:, :, None] - slack
    seg_hi = np.maximum(p0, p1)[:, :, None] + slack
    near = ((seg_lo <= maxs[:, None, :]) & (seg_hi >= mins[:, None, :])).all(axis=0)
    near &= delta.any(axis=0)[:, None]  # coincident agents are LOS
    pair, box = np.nonzero(near)

    # narrow phase: the slab test per candidate
    origin = p0.take(pair, axis=1)
    step = delta.take(pair, axis=1)
    lo = mins.take(box, axis=1)
    hi = maxs.take(box, axis=1)
    flat = step == 0.0
    divisor = np.where(flat, 1.0, step)
    with np.errstate(over="ignore", invalid="ignore"):
        ta = (lo - origin) / divisor
        tb = (hi - origin) / divisor
        t0 = np.where(flat, 0.0, np.minimum(ta, tb)).max(axis=0)
        t0 = np.where(t0 > 0.0, t0, 0.0)  # max(0.0, ...) keeps +0.0 over -0.0
        t1 = np.minimum(np.where(flat, 1.0, np.maximum(ta, tb)).min(axis=0), 1.0)
        midpoint = origin + 0.5 * (t0 + t1) * step
        crossed = (t0 <= t1) & ((lo < midpoint) & (midpoint < hi)).all(axis=0)
    hit = np.flatnonzero(crossed)
    pair, box, t0 = pair.take(hit), box.take(hit), t0.take(hit)
    entry = origin.take(hit, axis=1) + t0 * step.take(hit, axis=1)

    # np.nonzero lists each pair's boxes in index order and lexsort is
    # stable, so hops come out by (pair, entry t, box index)
    order = np.lexsort((t0, pair))
    hops = tuple(zip(*entry.take(order, axis=1).tolist(), losses.take(box.take(order)).tolist()))
    counts = np.bincount(pair, minlength=len(los_paths)).tolist()
    paths = []
    k = 0
    for los_path, count in zip(los_paths, counts):
        if count:
            paths.append(PathDetails(los_path.ids, False, (count,), hops[k:k + count]))
            k += count
        else:
            paths.append(los_path)
    return paths
