"""The LOS kernels as they were before they shared their per-pair work,
kept as the oracles of the columnar kernels, of their broad-phase cache
and of the per-pair route.

`los_paths_vector` is the vector kernel as it was before the kernels
wrote columns: an AABB broad phase rebuilt on every call, the slab test on
its candidates, and one `PathDetails` per pair, in `wire.all_pairs` order.

`los_paths_scalar` is the scalar kernel before it culled boxes by the
segment's bounds: one slab test per pair and box, and the same three
column tuples as `physics._los_paths_scalar`.

`crossing_interval` is that slab test as a loop over the three axes, with
builtin `max` and `min` and a strict containment test of the midpoint;
`physics._pair_hits` writes it out per axis and must agree with it bit for
bit.  `segment_box_crossings` gives its entry and exit points.
"""

from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

import numpy as np

from cosimnet.physics import _BROAD_SLACK, _vec3
from cosimnet.wire import PathDetails

_ENTRY_ORDER = itemgetter(0, 1)  # a hit's entry t, then its box index


def crossing_interval(p0, p1, box):
    """Parametric overlap [t0, t1] of segment p0->p1 with the box, or None.

    Grazing contact is rejected by testing the interval midpoint strictly
    inside the box: a face-sliding or corner-touching segment has its
    midpoint on the boundary and does not count as a crossing.
    """
    t0, t1 = 0.0, 1.0
    for axis in range(3):
        origin = p0[axis]
        delta = p1[axis] - p0[axis]
        lo = box.min_corner[axis]
        hi = box.max_corner[axis]
        if delta == 0.0:
            if origin < lo or origin > hi:
                return None
            continue
        ta = (lo - origin) / delta
        tb = (hi - origin) / delta
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return None
    mid = 0.5 * (t0 + t1)
    midpoint = tuple(a + mid * (b - a) for a, b in zip(p0, p1))
    if not all(lo < v < hi for v, lo, hi in zip(midpoint, box.min_corner, box.max_corner)):
        return None
    return t0, t1


def segment_box_crossings(p0, p1, box):
    """Entry/exit points of the segment through the box; empty when the
    segment misses the box or only grazes its boundary.  A segment entirely
    inside the box yields (p0, p1)."""
    p0 = _vec3(p0, "p0")
    p1 = _vec3(p1, "p1")
    if p0 == p1:
        raise ValueError("segment endpoints must differ")
    interval = crossing_interval(p0, p1, box)
    if interval is None:
        return []
    t0, t1 = interval
    entry = tuple(a + t0 * (b - a) for a, b in zip(p0, p1))
    exit_ = tuple(a + t1 * (b - a) for a, b in zip(p0, p1))
    return [(entry, exit_)]


def pair_hits(p0, p1, world):
    """`physics._pair_hits` without its cull: (entry t, box index, loss)
    for every box `crossing_interval` finds crossed, sorted."""
    if p0 == p1:
        return []
    hits = []
    for k, box in enumerate(world.obstacles):
        interval = crossing_interval(p0, p1, box)
        if interval is not None:
            hits.append((interval[0], k, box.penetration_loss))
    return sorted(hits, key=_ENTRY_ORDER)


def los_paths_scalar(world, positions):
    los, counts, hops = [], [], []
    for i, pi in enumerate(positions):
        for j in range(i + 1, len(positions)):
            pj = positions[j]
            hits = pair_hits(pi, pj, world)
            los.append(not hits)
            counts.append(len(hits))
            for t, _, loss in hits:
                hops.append((*(a + t * (b - a) for a, b in zip(pi, pj)), loss))
    return tuple(los), tuple(counts), tuple(hops)


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
