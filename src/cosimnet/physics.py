"""Reference world simulator: agents on polyline tracks in a static box
world, with channel extraction at disk or LOS/NLOS fidelity.

Tracks are piecewise linear and walked at constant speed.  Loop tracks
close implicitly from the last waypoint back to the first; non-loop
tracks clamp at the final waypoint.  Each segment's length and yaw
quaternion are worked out once per track.  Channel extraction reduces the
world to the wire-level ChannelData: agent poses plus, per unordered
agent pair, either a disk-range LOS verdict or the list of obstacle
crossings with their penetration losses.  The kernels write the
snapshot's columns directly (LOS flags, hop counts, hop rows); no
per-pair record is built.

`ReferencePhysicsSim` walks tracks it resolved once, with one arc and
one pose row per agent and no per-agent records; its snapshots build
their pair columns when first read, and answer one pair's losses from
`_pair_hits` until then.  Its reference, the record-based path of
`tests/physics_oracles.py`, gives the same poses and snapshots bit for bit.

LOS/NLOS extraction has two paths that give bit-identical output.  The
scalar path runs `_pair_hits` per pair in Python: the slab test, as
straight-line float code, on each box that the pair's segment's bounds
overlap, found among the boxes the segment's x range can reach in a list
sorted by min x (its loop over axes is the oracle in tests).  The vector
path culls (pair, box) candidates with a broad phase and runs the slab
test on the survivors as numpy array operations; numpy is imported by the
first extraction that takes this path, so a run that never does never
loads it.  The choice depends only on the input size: the vector path
runs from `VECTOR_MIN_TESTS` pair-box tests (pairs x obstacles) per
extraction.  The scalar path stays for two reasons: below that size the
vector path's fixed cost of a few dozen array operations outweighs what
it saves, as in worlds of two agents and a handful of boxes; and it is
the reference the vector path is tested against.  Disk fidelity takes
neither path.

The vector path's broad phase is kept across extractions by a
`BroadPhase`, one per simulator: its candidates are the (pair, box) whose
box, widened by `BROAD_PHASE_SKIN`, the pair's segment crosses, and they
are reused until some agent has moved further than the skin along an
axis.  They stay a superset of what an unwidened test would pass, so the
exact narrow phase gives the same hops.

The simulator contract is two methods, `step(dt_ns)` and
`channel_snapshot(fidelity)`.  `ReferencePhysicsSim` implements it
in-process.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import not_
from typing import Iterable, Protocol, Sequence

from .wire import ChannelData, all_pairs

Vec3 = tuple[float, float, float]


def _vec3(value, what: str) -> Vec3:
    try:
        x, y, z = value
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a 3-vector") from None
    out = (float(x), float(y), float(z))
    if not all(math.isfinite(v) for v in out):
        raise ValueError(f"{what} must be finite, got {out}")
    return out


@dataclass(frozen=True)
class Box:
    """Axis-aligned box; `penetration_loss` is the dB cost of one crossing."""

    min_corner: Vec3
    max_corner: Vec3
    penetration_loss: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "min_corner", _vec3(self.min_corner, "min_corner"))
        object.__setattr__(self, "max_corner", _vec3(self.max_corner, "max_corner"))
        object.__setattr__(self, "penetration_loss", float(self.penetration_loss))
        for axis, (lo, hi) in enumerate(zip(self.min_corner, self.max_corner)):
            if not lo < hi:
                raise ValueError(
                    f"box corners must satisfy min < max componentwise, "
                    f"got {self.min_corner} / {self.max_corner}"
                )
            if not math.isfinite(hi - lo):
                raise ValueError(
                    f"box extent along axis {axis} overflows: {hi!r} - {lo!r}"
                )
        if not (math.isfinite(self.penetration_loss) and self.penetration_loss >= 0):
            raise ValueError(f"penetration_loss must be >= 0, got {self.penetration_loss}")

    def contains(self, point: Vec3) -> bool:
        return all(
            lo <= v <= hi
            for v, lo, hi in zip(point, self.min_corner, self.max_corner)
        )


@dataclass(frozen=True)
class WorldModel:
    """Static world: outer bounds plus zero or more obstacle boxes."""

    bounds: Box
    obstacles: tuple[Box, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "obstacles", tuple(self.obstacles))
        for idx, box in enumerate(self.obstacles):
            inside = all(
                blo <= lo and hi <= bhi
                for lo, hi, blo, bhi in zip(
                    box.min_corner, box.max_corner,
                    self.bounds.min_corner, self.bounds.max_corner,
                )
            )
            if not inside:
                raise ValueError(f"obstacle {idx} extends outside the world bounds")

    @cached_property
    def _slabs(self) -> tuple:
        """Obstacle min corners and max corners, axis-major (3, boxes), and
        losses as read-only numpy arrays, built on first use and kept for
        the life of the world."""
        import numpy as np

        def axis_major(corners):
            return np.array(corners, dtype=np.float64).reshape(-1, 3).T.copy()

        arrays = (
            axis_major([b.min_corner for b in self.obstacles]),
            axis_major([b.max_corner for b in self.obstacles]),
            np.array([b.penetration_loss for b in self.obstacles], dtype=np.float64),
        )
        for array in arrays:
            array.setflags(write=False)
        return arrays

    @cached_property
    def _box_rows(self) -> tuple:
        """The boxes `_pair_hits` tests, built on first use: ``(rows,
        min_xs, widest)``.  A row is an obstacle as (index, min x, y, z, max
        x, y, z, penetration loss), and the rows are sorted by min x;
        `min_xs` is that column, and `widest` is at least every box's real
        max x minus min x."""
        rows = sorted(
            ((k, *b.min_corner, *b.max_corner, b.penetration_loss)
             for k, b in enumerate(self.obstacles)),
            key=lambda row: row[1],
        )
        # the float difference may round below the real one; the next float
        # up cannot
        widest = max(
            (math.nextafter(row[4] - row[1], math.inf) for row in rows), default=0.0
        )
        return tuple(rows), tuple(row[1] for row in rows), widest


@dataclass(frozen=True)
class AgentTrack:
    """Polyline path for one agent, walked at constant speed.

    Loop tracks close implicitly (last waypoint back to the first), so a
    loop's first and last waypoints must differ; writing the closure
    explicitly would create a zero-length segment at the wrap.
    """

    agent_id: int
    waypoints: tuple[Vec3, ...]
    speed: float
    loop: bool = False

    def __post_init__(self):
        if not isinstance(self.agent_id, int) or self.agent_id < 0:
            raise ValueError(f"agent_id must be a non-negative int, got {self.agent_id}")
        pts = tuple(_vec3(p, f"waypoint {i}") for i, p in enumerate(self.waypoints))
        if not pts:
            raise ValueError("track needs at least one waypoint")
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError(f"consecutive duplicate waypoint {a}")
        if self.loop and len(pts) >= 2 and pts[0] == pts[-1]:
            raise ValueError("loop closure is implicit; drop the repeated final waypoint")
        object.__setattr__(self, "waypoints", pts)
        object.__setattr__(self, "speed", float(self.speed))
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError(f"speed must be > 0, got {self.speed}")


class FidelityKind(Enum):
    DISK = "disk"
    LOS_NLOS = "los_nlos"


@dataclass(frozen=True)
class ChannelFidelity:
    """Channel extraction tier: binary disk connectivity or geometric
    LOS/NLOS with per-obstacle penetration losses."""

    kind: FidelityKind
    radius: float | None = None

    def __post_init__(self):
        if self.kind is FidelityKind.DISK:
            if self.radius is None:
                raise ValueError("disk fidelity needs a radius")
            object.__setattr__(self, "radius", float(self.radius))
            if not (math.isfinite(self.radius) and self.radius > 0):
                raise ValueError(f"disk radius must be > 0, got {self.radius}")
        elif self.radius is not None:
            raise ValueError("radius only applies to disk fidelity")

    @classmethod
    def disk(cls, radius: float) -> "ChannelFidelity":
        return cls(FidelityKind.DISK, radius)

    @classmethod
    def los_nlos(cls) -> "ChannelFidelity":
        return cls(FidelityKind.LOS_NLOS)


# ---------------------------------------------------------------------------
# Track geometry


@lru_cache(maxsize=512)
def _segment_table(waypoints: tuple[Vec3, ...], loop: bool):
    """Per-segment (start, end, length, cumulative start arc, yaw
    quaternion), and the total length."""
    pts = list(waypoints)
    if loop and len(pts) >= 2:
        pts.append(pts[0])
    table = []
    cum = 0.0
    for a, b in zip(pts, pts[1:]):
        length = math.dist(a, b)
        direction = tuple(pb - pa for pa, pb in zip(a, b))
        table.append((a, b, length, cum, _yaw_quaternion(direction)))
        cum += length
    return tuple(table), cum


def track_length(track: AgentTrack) -> float:
    """Total polyline length, including the implicit closing segment of a
    loop track.  Zero for a single-waypoint track."""
    return _segment_table(track.waypoints, track.loop)[1]


def _yaw_quaternion(direction: Vec3) -> tuple[float, float, float, float]:
    yaw = math.atan2(direction[1], direction[0])
    return (0.0, 0.0, math.sin(yaw / 2), math.cos(yaw / 2))


# ---------------------------------------------------------------------------
# Channel extraction


# Pair-box tests per extraction from which the vector path runs.  Scalar /
# vector us per extraction, the median over 16 random fields of 3-15 m
# boxes in a 120 m square, broad phase kept, one pinned CPU of a 2-vCPU host:
#   tests   1 pair    3 pairs   6 pairs   15 pairs
#   120     24 / 36   26 / 66   24 / 36   31 / 37
#   180     20 / 35   33 / 37   31 / 37   39 / 38
#   240     37 / 37   38 / 36   41 / 37   61 / 40
#   300     72 / 65   41 / 37   44 / 38   56 / 39
#   360     49 / 38   42 / 37   59 / 39   58 / 38
# The scalar path is the faster one in most fields below 240 tests, the
# vector path from 240 on.
VECTOR_MIN_TESTS = 240

# Relative widening of the broad phase's bounds, as a share of the largest
# coordinate in reach.  It covers the rounding of three float computations,
# each within a few ulps of that coordinate (see `BroadPhase`), with a
# margin of several hundred.
_BROAD_SLACK = 1e-12

# Metres by which `BroadPhase` widens each box, so that its candidates hold
# while no agent has moved further than this along any axis.  Measured on
# swarm16 (16 agents at 1-6 m/s, 50 boxes, 1 ms windows) on a 2-vCPU host:
# a rebuild costs 66 us, about two thirds of one window's narrow phase,
# whose 100-110 us hardly moves as the skin grows from 0 to 4 m (631 to 796
# candidates).  At 1 m the fastest agent forces a rebuild every 170
# windows, under 0.5 us a window.
BROAD_PHASE_SKIN = 1.0


def _snapshot(
    world: WorldModel, poses: tuple, fidelity: ChannelFidelity, broad_phase: "BroadPhase"
) -> ChannelData:
    """The snapshot over pose rows `poses`, one per agent in id order."""
    n = len(poses)
    positions = [row[:3] for row in poses]
    if fidelity.kind is FidelityKind.DISK:
        los = tuple(
            math.dist(positions[i], positions[j]) <= fidelity.radius
            for i in range(n)
            for j in range(i + 1, n)
        )
        no_paths = (0,) * (len(los) + 1)
        return ChannelData.of_all_pairs(poses, los, no_paths, (), no_paths, ())
    if n * (n - 1) // 2 * len(world.obstacles) >= VECTOR_MIN_TESTS:
        paths = _los_paths_vector(world, positions, broad_phase)
    else:
        paths = _los_paths_scalar(world, positions)
    return _one_path_snapshot(poses, *paths)


def _one_path_snapshot(poses: tuple, los: tuple, counts: tuple, hops: tuple) -> ChannelData:
    """The snapshot over `poses` whose pairs, listed as `wire.all_pairs`,
    report one path each: the LOS/NLOS kernels' three columns."""
    return ChannelData.of_all_pairs(
        poses, los, _path_starts(len(counts)), counts,
        tuple(accumulate(counts, initial=0)), hops,
    )


@lru_cache(maxsize=4)
def _path_starts(pairs: int) -> tuple[int, ...]:
    """The path offsets of `pairs` pairs with one path each."""
    return tuple(range(pairs + 1))


def _pair_hits(p0: Vec3, p1: Vec3, boxes: tuple) -> list:
    """The boxes segment p0->p1 crosses, as (entry t, box index, loss) rows
    sorted by entry t, then box index; none for coincident ends.  Only the
    boxes of `boxes` (`WorldModel._box_rows`) that overlap the segment's
    bounds widened by `_BROAD_SLACK` get the slab test: a hit's midpoint
    lies within a few ulps of the segment.  Those bounds are tested on the
    slice of rows whose min x lies in [lx - widest, hx], which holds every
    box whose x extent reaches [lx, hx]: the slice's lower end is the float
    below the rounded lx - widest, so it is at most the real difference.

    The slab test is written out per axis: a flat axis outside its slab
    misses, every other axis narrows [t0, t1], and a hit's midpoint lies
    strictly inside the box, so grazing contact does not count.  These are
    the float operations of `tests.physics_oracles.crossing_interval` in
    its order (`if ta > t0` picks what `max(t0, ta)` does): bit-identical."""
    if p0 == p1:
        return []
    ax, ay, az = p0
    bx, by, bz = p1
    dx, dy, dz = bx - ax, by - ay, bz - az
    w = _BROAD_SLACK * max(abs(ax), abs(ay), abs(az), abs(bx), abs(by), abs(bz))
    lx, hx = (ax - w, bx + w) if ax < bx else (bx - w, ax + w)
    ly, hy = (ay - w, by + w) if ay < by else (by - w, ay + w)
    lz, hz = (az - w, bz + w) if az < bz else (bz - w, az + w)
    rows, xs, widest = boxes
    low = bisect_left(xs, math.nextafter(lx - widest, -math.inf))
    hits = []
    for k, x0, y0, z0, x1, y1, z1, loss in rows[low : bisect_right(xs, hx)]:
        if not (x0 <= hx and lx <= x1 and y0 <= hy and ly <= y1 and z0 <= hz and lz <= z1):
            continue
        t0, t1 = 0.0, 1.0
        if dx == 0.0:
            if ax < x0 or ax > x1:
                continue
        else:
            ta = (x0 - ax) / dx
            tb = (x1 - ax) / dx
            if ta > tb:
                ta, tb = tb, ta
            if ta > t0:
                t0 = ta
            if tb < t1:
                t1 = tb
            if t0 > t1:
                continue
        if dy == 0.0:
            if ay < y0 or ay > y1:
                continue
        else:
            ta = (y0 - ay) / dy
            tb = (y1 - ay) / dy
            if ta > tb:
                ta, tb = tb, ta
            if ta > t0:
                t0 = ta
            if tb < t1:
                t1 = tb
            if t0 > t1:
                continue
        if dz == 0.0:
            if az < z0 or az > z1:
                continue
        else:
            ta = (z0 - az) / dz
            tb = (z1 - az) / dz
            if ta > tb:
                ta, tb = tb, ta
            if ta > t0:
                t0 = ta
            if tb < t1:
                t1 = tb
            if t0 > t1:
                continue
        mid = 0.5 * (t0 + t1)
        if x0 < ax + mid * dx < x1 and y0 < ay + mid * dy < y1 and z0 < az + mid * dz < z1:
            hits.append((t0, k, loss))
    hits.sort()  # box indices differ, so no two rows tie up to the loss
    return hits


def _los_paths_scalar(world: WorldModel, positions: Sequence[Vec3]):
    """Each pair's LOS verdict, hop count and hops, as three column tuples,
    by `_pair_hits` per pair, each hop at its entry point."""
    boxes = world._box_rows
    los, counts, hops = [], [], []
    for i, pi in enumerate(positions):
        for j in range(i + 1, len(positions)):
            pj = positions[j]
            hits = _pair_hits(pi, pj, boxes)
            los.append(not hits)
            counts.append(len(hits))
            for t, _, loss in hits:
                hops.append((*(a + t * (b - a) for a, b in zip(pi, pj)), loss))
    return tuple(los), tuple(counts), tuple(hops)


@lru_cache(maxsize=8)
def _pair_ends(n: int) -> tuple:
    """The two ends of every pair of `wire.all_pairs(n)`, as two numpy
    arrays."""
    import numpy as np

    ends = np.array(all_pairs(n), dtype=np.intp).reshape(-1, 2).T.copy()
    ends.setflags(write=False)
    return ends[0], ends[1]


class BroadPhase:
    """The vector kernel's (pair, box) candidates, kept across extractions.

    The candidates are the (pair, box) whose box, widened by
    `BROAD_PHASE_SKIN` plus a rounding slack, the pair's segment crosses
    (a closed slab test), at the positions they were built for: the
    anchor.  While no agent is further than the skin from its anchor along
    any axis, each point of a pair's segment is within the skin of the
    anchor segment's point at the same parameter, since it moves no further
    (in L-infinity) than the farther of the segment's two ends.  So every
    box the segment touches, and every box the exact test can hit, is
    still among the candidates, and the narrow phase rejects the rest: the
    hops come out the same as from candidates rebuilt every time.
    Otherwise, or for another world or agent count, they are rebuilt.

    The slack, `_BROAD_SLACK` times the largest anchor coordinate plus the
    skin (`reach`), covers three roundings, each at most a few ulps of
    `reach`: the skin check's differences, so an agent may be a few ulps
    more than the skin from its anchor; the narrow phase's computed
    midpoint, which may lie that far off the exact segment (the
    rounded-past-the-end hit); and the anchor's own slab test, whose
    parameters carry a relative error of a few ulps, moving each face it
    tests by a few ulps of `reach`.  Together that is under 16 ulps, or
    2e-15 `reach`, against the 1e-12 the slack allows.

    Along with the candidates it keeps their gathers: each pair's two ends
    and each box's corners, until the next rebuild.
    """

    def __init__(self):
        self._world = None
        self._anchor = None  # (3, n) positions the candidates were built for
        self._candidates = None

    def candidates(self, world: WorldModel, pos) -> tuple:
        """(pair, box, pair's first end, pair's second end, box min
        corners, box max corners) per candidate for axis-major positions
        `pos`, a (3, n) numpy array, listed by pair, then box index; the
        corners are (3, candidates)."""
        anchor = self._anchor
        if (
            world is not self._world
            or anchor is None
            or anchor.shape != pos.shape
            or not abs(pos - anchor).max(initial=0.0) <= BROAD_PHASE_SKIN
        ):
            self._build(world, pos)
        return self._candidates

    def _build(self, world: WorldModel, pos) -> None:
        import numpy as np

        mins, maxs, _ = world._slabs
        first, second = _pair_ends(pos.shape[1])
        p0 = pos.take(first, axis=1)
        p1 = pos.take(second, axis=1)
        reach = float(np.abs(pos).max(initial=0.0)) + BROAD_PHASE_SKIN
        widen = BROAD_PHASE_SKIN + _BROAD_SLACK * reach
        lo_all = mins - widen
        hi_all = maxs + widen
        # the segments' bounds overlap the widened boxes: a cheap first cut
        near = (
            (np.minimum(p0, p1)[:, :, None] <= hi_all[:, None, :])
            & (np.maximum(p0, p1)[:, :, None] >= lo_all[:, None, :])
        ).all(axis=0)
        pair, box = np.nonzero(near)
        # then the closed slab test of each anchor segment against its
        # widened box
        origin = p0.take(pair, axis=1)
        step = p1.take(pair, axis=1) - origin
        lo = lo_all.take(box, axis=1)
        hi = hi_all.take(box, axis=1)
        flat = step == 0.0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            ta = (lo - origin) / step
            tb = (hi - origin) / step
            t0 = np.where(flat, 0.0, np.minimum(ta, tb)).max(axis=0, initial=0.0)
            t1 = np.where(flat, 1.0, np.maximum(ta, tb)).min(axis=0, initial=1.0)
        inside = ~flat | ((lo <= origin) & (origin <= hi))
        keep = np.flatnonzero((t0 <= t1) & inside.all(axis=0))
        pair, box = pair.take(keep), box.take(keep)
        self._candidates = (
            pair, box, first.take(pair), second.take(pair),
            mins.take(box, axis=1), maxs.take(box, axis=1),
        )
        self._world = world
        self._anchor = pos.copy()


def _los_paths_vector(world: WorldModel, positions: Sequence[Vec3], broad_phase: BroadPhase):
    """`_los_paths_scalar` over whole arrays: the candidates of
    `broad_phase`, then the slab test on them.

    Every verdict and hop coordinate is bit-identical to the scalar path:
    the slab parameters, the midpoint and the entry point come from the
    same float operations in the same order, and the interval ends are
    plain maxima and minima of the same values, with a zero t0 kept at
    +0.0 as the scalar path's `if ta > t0` keeps it.  Arrays are axis-major,
    (3, ...), so that every step is an elementwise operation on whole rows.
    """
    import numpy as np

    losses = world._slabs[2]
    pos = np.array(positions, dtype=np.float64).reshape(-1, 3).T
    pair, box, first, second, lo, hi = broad_phase.candidates(world, pos)

    # narrow phase: the slab test per candidate
    origin = pos.take(first, axis=1)
    step = pos.take(second, axis=1) - origin
    moving = step.any(axis=0)
    if not moving.all():  # coincident agents are LOS
        pair, box, origin, step, lo, hi = (
            pair[moving], box[moving], origin[:, moving], step[:, moving],
            lo[:, moving], hi[:, moving],
        )
    # An axis with zero delta takes no part in t0, t1 and divides by 1.0, not
    # 0.0.  Its scalar check, origin outside the slab, needs no code here:
    # the midpoint's coordinate on that axis is the origin's, so the strict
    # midpoint test rejects the same candidates.
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

    # candidates list each pair's boxes in index order and lexsort is
    # stable, so hops come out by (pair, entry t, box index)
    order = np.lexsort((t0, pair))
    hops = tuple(zip(*entry.take(order, axis=1).tolist(), losses.take(box.take(order)).tolist()))
    counts = tuple(np.bincount(pair, minlength=len(positions) * (len(positions) - 1) // 2).tolist())
    return tuple(map(not_, counts)), counts, hops


# ---------------------------------------------------------------------------
# Simulator contract


class PhysicsSim(Protocol):
    """What the physics coordinator needs from any world simulator."""

    def step(self, dt_ns: int) -> None: ...

    def channel_snapshot(self, fidelity: ChannelFidelity) -> ChannelData: ...


def _walk(track: AgentTrack) -> tuple:
    """A moving track resolved for `ReferencePhysicsSim`: its speed, total
    length, loop flag, segment end arcs, and segments as (start x, y, z,
    delta x, y, z, start arc, length, yaw quaternion).

    The last end arc is the total length, by the same sum, so every arc a
    step makes (up to the total, or below it on a loop) falls in a segment.
    """
    table, total = _segment_table(track.waypoints, track.loop)
    ends = [cum + length for _, _, length, cum, _ in table]
    segments = [
        (*a, *(pb - pa for pa, pb in zip(a, b)), cum, length, *yaw)
        for a, b, length, cum, yaw in table
    ]
    return track.speed, total, track.loop, ends, segments


class _Extraction:
    """Source of `ReferencePhysicsSim`'s deferred snapshots at one
    fidelity: all pair columns through `_snapshot`, or one pair's
    first-path losses from `_pair_hits`."""

    def __init__(self, world: WorldModel, fidelity: ChannelFidelity, broad_phase: BroadPhase):
        self.fidelity = fidelity
        self._world = world
        self._broad_phase = broad_phase
        self._radius = fidelity.radius if fidelity.kind is FidelityKind.DISK else None
        self._boxes = world._box_rows

    def columns(self, poses: tuple) -> ChannelData:
        return _snapshot(self._world, poses, self.fidelity, self._broad_phase)

    def first_path_losses(self, poses: tuple, i: int, j: int) -> tuple | None:
        p0, p1 = poses[i][:3], poses[j][:3]
        if self._radius is not None:
            return None if math.dist(p0, p1) <= self._radius else ()
        hits = _pair_hits(p0, p1, self._boxes)
        return tuple([loss for _, _, loss in hits]) if hits else None


class ReferencePhysicsSim:
    """In-process simulator: agents walked on their tracks, and the
    snapshot extracted from their poses.

    Each track is resolved once, at construction: its segment table, total
    length, loop flag and speed.  A step then updates one arc and one
    7-float pose row (position, orientation quaternion) per agent; the
    first rows are those a step writes at arc 0.  The float operations are
    those of `step_world` and `track_pose` in `tests/physics_oracles.py`,
    in their order, so the poses are bit-identical to theirs; those two,
    and `extract_channel_data` over their states, are its reference.  When
    every agent is parked, each snapshot at one fidelity is the same object.
    Its snapshots are `wire.ChannelData.deferred`.
    """

    def __init__(self, world: WorldModel, tracks: Iterable[AgentTrack]):
        self.world = world
        self._broad_phase = BroadPhase()
        by_id: dict[int, AgentTrack] = {}
        for track in tracks:
            if track.agent_id in by_id:
                raise ValueError(f"duplicate track for agent {track.agent_id}")
            for j, w in enumerate(track.waypoints):
                if not world.bounds.contains(w):
                    raise ValueError(
                        f"agent {track.agent_id} waypoint {j} {w} is outside the world bounds"
                    )
            by_id[track.agent_id] = track
        ids = sorted(by_id)
        if ids != list(range(len(ids))):
            raise ValueError(f"agent ids must be dense 0..n-1, got {ids}")
        self._arcs = [0.0] * len(ids)
        # a parked agent (one waypoint) keeps this row; a moving one's follows
        self._rows = [by_id[k].waypoints[0] + (0.0, 0.0, 0.0, 1.0) for k in ids]
        self._walks = [
            (k, _walk(by_id[k])) for k in ids if track_length(by_id[k]) != 0.0
        ]
        for k, (_, _, _, _, segments) in self._walks:
            # the row `step` writes at arc 0: segment 0 at u = 0.0, so a -0.0
            # coordinate turns +0.0 where that axis's delta is not negative
            ax, ay, az, dx, dy, dz, _, _, qx, qy, qz, qw = segments[0]
            self._rows[k] = (ax + 0.0 * dx, ay + 0.0 * dy, az + 0.0 * dz, qx, qy, qz, qw)
        self._extraction: _Extraction | None = None
        # (fidelity, snapshot) taken when every agent is parked
        self._still: tuple | None = None

    def step(self, dt_ns: int) -> None:
        if dt_ns <= 0:
            raise ValueError(f"dt must be > 0 ns, got {dt_ns}")
        dt = dt_ns * 1e-9
        arcs, rows, fmod = self._arcs, self._rows, math.fmod
        for k, (speed, total, loop, ends, segments) in self._walks:
            # step_world's new arc, then track_pose's segment (both in the
            # test oracles): the first whose end arc is not below it
            arc = arcs[k] + speed * dt
            arcs[k] = arc = fmod(arc, total) if loop else min(arc, total)
            ax, ay, az, dx, dy, dz, cum, length, qx, qy, qz, qw = segments[
                bisect_left(ends, arc)
            ]
            u = (arc - cum) / length
            rows[k] = (ax + u * dx, ay + u * dy, az + u * dz, qx, qy, qz, qw)

    def channel_snapshot(self, fidelity: ChannelFidelity) -> ChannelData:
        """The current poses' snapshot.  Disk fidelity gives a bare LOS
        verdict per pair (in range or not); LOS/NLOS fidelity one aggregate
        path per pair whose hops are the obstacle entry points in crossing
        order, each carrying that obstacle's penetration loss.  Coincident
        agents see each other LOS: a zero-length segment crosses nothing.
        Pairs are listed as `wire.all_pairs`."""
        still = self._still
        if still is not None and still[0] is fidelity:
            return still[1]
        source = self._extraction
        if source is None or source.fidelity is not fidelity:
            source = self._extraction = _Extraction(self.world, fidelity, self._broad_phase)
        snapshot = ChannelData.deferred(tuple(self._rows), source)
        if not self._walks:
            self._still = (fidelity, snapshot)
        return snapshot
