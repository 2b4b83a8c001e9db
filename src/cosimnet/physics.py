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

LOS/NLOS extraction has two paths that give bit-identical output.  The
scalar path runs one slab test per pair and box in Python.  The vector
path culls (pair, box) candidates with an axis-aligned bounding-box broad
phase and runs the slab test on the survivors as numpy array operations.
The choice depends only on the input size: the vector path runs from
`VECTOR_MIN_TESTS` pair-box tests (pairs x obstacles) per extraction.
The scalar path stays for two reasons: below that size the vector path's
fixed cost of a few dozen array operations outweighs what it saves, as
in worlds of two agents and a handful of boxes; and it is the reference
the vector path is tested against.  Disk fidelity takes neither path.

The vector path's broad phase is kept across extractions by a
`BroadPhase`, one per simulator: its candidates are built with segment
bounds widened by `BROAD_PHASE_SKIN` and reused until some agent has
moved further than that along an axis.  They stay a superset of what an
unwidened broad phase would pass, so the exact narrow phase gives the
same hops.

The simulator contract is two methods, `step(dt_ns)` and
`channel_snapshot(fidelity)`.  `ReferencePhysicsSim` implements it
in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from itertools import accumulate
from operator import itemgetter, not_
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .wire import ChannelData, Pose, all_pairs

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
        for lo, hi in zip(self.min_corner, self.max_corner):
            if not lo < hi:
                raise ValueError(
                    f"box corners must satisfy min < max componentwise, "
                    f"got {self.min_corner} / {self.max_corner}"
                )
        if not (math.isfinite(self.penetration_loss) and self.penetration_loss >= 0):
            raise ValueError(f"penetration_loss must be >= 0, got {self.penetration_loss}")

    def contains(self, point: Vec3, strict: bool = False) -> bool:
        if strict:
            return all(
                lo < v < hi
                for v, lo, hi in zip(point, self.min_corner, self.max_corner)
            )
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
    def _slabs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Obstacle min corners and max corners, axis-major (3, boxes), and
        losses as read-only arrays, built on first use and kept for the life
        of the world."""
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


@dataclass(frozen=True)
class AgentState:
    """Kinematic state: the pose always lies on the agent's track polyline."""

    agent_id: int
    pose: Pose
    arc_position: float = 0.0


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


def track_pose(track: AgentTrack, arc: float) -> Pose:
    """Pose at a given arc position: position interpolated on the polyline,
    orientation yaw-aligned with the local segment direction (about +z)."""
    table, total = _segment_table(track.waypoints, track.loop)
    if not table or total == 0.0:
        return Pose(track.waypoints[0])
    if track.loop:
        arc = math.fmod(arc, total)
        if arc < 0:
            arc += total
    else:
        arc = min(max(arc, 0.0), total)
    for a, b, length, cum, yaw in table:
        if arc <= cum + length:
            u = (arc - cum) / length
            return Pose(tuple(pa + u * (pb - pa) for pa, pb in zip(a, b)), yaw)
    # arc == total on a non-loop track lands past the last cum + length only
    # through rounding; pin it to the final waypoint
    _, b, _, _, yaw = table[-1]
    return Pose(b, yaw)


def initial_agent_states(tracks: Iterable[AgentTrack]) -> list[AgentState]:
    """One agent per track, parked at the start of its polyline."""
    states = []
    for track in sorted(tracks, key=lambda t: t.agent_id):
        states.append(AgentState(track.agent_id, track_pose(track, 0.0), 0.0))
    return states


def step_world(
    world: WorldModel,
    tracks: Mapping[int, AgentTrack],
    agents: Sequence[AgentState],
    dt_ns: int,
) -> list[AgentState]:
    """Advance every agent speed*dt along its track.

    Loop tracks wrap (fmod is exact, so repeated wrapping does not drift);
    non-loop tracks clamp at the final waypoint.  The world is carried for
    contract stability; the reference motion model ignores geometry.
    """
    if dt_ns <= 0:
        raise ValueError(f"dt must be > 0 ns, got {dt_ns}")
    out = []
    for state in agents:
        track = tracks.get(state.agent_id)
        if track is None:
            raise ValueError(f"agent {state.agent_id} has no track")
        total = track_length(track)
        arc = state.arc_position + track.speed * (dt_ns * 1e-9)
        if total == 0.0:
            arc = 0.0
        elif track.loop:
            arc = math.fmod(arc, total)
        else:
            arc = min(arc, total)
        out.append(AgentState(state.agent_id, track_pose(track, arc), arc))
    return out


# ---------------------------------------------------------------------------
# Segment/box intersection (slab method)


def _crossing_interval(p0: Vec3, p1: Vec3, box: Box):
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
    if not box.contains(midpoint, strict=True):
        return None
    return t0, t1


def segment_box_crossings(
    p0: Vec3, p1: Vec3, box: Box
) -> list[tuple[Vec3, Vec3]]:
    """Entry/exit points of the segment through the box; empty when the
    segment misses the box or only grazes its boundary.  A segment entirely
    inside the box yields (p0, p1)."""
    p0 = _vec3(p0, "p0")
    p1 = _vec3(p1, "p1")
    if p0 == p1:
        raise ValueError("segment endpoints must differ")
    interval = _crossing_interval(p0, p1, box)
    if interval is None:
        return []
    t0, t1 = interval
    entry = tuple(a + t0 * (b - a) for a, b in zip(p0, p1))
    exit_ = tuple(a + t1 * (b - a) for a, b in zip(p0, p1))
    return [(entry, exit_)]


# ---------------------------------------------------------------------------
# Channel extraction


# Pair-box tests per extraction from which the vector path runs.  Measured
# crossover on a 2-vCPU host: with one pair the two paths tie between 60
# and 100 tests; with three or more pairs the vector path already wins at
# 56-60, where the scalar path's per-pair overhead adds up.
VECTOR_MIN_TESTS = 64

# Relative widening of the broad phase's segment bounds.  The narrow phase
# tests a computed midpoint, which rounding can put a few ulps of the
# coordinate magnitudes past the segment's end; the slack keeps such boxes
# among the candidates.
_BROAD_SLACK = 1e-12

# Metres by which `BroadPhase` widens each pair's segment bounds, so that
# its candidates hold while no agent has moved further than this along any
# axis.  Measured on swarm16 (16 agents at 1-6 m/s, 50 boxes, 1 ms windows)
# on a 2-vCPU host: a rebuild costs 66 us, about two thirds of one window's
# narrow phase, whose 100-110 us hardly moves as the skin grows from 0 to
# 4 m (631 to 796 candidates).  At 1 m the fastest agent forces a rebuild
# every 170 windows, under 0.5 us a window.
BROAD_PHASE_SKIN = 1.0


def extract_channel_data(
    world: WorldModel,
    agents: Sequence[AgentState],
    fidelity: ChannelFidelity,
    broad_phase: "BroadPhase | None" = None,
) -> ChannelData:
    """Reduce world geometry to ChannelData for the current agent set.

    Disk fidelity emits a bare LOS verdict per pair (in range or not);
    LOS/NLOS fidelity emits one aggregate path per pair whose hops are the
    obstacle entry points in crossing order, each carrying that obstacle's
    penetration loss.  Coincident agents see each other LOS: a zero-length
    segment crosses nothing.  Pairs are listed as `wire.all_pairs`.  The
    vector kernel keeps its broad phase in `broad_phase` from one call to
    the next; without one it builds a fresh one.
    """
    states = sorted(agents, key=lambda s: s.agent_id)
    ids = [s.agent_id for s in states]
    if ids != list(range(len(states))):
        raise ValueError(f"agent ids must be dense 0..n-1, got {ids}")
    n = len(states)
    poses = tuple([s.pose.position + s.pose.orientation for s in states])
    positions = [s.pose.position for s in states]
    if fidelity.kind is FidelityKind.DISK:
        los = tuple(
            math.dist(positions[i], positions[j]) <= fidelity.radius
            for i in range(n)
            for j in range(i + 1, n)
        )
        no_paths = (0,) * (len(los) + 1)
        return ChannelData.from_columns(poses, all_pairs(n), los, no_paths, (), no_paths, ())
    if n * (n - 1) // 2 * len(world.obstacles) >= VECTOR_MIN_TESTS:
        paths = _los_paths_vector(
            world, positions, BroadPhase() if broad_phase is None else broad_phase
        )
    else:
        paths = _los_paths_scalar(world, positions)
    return _one_path_snapshot(poses, *paths)


def _one_path_snapshot(poses: tuple, los: tuple, counts: tuple, hops: tuple) -> ChannelData:
    """The snapshot over `poses` whose pairs, listed as `wire.all_pairs`,
    report one path each: the LOS/NLOS kernels' three columns."""
    return ChannelData.from_columns(
        poses, all_pairs(len(poses)), los, tuple(range(len(counts) + 1)), counts,
        tuple(accumulate(counts, initial=0)), hops,
    )


_ENTRY_ORDER = itemgetter(0, 1)  # a hit's entry t, then its box index


def _los_paths_scalar(world: WorldModel, positions: Sequence[Vec3]):
    """Each pair's LOS verdict, hop count and hops, as three column tuples,
    by one slab test per pair and box; the reference the vector kernel is
    tested against."""
    los, counts, hops = [], [], []
    for i, pi in enumerate(positions):
        for j in range(i + 1, len(positions)):
            pj = positions[j]
            hits = []
            if pi != pj:
                for box_idx, box in enumerate(world.obstacles):
                    interval = _crossing_interval(pi, pj, box)
                    if interval is not None:
                        entry = tuple(
                            a + interval[0] * (b - a) for a, b in zip(pi, pj)
                        )
                        hits.append((interval[0], box_idx, entry, box.penetration_loss))
            los.append(not hits)
            counts.append(len(hits))
            if hits:
                hits.sort(key=_ENTRY_ORDER)
                hops += [(*entry, loss) for _, _, entry, loss in hits]
    return tuple(los), tuple(counts), tuple(hops)


@lru_cache(maxsize=8)
def _pair_ends(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two ends of every pair of `wire.all_pairs(n)`, as two arrays."""
    ends = np.array(all_pairs(n), dtype=np.intp).reshape(-1, 2).T.copy()
    ends.setflags(write=False)
    return ends[0], ends[1]


class BroadPhase:
    """The vector kernel's (pair, box) candidates, kept across extractions.

    The candidates are the boxes whose bounds overlap a pair's segment
    bounds, widened by `BROAD_PHASE_SKIN` plus a rounding slack, at the
    positions they were built for.  While no agent is further than the
    skin from those positions along any axis, every box the exact test
    can hit, and every box the unwidened test would pass, is still among
    them; the narrow phase rejects the rest, so the hops come out the same
    as from candidates rebuilt every time.  Otherwise, or for another world
    or agent count, they are rebuilt.
    """

    def __init__(self):
        self._world = None
        self._anchor = None  # (3, n) positions the candidates were built for
        self._candidates = None

    def candidates(self, world: WorldModel, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(pair, box) candidates for axis-major positions `pos`, (3, n),
        listed by pair, then box index."""
        anchor = self._anchor
        if (
            world is not self._world
            or anchor is None
            or anchor.shape != pos.shape
            or not np.abs(pos - anchor).max(initial=0.0) <= BROAD_PHASE_SKIN
        ):
            self._build(world, pos)
        return self._candidates

    def _build(self, world: WorldModel, pos: np.ndarray) -> None:
        mins, maxs, _ = world._slabs
        first, second = _pair_ends(pos.shape[1])
        p0 = pos.take(first, axis=1)
        p1 = pos.take(second, axis=1)
        # the slack covers the largest coordinate any position within the
        # skin can have
        reach = float(np.abs(pos).max(initial=0.0)) + BROAD_PHASE_SKIN
        widen = BROAD_PHASE_SKIN + _BROAD_SLACK * reach
        seg_lo = np.minimum(p0, p1)[:, :, None] - widen
        seg_hi = np.maximum(p0, p1)[:, :, None] + widen
        near = ((seg_lo <= maxs[:, None, :]) & (seg_hi >= mins[:, None, :])).all(axis=0)
        self._candidates = np.nonzero(near)
        self._world = world
        self._anchor = pos.copy()


def _los_paths_vector(world: WorldModel, positions: Sequence[Vec3], broad_phase: BroadPhase):
    """`_los_paths_scalar` over whole arrays: the candidates of
    `broad_phase`, then the slab test on them.

    Every verdict and hop coordinate is bit-identical to the scalar path:
    the slab parameters, the midpoint and the entry point come from the
    same float operations in the same order, and the interval ends are
    plain maxima and minima of the same values, with a zero t0 kept at
    +0.0 as the scalar `max(0.0, ...)` keeps it.  Arrays are axis-major,
    (3, ...), so that every step is an elementwise operation on whole rows.
    """
    mins, maxs, losses = world._slabs
    first, second = _pair_ends(len(positions))
    pos = np.array(positions, dtype=np.float64).reshape(-1, 3).T
    pair, box = broad_phase.candidates(world, pos)

    # narrow phase: the slab test per candidate
    origin = pos.take(first.take(pair), axis=1)
    step = pos.take(second.take(pair), axis=1) - origin
    moving = step.any(axis=0)
    if not moving.all():  # coincident agents are LOS
        pair, box, origin, step = (
            pair[moving], box[moving], origin[:, moving], step[:, moving]
        )
    lo = mins.take(box, axis=1)
    hi = maxs.take(box, axis=1)
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
    counts = tuple(np.bincount(pair, minlength=len(first)).tolist())
    return tuple(map(not_, counts)), counts, hops


# ---------------------------------------------------------------------------
# Simulator contract


class PhysicsSim(Protocol):
    """What the physics coordinator needs from any world simulator."""

    def step(self, dt_ns: int) -> None: ...

    def channel_snapshot(self, fidelity: ChannelFidelity) -> ChannelData: ...


class ReferencePhysicsSim:
    """In-process simulator over step_world/extract_channel_data."""

    def __init__(self, world: WorldModel, tracks: Iterable[AgentTrack]):
        self.world = world
        self._broad_phase = BroadPhase()
        self.tracks: dict[int, AgentTrack] = {}
        for track in tracks:
            if track.agent_id in self.tracks:
                raise ValueError(f"duplicate track for agent {track.agent_id}")
            self.tracks[track.agent_id] = track
        self._agents = initial_agent_states(self.tracks.values())

    def step(self, dt_ns: int) -> None:
        self._agents = step_world(self.world, self.tracks, self._agents, dt_ns)

    def channel_snapshot(self, fidelity: ChannelFidelity) -> ChannelData:
        return extract_channel_data(self.world, self._agents, fidelity, self._broad_phase)
