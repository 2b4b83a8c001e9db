"""Reference world simulator: agents on polyline tracks in a static box
world, with channel extraction at disk or LOS/NLOS fidelity.

Tracks are piecewise linear and walked at constant speed.  Loop tracks
close implicitly from the last waypoint back to the first; non-loop
tracks clamp at the final waypoint.  Channel extraction reduces the
world to the wire-level ChannelData: agent poses plus, per unordered
agent pair, either a disk-range LOS verdict or the list of obstacle
crossings with their penetration losses.

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

The simulator contract is two methods, `step(dt_ns)` and
`channel_snapshot(fidelity)`.  `ReferencePhysicsSim` implements it
in-process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Protocol, Sequence

import numpy as np

from .wire import ChannelData, PathDetails, Pose

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
    """Per-segment (start, end, length, cumulative start arc)."""
    pts = list(waypoints)
    if loop and len(pts) >= 2:
        pts.append(pts[0])
    table = []
    cum = 0.0
    for a, b in zip(pts, pts[1:]):
        length = math.dist(a, b)
        table.append((a, b, length, cum))
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
    for a, b, length, cum in table:
        if arc <= cum + length:
            u = (arc - cum) / length
            position = tuple(pa + u * (pb - pa) for pa, pb in zip(a, b))
            direction = tuple(pb - pa for pa, pb in zip(a, b))
            return Pose(position, _yaw_quaternion(direction))
    # arc == total on a non-loop track lands past the last cum + length only
    # through rounding; pin it to the final waypoint
    a, b, _, _ = table[-1]
    return Pose(b, _yaw_quaternion(tuple(pb - pa for pa, pb in zip(a, b))))


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


def extract_channel_data(
    world: WorldModel,
    agents: Sequence[AgentState],
    fidelity: ChannelFidelity,
) -> ChannelData:
    """Reduce world geometry to ChannelData for the current agent set.

    Disk fidelity emits a bare LOS verdict per pair (in range or not);
    LOS/NLOS fidelity emits one aggregate path per pair whose hops are the
    obstacle entry points in crossing order, each carrying that obstacle's
    penetration loss.  Coincident agents see each other LOS: a zero-length
    segment crosses nothing.
    """
    states = sorted(agents, key=lambda s: s.agent_id)
    ids = [s.agent_id for s in states]
    if ids != list(range(len(states))):
        raise ValueError(f"agent ids must be dense 0..n-1, got {ids}")
    node_list = tuple(s.pose for s in states)
    positions = [s.pose.position for s in states]
    n = len(positions)
    if fidelity.kind is FidelityKind.DISK:
        paths = [
            PathDetails((i, j), math.dist(positions[i], positions[j]) <= fidelity.radius)
            for i in range(n)
            for j in range(i + 1, n)
        ]
    elif n * (n - 1) // 2 * len(world.obstacles) >= VECTOR_MIN_TESTS:
        paths = _los_paths_vector(world, positions)
    else:
        paths = _los_paths_scalar(world, positions)
    return ChannelData(node_list, tuple(paths))


def _los_paths_scalar(world: WorldModel, positions: Sequence[Vec3]) -> list[PathDetails]:
    """LOS/NLOS paths by one slab test per pair and box; the reference the
    vector kernel is tested against."""
    paths = []
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
            if not hits:
                paths.append(PathDetails((i, j), True, (0,), ()))
            else:
                hits.sort(key=lambda h: (h[0], h[1]))
                hops = tuple((*entry, loss) for _, _, entry, loss in hits)
                paths.append(PathDetails((i, j), False, (len(hops),), hops))
    return paths


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


def _los_paths_vector(world: WorldModel, positions: Sequence[Vec3]) -> list[PathDetails]:
    """`_los_paths_scalar` over whole arrays: an AABB broad phase, then the
    slab test on the surviving (pair, box) candidates.

    Every verdict and hop coordinate is bit-identical to the scalar path:
    the slab parameters, the midpoint and the entry point come from the
    same float operations in the same order, and the interval ends are
    plain maxima and minima of the same values, with a zero t0 kept at
    +0.0 as the scalar `max(0.0, ...)` keeps it.  Arrays are axis-major,
    (3, ...), so that every step is an elementwise operation on whole rows.
    """
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
        self.tracks: dict[int, AgentTrack] = {}
        for track in tracks:
            if track.agent_id in self.tracks:
                raise ValueError(f"duplicate track for agent {track.agent_id}")
            self.tracks[track.agent_id] = track
        self._agents = initial_agent_states(self.tracks.values())

    def step(self, dt_ns: int) -> None:
        self._agents = step_world(self.world, self.tracks, self._agents, dt_ns)

    def channel_snapshot(self, fidelity: ChannelFidelity) -> ChannelData:
        return extract_channel_data(self.world, self._agents, fidelity)
