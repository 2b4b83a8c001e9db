"""Reference code that the package's physics is checked against: the
record-based world path `ReferencePhysicsSim` replaced, and the LOS
kernels as they were before they shared their per-pair work.

`AgentState`, `initial_agent_states`, `step_world` and `track_pose` walk
agents as records, one `wire_oracles.Pose` each; they are the oracle of
`ReferencePhysicsSim`'s arcs and pose rows, its first rows included, and
make the same float operations in the same order.  `extract_channel_data`
gives the snapshot of a list of such records through `physics._snapshot`
with a fresh `BroadPhase`: the oracle of `ReferencePhysicsSim`'s deferred
snapshots and of the kept broad phase.

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

import math
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from cosimnet.physics import (
    _BROAD_SLACK,
    AgentTrack,
    BroadPhase,
    ChannelFidelity,
    WorldModel,
    _segment_table,
    _snapshot,
    _vec3,
    track_length,
)
from cosimnet.wire import ChannelData
from tests.wire_oracles import PathDetails, Pose

_ENTRY_ORDER = itemgetter(0, 1)  # a hit's entry t, then its box index


# -- the record-based world path ----------------------------------------------


@dataclass(frozen=True)
class AgentState:
    """Kinematic state: the pose always lies on the agent's track polyline."""

    agent_id: int
    pose: Pose
    arc_position: float = 0.0


def track_pose(track: AgentTrack, arc: float) -> Pose:
    """Pose at a given arc position: position interpolated on the polyline,
    orientation yaw-aligned with the local segment direction (about +z).
    Raises ValueError for an arc that is not finite."""
    if not math.isfinite(arc):
        raise ValueError(f"arc {arc!r} is not finite")
    table, total = _segment_table(track.waypoints, track.loop)
    if not table or total == 0.0:
        return Pose(track.waypoints[0])
    if track.loop:
        arc = math.fmod(arc, total)
        if arc < 0:
            arc += total
    else:
        arc = min(max(arc, 0.0), total)
    # the last segment ends at the total, by the same sum, so the arc falls
    # in a segment
    for a, b, length, cum, yaw in table:
        if arc <= cum + length:
            break
    u = (arc - cum) / length
    return Pose(tuple(pa + u * (pb - pa) for pa, pb in zip(a, b)), yaw)


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


def extract_channel_data(
    world: WorldModel,
    agents: Sequence[AgentState],
    fidelity: ChannelFidelity,
) -> ChannelData:
    """Reduce world geometry to ChannelData for the current agent set, as
    `ReferencePhysicsSim.channel_snapshot` describes.  Nothing checks it
    here, as nothing checks `ReferencePhysicsSim`'s: the channel decoder is
    the one check.
    """
    states = sorted(agents, key=lambda s: s.agent_id)
    ids = [s.agent_id for s in states]
    if ids != list(range(len(states))):
        raise ValueError(f"agent ids must be dense 0..n-1, got {ids}")
    poses = tuple([s.pose.position + s.pose.orientation for s in states])
    return _snapshot(world, poses, fidelity, BroadPhase())


# -- the LOS kernels before they shared their per-pair work -------------------


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
