"""World stepping, box intersection, and channel extraction."""

from __future__ import annotations

import itertools
import math
import random
import struct
import warnings
from fractions import Fraction

import numpy as np
import pytest

from cosimnet import physics, wire
from cosimnet.physics import (
    AgentTrack,
    Box,
    ChannelFidelity,
    ReferencePhysicsSim,
    WorldModel,
    track_length,
)
from tests import physics_oracles
from tests.physics_oracles import (
    AgentState,
    extract_channel_data,
    initial_agent_states,
    segment_box_crossings,
    step_world,
    track_pose,
)
from tests.wire_oracles import Pose, path_details

BOUNDS = Box((-500.0, -500.0, -500.0), (500.0, 500.0, 500.0))
WIDE = Box((-1e12, -1e12, -1e12), (1e12, 1e12, 1e12))
EMPTY_WORLD = WorldModel(BOUNDS)


def boxes_to_arrays(boxes):
    mins = np.array([b.min_corner for b in boxes])
    maxs = np.array([b.max_corner for b in boxes])
    return mins, maxs


def sampled_blocked(p0, p1, boxes, samples=10_000):
    """Dense-sampling LOS oracle: any sampled point strictly inside any box."""
    if not boxes:
        return False
    t = np.linspace(0.0, 1.0, samples)[:, None]
    pts = np.asarray(p0) + t * (np.asarray(p1) - np.asarray(p0))
    mins, maxs = boxes_to_arrays(boxes)
    inside = np.logical_and(
        (pts[None, :, :] > mins[:, None, :]).all(axis=2),
        (pts[None, :, :] < maxs[:, None, :]).all(axis=2),
    )
    return bool(inside.any())


def dist_point_segment(p, a, b):
    ap = np.asarray(p) - np.asarray(a)
    ab = np.asarray(b) - np.asarray(a)
    u = float(np.clip(np.dot(ap, ab) / np.dot(ab, ab), 0.0, 1.0))
    return float(np.linalg.norm(ap - u * ab))


# -- type validation --------------------------------------------------------


def test_box_rejects_inverted_corners():
    with pytest.raises(ValueError, match="min < max"):
        Box((0, 0, 0), (1, -1, 1))


def test_box_rejects_negative_loss():
    with pytest.raises(ValueError, match="penetration_loss"):
        Box((0, 0, 0), (1, 1, 1), penetration_loss=-2.0)


def test_box_rejects_an_extent_that_overflows():
    with pytest.raises(ValueError, match="axis 0 overflows"):
        Box((-1.7e308, 0, 0), (1.7e308, 1, 1))


def test_world_rejects_obstacle_outside_bounds():
    with pytest.raises(ValueError, match="outside the world bounds"):
        WorldModel(Box((0, 0, 0), (10, 10, 10)), (Box((5, 5, 5), (15, 6, 6)),))


def test_track_rejects_consecutive_duplicates():
    with pytest.raises(ValueError, match="duplicate"):
        AgentTrack(0, ((0, 0, 0), (0, 0, 0), (1, 0, 0)), speed=1.0)


def test_loop_track_closure_is_implicit():
    with pytest.raises(ValueError, match="implicit"):
        AgentTrack(0, ((0, 0, 0), (5, 0, 0), (0, 0, 0)), speed=1.0, loop=True)


def test_track_rejects_zero_speed():
    with pytest.raises(ValueError, match="speed"):
        AgentTrack(0, ((0, 0, 0), (1, 0, 0)), speed=0.0)


def test_fidelity_validation():
    with pytest.raises(ValueError, match="radius"):
        ChannelFidelity.disk(0.0)
    with pytest.raises(ValueError, match="radius"):
        ChannelFidelity(physics.FidelityKind.LOS_NLOS, radius=5.0)
    assert ChannelFidelity.disk(30.0).radius == 30.0


def test_fidelity_kind_must_be_a_fidelity_kind():
    # else a plain string would run as LOS/NLOS, or fail on its radius
    # with a message about the wrong field
    for args in (("disk",), ("disk", 5.0), ("los_nlos",), ("garbage",)):
        with pytest.raises(ValueError, match="FidelityKind"):
            ChannelFidelity(*args)


def test_track_rejects_a_bool_agent_id():
    with pytest.raises(ValueError, match="agent_id"):
        AgentTrack(True, ((0, 0, 0), (1, 0, 0)), speed=1.0)


# -- track walking ----------------------------------------------------------


def test_track_length_includes_loop_closure():
    track = AgentTrack(0, ((0, 0, 0), (3, 0, 0), (3, 4, 0)), speed=1.0, loop=True)
    assert track_length(track) == 3 + 4 + 5
    open_track = AgentTrack(0, ((0, 0, 0), (3, 0, 0), (3, 4, 0)), speed=1.0)
    assert track_length(open_track) == 7


def test_linear_motion_example():
    track = AgentTrack(0, ((0, 0, 0), (10, 0, 0)), speed=2.0)
    state = AgentState(0, track_pose(track, 0.0), 0.0)
    (moved,) = step_world(EMPTY_WORLD, {0: track}, [state], 500_000_000)
    assert moved.arc_position == pytest.approx(1.0, abs=1e-12)
    assert moved.pose.position == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


def test_loop_wrap_by_exact_length_returns_to_start():
    track = AgentTrack(0, ((0, 0, 0), (6, 0, 0), (6, 8, 0)), speed=4.0, loop=True)
    total = track_length(track)
    dt_ns = int(total / 4.0 * 1e9)
    assert track.speed * (dt_ns * 1e-9) == total
    state = AgentState(0, track_pose(track, 0.0), 0.0)
    (moved,) = step_world(EMPTY_WORLD, {0: track}, [state], dt_ns)
    assert moved.arc_position == pytest.approx(0.0, abs=1e-9)
    assert math.dist(moved.pose.position, (0, 0, 0)) < 1e-9


def test_nonloop_clamps_at_final_waypoint():
    track = AgentTrack(0, ((0, 0, 0), (5, 0, 0)), speed=3.0)
    state = AgentState(0, track_pose(track, 0.0), 0.0)
    (moved,) = step_world(EMPTY_WORLD, {0: track}, [state], 10_000_000_000)
    assert moved.arc_position == 5.0
    assert moved.pose.position == (5.0, 0.0, 0.0)


def test_yaw_quaternion_follows_segment_direction():
    track = AgentTrack(0, ((0, 0, 0), (4, 0, 0), (4, 4, 0)), speed=1.0)
    px = track_pose(track, 1.0)
    assert px.orientation == pytest.approx((0, 0, 0, 1), abs=1e-12)
    py = track_pose(track, 5.0)
    half = math.pi / 4
    assert py.orientation == pytest.approx(
        (0, 0, math.sin(half), math.cos(half)), abs=1e-12
    )


@pytest.mark.parametrize("loop", [False, True])
@pytest.mark.parametrize("arc", [math.nan, math.inf, -math.inf])
def test_track_pose_rejects_a_non_finite_arc(loop, arc):
    # a NaN arc used to return the final waypoint on an open track and the
    # start, with the closing segment's yaw, on a loop; an infinite one
    # raised a bare math domain error on a loop
    track = AgentTrack(0, ((0, 0, 0), (4, 0, 0), (4, 4, 0)), speed=1.0, loop=loop)
    with pytest.raises(ValueError, match=f"arc {arc!r} is not finite"):
        track_pose(track, arc)


def test_track_pose_ends_open_tracks_at_the_final_waypoint():
    track = AgentTrack(0, ((0, 0, 0), (4, 0, 0), (4, 4, 0)), speed=1.0)
    half = math.pi / 4
    for arc in (track_length(track), 8.0, 1e300):
        pose = track_pose(track, arc)
        assert pose.position == (4.0, 4.0, 0.0)
        assert pose.orientation == (0.0, 0.0, math.sin(half), math.cos(half))


def test_random_walk_matches_closed_form_arc():
    rng = random.Random(42)
    for trial in range(40):
        n_pts = rng.randint(2, 6)
        pts = []
        while len(pts) < n_pts:
            cand = (
                rng.uniform(-50, 50),
                rng.uniform(-50, 50),
                rng.uniform(0, 5),
            )
            if not pts or cand != pts[-1]:
                pts.append(cand)
        loop = rng.random() < 0.7
        track = AgentTrack(0, tuple(pts), speed=rng.uniform(0.5, 5.0), loop=loop)
        total = track_length(track)
        state = AgentState(0, track_pose(track, 0.0), 0.0)
        elapsed_ns = 0
        for _ in range(25):
            dt_ns = rng.randint(1_000_000, 200_000_000)
            elapsed_ns += dt_ns
            (state,) = step_world(EMPTY_WORLD, {0: track}, [state], dt_ns)
        arc = track.speed * (elapsed_ns * 1e-9)
        expected = math.fmod(arc, total) if loop else min(arc, total)
        assert state.arc_position == pytest.approx(expected, abs=1e-9)
        expect_pose = track_pose(track, expected)
        assert math.dist(state.pose.position, expect_pose.position) < 1e-9


def test_positions_stay_on_polyline():
    rng = random.Random(7)
    track = AgentTrack(
        0, ((0, 0, 0), (10, 0, 0), (10, 10, 2), (-5, 3, 1)), speed=2.5, loop=True
    )
    pts = track.waypoints + (track.waypoints[0],)
    state = AgentState(0, track_pose(track, 0.0), 0.0)
    for _ in range(200):
        (state,) = step_world(
            EMPTY_WORLD, {0: track}, [state], rng.randint(10_000_000, 400_000_000)
        )
        gap = min(
            dist_point_segment(state.pose.position, a, b)
            for a, b in zip(pts, pts[1:])
        )
        assert gap < 1e-9


def test_step_requires_track_and_positive_dt():
    track = AgentTrack(0, ((0, 0, 0), (1, 0, 0)), speed=1.0)
    state = AgentState(1, Pose((0, 0, 0)), 0.0)
    with pytest.raises(ValueError, match="no track"):
        step_world(EMPTY_WORLD, {0: track}, [state], 1000)
    with pytest.raises(ValueError, match="dt"):
        step_world(EMPTY_WORLD, {0: track}, [], 0)


# -- segment/box intersection ------------------------------------------------


def test_axis_aligned_crossing():
    box = Box((0, -0.5, -0.5), (1, 0.5, 0.5))
    [(entry, exit_)] = segment_box_crossings((-1, 0, 0), (2, 0, 0), box)
    assert entry == pytest.approx((0, 0, 0), abs=1e-12)
    assert exit_ == pytest.approx((1, 0, 0), abs=1e-12)


def test_segment_inside_box_returns_endpoints():
    box = Box((0, 0, 0), (10, 10, 10))
    [(entry, exit_)] = segment_box_crossings((2, 2, 2), (8, 3, 4), box)
    assert entry == (2.0, 2.0, 2.0)
    assert exit_ == (8.0, 3.0, 4.0)


def test_miss_returns_empty():
    box = Box((0, 0, 0), (1, 1, 1))
    assert segment_box_crossings((2, 2, 2), (3, 3, 3), box) == []


def test_face_sliding_segment_is_grazing():
    box = Box((0, 0, 0), (1, 1, 1))
    # runs along the z=1 top face: boundary contact only
    assert segment_box_crossings((-1, 0.5, 1.0), (2, 0.5, 1.0), box) == []


def test_corner_touch_is_grazing():
    box = Box((0, 0, 0), (1, 1, 1))
    assert segment_box_crossings((-1, 1, 1), (1, 3, 1), box) == []


def test_degenerate_segment_rejected():
    box = Box((0, 0, 0), (1, 1, 1))
    with pytest.raises(ValueError, match="differ"):
        segment_box_crossings((0.5, 0.5, 0.5), (0.5, 0.5, 0.5), box)


def test_random_crossings_agree_with_sampling_oracle():
    rng = random.Random(1234)
    for trial in range(1000):
        lo = tuple(rng.uniform(-40, 20) for _ in range(3))
        size = tuple(rng.uniform(1, 25) for _ in range(3))
        box = Box(lo, tuple(a + s for a, s in zip(lo, size)))
        p0 = tuple(rng.uniform(-60, 60) for _ in range(3))
        p1 = tuple(rng.uniform(-60, 60) for _ in range(3))
        crossings = segment_box_crossings(p0, p1, box)
        oracle = sampled_blocked(p0, p1, [box])
        assert bool(crossings) == oracle, f"trial {trial}: {p0} {p1} {box}"
        if crossings:
            (entry, exit_), = crossings
            # both reported points sit on the box surface or inside it,
            # up to lerp rounding
            for pt in (entry, exit_):
                assert all(
                    lo - 1e-9 <= v <= hi + 1e-9
                    for v, lo, hi in zip(pt, box.min_corner, box.max_corner)
                )
            # entry comes no later than exit along the segment
            d = np.subtract(p1, p0)
            t_entry = float(np.dot(np.subtract(entry, p0), d) / np.dot(d, d))
            t_exit = float(np.dot(np.subtract(exit_, p0), d) / np.dot(d, d))
            assert t_entry <= t_exit + 1e-12


def assert_pair_hits_agree(world, p0, p1) -> list:
    """`_pair_hits`'s rows are the unculled slab oracle's, `repr` for
    `repr`, so every entry t matches bit for bit, -0.0 included."""
    hits = physics._pair_hits(p0, p1, world._box_rows)
    assert repr(hits) == repr(physics_oracles.pair_hits(p0, p1, world)), (p0, p1)
    return hits


def test_pair_hits_match_the_slab_oracle_on_edge_cases():
    straddling = Box((0, -1, 0), (1, 1, 1), penetration_loss=2.0)
    past_the_end = Box((1e-3 + 1e-11, 0, 0), (1, 1, 1), penetration_loss=1.0)
    x_face = Box((-3, 0, 0), (2, 1, 1), penetration_loss=5.0)
    x_bound = Box((-3, 0, 0), (2 - physics._BROAD_SLACK * 5, 1, 1), penetration_loss=5.0)
    wall = Box((-500, -2, 0), (500, 2, 1), penetration_loss=6.0)
    shared = [
        Box((10, y, 0), (10 + width, y + 1, 1), penetration_loss=1.0 + k)
        for k, (y, width) in enumerate(((0, 1), (2, 3), (4, 0.5)))
    ]
    far = [
        Box((-1e9, -3, -2), (-1e9 + 10, 3, 2), penetration_loss=2.0),
        Box((1e11, 0, 0), (1e11 + 5, 1, 1), penetration_loss=3.0),
        Box((-400, -300, -200), (-390, -290, -190), penetration_loss=4.0),
    ]
    cases = [  # (boxes, p0, p1, hits)
        ([UNIT], (-1, -1, 0.5), (2, 2, 0.5), 1),         # one zero-delta axis
        ([UNIT], (-1, 0.5, 0.5), (2, 0.5, 0.5), 1),      # two zero-delta axes
        ([UNIT], (-1, 0.5, 1.5), (2, 0.7, 1.5), 0),      # zero delta outside the slab
        ([UNIT], (0.5, 0.5, -1), (0.5, 0.5, 0), 0),      # two zero axes, ends on a face
        ([UNIT], (-1, 0.5, 1.0), (2, 0.5, 1.0), 0),      # slides in the face plane z = 1
        ([UNIT], (-1, 0.2, 1.0), (2, 0.8, 1.0), 0),      # ... on a diagonal
        ([UNIT], (-1, 0.0, 0.5), (2, 0.0, 0.5), 0),      # ... in the plane y = 0
        ([UNIT], (-1, 1, 1), (2, 1, 1), 0),              # slides along an edge
        ([UNIT], (-1, -1, 0), (1, 1, 2), 0),             # grazes the corner (0, 0, 1)
        ([UNIT], (-1, 1, 1), (1, 3, 1), 0),              # ... the corner (0, 1, 1)
        ([UNIT], (-1, 0.5, 0), (1, 0.5, 2), 0),          # grazes the edge x = 0, z = 1
        ([UNIT], (-1, 0.2, 0), (1, 0.6, 2), 0),          # ... with no flat axis
        ([UNIT], (-1, -1, -1), (0, 0, 0), 0),            # ends on a corner
        ([UNIT], (-1, 0.5, 0.5), (0, 0.5, 0.5), 0),      # ends on a face
        ([UNIT], (0, 0.5, 0.5), (3, 0.6, 0.5), 1),       # starts on a face, enters
        ([UNIT], (0.5, 0.5, 1), (0.5, 0.5, 3), 0),       # leaves a face outward
        ([UNIT], (0.5, 0.5, 0.5), (3, 0.7, 0.2), 1),     # starts inside
        ([UNIT], (3, 0.7, 0.2), (0.5, 0.5, 0.5), 1),     # ends inside
        ([UNIT], (0.2, 0.3, 0.4), (0.8, 0.7, 0.6), 1),   # both ends inside
        ([UNIT], (0.2, 0.3, 0.4), (0.2, 0.3, 0.6), 1),   # ... with two flat axes
        ([UNIT, straddling], (1, -0.0, 0.5), (-3, 0.3, 0.6), 2),  # x's entry t is -0.0
        ([UNIT, straddling], (1, -0.0, 0.5), (-3, -0.0, 0.5), 1),  # slides on y = 0 of UNIT
        ([past_the_end], (-1e6, 0.5, 0.5), (1e-3, 0.5, 0.5), 1),  # rounded past the end
        # the x-sorted slice of boxes: max x on the segment's min x, and on
        # its slack-widened bound; a box as wide as the world; boxes that
        # share one min x; segments with dx = 0
        ([UNIT, x_face], (2, 0.5, 0.5), (5, 0.5, 0.5), 0),
        ([UNIT, x_bound], (2, 0.5, 0.5), (5, 0.5, 0.5), 0),
        ([UNIT, x_face], (1.5, 0.5, 0.5), (5, 0.5, 0.5), 1),
        ([UNIT, wall, *shared], (-400, -5, 0.5), (450, 5, 0.5), 1),
        ([UNIT, wall, *shared], (9, 0.5, 0.5), (14, 4.5, 0.5), 2),
        ([UNIT, wall, *shared], (10.2, -1, 0.5), (10.3, 6, 0.5), 4),
        ([UNIT, wall, *shared], (0.5, -5, 0.5), (0.5, 5, 0.5), 2),
        ([UNIT, wall, *shared], (10, -1, 0.5), (10, 10, 0.5), 1),  # on the shared min x
    ]
    far_cases = [  # negative and large coordinates, in a world to match
        ((-2e9, 0.5, 0.5), (3e11, 0.5, 0.5), 2),
        ((-1e9 + 5, -1e10, 0.5), (-1e9 + 5, 1e10, 0.5), 1),
        ((-395, -1e6, -195), (-395, 1e6, -195), 1),
        ((-1e12, -295, -195), (1e12, -295, -195), 1),
    ]
    cases += [(far, p0, p1, count) for p0, p1, count in far_cases]
    for boxes, p0, p1, count in cases:
        world = WorldModel(WIDE if boxes is far else BOUNDS, tuple(boxes))
        p0, p1 = tuple(map(float, p0)), tuple(map(float, p1))
        assert len(assert_pair_hits_agree(world, p0, p1)) == count, (p0, p1)
        assert_pair_hits_agree(world, p1, p0)


def test_box_rows_are_sorted_by_min_x_and_cover_every_x_extent():
    """`_box_rows` keeps each obstacle's index and row, sorted by min x, and
    its widest extent is at least every box's real max x minus min x, which
    a float subtraction can round below."""
    rng = random.Random(1907)
    rounded_down = Box((-2.0**-15, 0, 0), (2.0**39 + 2.0**-13, 1, 1))
    assert Fraction(2.0**39 + 2.0**-13 + 2.0**-15) < Fraction(2.0**39 + 2.0**-13) + Fraction(
        2.0**-15
    )
    worlds = [WorldModel(WIDE, (UNIT, rounded_down)), WorldModel(BOUNDS, ())]
    for _ in range(50):
        boxes = []
        for _ in range(rng.randint(1, 30)):
            x0 = rng.choice((rng.uniform(-500, 499), 10.0, -1e-300))
            boxes.append(Box((x0, 0, 0), (min(500.0, x0 + rng.uniform(0, 40)), 1, 1)))
        worlds.append(WorldModel(BOUNDS, tuple(boxes)))
    for world in worlds:
        rows, xs, widest = world._box_rows
        assert sorted(rows) == sorted(
            (k, *b.min_corner, *b.max_corner, b.penetration_loss)
            for k, b in enumerate(world.obstacles)
        )
        assert list(xs) == [row[1] for row in rows] == sorted(xs)
        for row in rows:
            assert Fraction(widest) >= Fraction(row[4]) - Fraction(row[1])


# -- channel extraction ------------------------------------------------------


def two_agents(p0, p1):
    return [AgentState(0, Pose(p0), 0.0), AgentState(1, Pose(p1), 0.0)]


def test_open_pair_is_los_with_zero_hops():
    data = extract_channel_data(
        EMPTY_WORLD, two_agents((0, 0, 0), (30, 0, 0)), ChannelFidelity.los_nlos()
    )
    assert (data.ids, data.los, data.num_hops, data.hops) == (((0, 1),), (True,), (0,), ())
    assert data.los[0] is True


def test_bisecting_box_blocks_pair():
    wall = Box((14, -5, -5), (16, 5, 5), penetration_loss=10.0)
    world = WorldModel(BOUNDS, (wall,))
    agents = two_agents((0, 0, 0), (30, 0, 0))
    data = extract_channel_data(world, agents, ChannelFidelity.los_nlos())
    assert data.los == (False,)
    assert data.num_hops == (1,)
    ((x, y, z, loss),) = data.hops
    assert (x, y, z) == pytest.approx((14, 0, 0), abs=1e-12)
    assert loss == 10.0
    assert sampled_blocked((0, 0, 0), (30, 0, 0), [wall])


def test_three_agents_make_three_pairs():
    agents = [
        AgentState(0, Pose((0, 0, 0)), 0.0),
        AgentState(1, Pose((10, 0, 0)), 0.0),
        AgentState(2, Pose((0, 10, 0)), 0.0),
    ]
    data = extract_channel_data(EMPTY_WORLD, agents, ChannelFidelity.los_nlos())
    assert data.ids == ((0, 1), (0, 2), (1, 2))


def test_disk_fidelity_compares_distance_to_radius():
    fid = ChannelFidelity.disk(30.0)
    near = extract_channel_data(EMPTY_WORLD, two_agents((0, 0, 0), (30, 0, 0)), fid)
    far = extract_channel_data(EMPTY_WORLD, two_agents((0, 0, 0), (30.001, 0, 0)), fid)
    assert near.los[0] is True
    assert near.num_hops == ()
    assert far.los[0] is False


def test_hops_ordered_by_entry_along_segment():
    near_box = Box((5, -2, -2), (8, 2, 2), penetration_loss=3.0)
    far_box = Box((15, -2, -2), (20, 2, 2), penetration_loss=7.0)
    # obstacle list order deliberately reversed relative to the segment walk
    world = WorldModel(BOUNDS, (far_box, near_box))
    data = extract_channel_data(
        world, two_agents((0, 0, 0), (30, 0, 0)), ChannelFidelity.los_nlos()
    )
    assert data.num_hops == (2,)
    assert [h[3] for h in data.hops] == [3.0, 7.0]
    assert data.hops[0][0] == pytest.approx(5.0, abs=1e-12)
    assert data.hops[1][0] == pytest.approx(15.0, abs=1e-12)


def test_coincident_agents_are_los():
    data = extract_channel_data(
        EMPTY_WORLD, two_agents((1, 2, 3), (1, 2, 3)), ChannelFidelity.los_nlos()
    )
    assert data.los[0] is True


def test_agent_ids_must_be_dense():
    agents = [AgentState(0, Pose((0, 0, 0)), 0.0), AgentState(2, Pose((1, 0, 0)), 0.0)]
    with pytest.raises(ValueError, match="dense"):
        extract_channel_data(EMPTY_WORLD, agents, ChannelFidelity.los_nlos())


def test_extraction_ignores_agent_input_order():
    agents = [
        AgentState(2, Pose((0, 10, 0)), 0.0),
        AgentState(0, Pose((0, 0, 0)), 0.0),
        AgentState(1, Pose((10, 0, 0)), 0.0),
    ]
    a = extract_channel_data(EMPTY_WORLD, agents, ChannelFidelity.los_nlos())
    b = extract_channel_data(EMPTY_WORLD, agents[::-1], ChannelFidelity.los_nlos())
    assert a == b
    assert [row[:3] for row in a.poses] == [(0, 0, 0), (10, 0, 0), (0, 10, 0)]


def test_randomized_worlds_match_sampling_oracle():
    rng = random.Random(99)
    for trial in range(1000):
        n_boxes = rng.randint(0, 10)
        boxes = []
        for _ in range(n_boxes):
            lo = tuple(rng.uniform(-180, 150) for _ in range(3))
            size = tuple(rng.uniform(2, 30) for _ in range(3))
            boxes.append(
                Box(lo, tuple(a + s for a, s in zip(lo, size)), rng.uniform(0, 20))
            )
        world = WorldModel(BOUNDS, tuple(boxes))
        n_agents = rng.randint(2, 5)
        agents = [
            AgentState(i, Pose(tuple(rng.uniform(-200, 200) for _ in range(3))), 0.0)
            for i in range(n_agents)
        ]
        data = extract_channel_data(world, agents, ChannelFidelity.los_nlos())
        positions = [a.pose.position for a in agents]
        assert repr(path_details(data)) == repr(
            tuple(physics_oracles.los_paths_vector(world, positions))
        )
        for path in path_details(data):
            i, j = path.ids
            oracle = sampled_blocked(
                agents[i].pose.position, agents[j].pose.position, boxes
            )
            assert path.los == (not oracle), f"trial {trial} pair {path.ids}"
            assert sum(path.num_hops) == len(path.hop_points)
        # encoding is deterministic: a second extraction is bit-identical
        again = extract_channel_data(world, agents, ChannelFidelity.los_nlos())
        assert wire.encode_channel_data(again) == wire.encode_channel_data(data)


# -- simulator contract ------------------------------------------------------


def patrol_world():
    wall = Box((40, -10, 0), (45, 10, 8), penetration_loss=12.0)
    world = WorldModel(Box((-100, -100, -10), (200, 100, 50)), (wall,))
    tracks = [
        AgentTrack(0, ((0, 0, 1), (100, 0, 1)), speed=4.0, loop=False),
        AgentTrack(1, ((0, 5, 1), (10, 5, 1), (10, 15, 1)), speed=2.0, loop=True),
    ]
    return world, tracks


def test_reference_sim_snapshot_tracks_steps():
    world, tracks = patrol_world()
    sim = ReferencePhysicsSim(world, tracks)
    fid = ChannelFidelity.los_nlos()
    before = sim.channel_snapshot(fid)
    assert sim.channel_snapshot(fid) == before
    sim.step(1_000_000_000)
    after = sim.channel_snapshot(fid)
    assert after != before
    assert after.poses[0][:3] == pytest.approx((4.0, 0.0, 1.0), abs=1e-9)


def test_initial_agent_states_sorted_and_parked():
    _, tracks = patrol_world()
    states = initial_agent_states(reversed(tracks))
    assert [s.agent_id for s in states] == [0, 1]
    assert states[0].pose.position == (0.0, 0.0, 1.0)
    assert states[0].arc_position == 0.0


def test_reference_sim_rejects_a_waypoint_outside_the_bounds():
    world = WorldModel(Box((0, 0, 0), (10, 10, 10)))
    tracks = [
        AgentTrack(0, ((1, 1, 1),), speed=1.0),
        AgentTrack(1, ((1, 1, 1), (11, 1, 1)), speed=1.0),
    ]
    with pytest.raises(ValueError, match=r"agent 1 waypoint 1 .* outside the world bounds"):
        ReferencePhysicsSim(world, tracks)


def test_reference_sim_rejects_sparse_agent_ids():
    world, (first, second) = patrol_world()
    with pytest.raises(ValueError, match="dense"):
        ReferencePhysicsSim(world, [first, AgentTrack(2, second.waypoints, second.speed)])


def random_track(rng, agent_id) -> AgentTrack:
    """Parked, open or looped, over coordinates that round: grid steps of
    0.1 and random floats, and now and then a segment of 0.1 mm or less
    after metres of track."""
    count = 1 if rng.random() < 0.15 else rng.randint(2, 6)
    pts = []
    while len(pts) < count:
        if pts and rng.random() < 0.2:
            cand = tuple(v + rng.choice((1e-4, -1e-4, 3e-5)) for v in pts[-1])
        elif rng.random() < 0.5:
            cand = tuple(rng.randint(-300, 300) / 10 for _ in range(3))
        else:
            cand = tuple(rng.uniform(-30, 30) for _ in range(3))
        if not pts or cand != pts[-1]:
            pts.append(cand)
    loop = count > 1 and rng.random() < 0.6
    if loop and pts[0] == pts[-1]:
        pts.pop()
    return AgentTrack(agent_id, tuple(pts), speed=rng.uniform(0.5, 40.0), loop=loop)


def test_reference_sim_walks_its_tracks_as_step_world_does():
    """The resolved stepper gives `initial_agent_states`/`step_world`'s
    arcs and poses bit for bit (`repr` tells -0.0 from 0.0), through
    wraps, the clamp at the end of open tracks and parked agents."""
    rng = random.Random(1212)
    world = WorldModel(Box((-100.0, -100.0, -100.0), (100.0, 100.0, 100.0)))
    tracks = [random_track(rng, k) for k in range(12)]
    assert {len(t.waypoints) == 1 for t in tracks} == {True, False}
    assert {t.loop for t in tracks} == {True, False}
    for track in tracks:
        if len(track.waypoints) > 1:
            # the last end arc is the total, so no step reaches the pin to
            # the final waypoint
            (*_, (_, _, length, cum, _)), total = physics._segment_table(
                track.waypoints, track.loop
            )
            assert cum + length == total
    sim = ReferencePhysicsSim(world, tracks)
    states = initial_agent_states(tracks)
    by_id = {t.agent_id: t for t in tracks}
    ends = [track_length(t) if not t.loop and len(t.waypoints) > 1 else None for t in tracks]
    wraps = clamped = 0
    for window in range(10_000):
        dt_ns = rng.choice((1_000_000, 1_000_000, 250_000, 3_000_000))
        before = [s.arc_position for s in states]
        sim.step(dt_ns)
        states = step_world(world, by_id, states, dt_ns)
        arcs = [s.arc_position for s in states]
        assert repr(sim._arcs) == repr(arcs), window
        assert repr(sim._rows) == repr(
            [s.pose.position + s.pose.orientation for s in states]
        ), window
        wraps += sum(a < b for a, b in zip(arcs, before))
        clamped += sum(a == end for a, end in zip(arcs, ends))
    assert wraps > 20 and clamped > 1000


def row_bytes(rows) -> list[bytes]:
    """Pose rows as packed doubles, which tell -0.0 from 0.0."""
    return [struct.pack("<7d", *row) for row in rows]


def assert_first_rows_are_track_poses_at_arc_zero(world, tracks):
    sim = ReferencePhysicsSim(world, tracks)
    by_id = {t.agent_id: t for t in tracks}
    poses = [track_pose(by_id[k], 0.0) for k in sorted(by_id)]
    assert row_bytes(sim._rows) == row_bytes(p.position + p.orientation for p in poses)
    return sim._rows


def test_first_rows_are_track_poses_at_arc_zero_on_random_worlds():
    """The first rows `ReferencePhysicsSim` writes itself are
    `track_pose(track, 0.0)`'s byte for byte, on random tracks and on the
    corpus worlds."""
    from cosimnet.scenario import parse_scenario
    from tests.test_lockstep_oracle import CORPUS, swarm_document

    rng = random.Random(2121)
    world = WorldModel(Box((-100.0, -100.0, -100.0), (100.0, 100.0, 100.0)))
    for _ in range(200):
        tracks = [random_track(rng, k) for k in range(rng.randint(1, 8))]
        assert_first_rows_are_track_poses_at_arc_zero(world, tracks)
    configs = [CORPUS[name]() for name in sorted(CORPUS)] + [
        parse_scenario(swarm_document(agents=agents, boxes=boxes))
        for agents, boxes in ((2, 3), (6, 8), (16, 50))
    ]
    for config in configs:
        assert_first_rows_are_track_poses_at_arc_zero(config.world, config.tracks)


def sign(value: float) -> float:
    return math.copysign(1.0, value)


def test_first_rows_are_track_poses_at_arc_zero_on_edge_tracks():
    """Open, loop and single-waypoint tracks, and a -0.0 waypoint
    coordinate: a moving track's first row holds `a + 0.0 * d`, which is
    +0.0 where that axis's delta is positive or zero and keeps -0.0 where
    it is negative; a parked track's row is its waypoint as it is."""
    world = WorldModel(BOUNDS)
    path = ((1.5, -2.0, 0.25), (4.0, 0.0, 0.0), (4.0, 4.0, 1.0))
    tracks = [
        AgentTrack(0, path, speed=1.0),
        AgentTrack(1, path, speed=2.0, loop=True),
        AgentTrack(2, ((3.0, -1.0, 7.0),), speed=1.0),
        AgentTrack(3, ((-0.0, 1.0, -0.0), (3.0, 1.0, 2.0)), speed=1.0),
        AgentTrack(4, ((-0.0, 1.0, -0.0), (-3.0, 1.0, -2.0)), speed=1.0),
        AgentTrack(5, ((-0.0, -0.0, 2.0), (-0.0, 5.0, 2.0)), speed=1.0),
        AgentTrack(6, ((-0.0, 0.0, -0.0),), speed=1.0),
    ]
    rows = assert_first_rows_are_track_poses_at_arc_zero(world, tracks)
    assert rows[2] == (3.0, -1.0, 7.0, 0.0, 0.0, 0.0, 1.0)
    # positive deltas on x and z: both turn +0.0
    assert [sign(v) for v in rows[3][:3]] == [1.0, 1.0, 1.0]
    # negative deltas: both keep -0.0
    assert [sign(v) for v in rows[4][:3]] == [-1.0, 1.0, -1.0]
    # a zero delta on x, a positive one on y: both turn +0.0
    assert [sign(v) for v in rows[5][:3]] == [1.0, 1.0, 1.0]
    # parked: the waypoint as it is
    assert [sign(v) for v in rows[6][:3]] == [-1.0, 1.0, -1.0]


def test_kernel_snapshots_share_a_read_only_pair_index():
    world, tracks = patrol_world()
    sim = ReferencePhysicsSim(world, tracks)
    first = sim.channel_snapshot(ChannelFidelity.los_nlos())
    sim.step(1_000_000)
    second = sim.channel_snapshot(ChannelFidelity.disk(50.0))
    assert first.ids == second.ids == wire.all_pairs(2)
    assert first.pair_rows is second.pair_rows
    assert dict(first.pair_rows) == {(0, 1): 0}
    with pytest.raises(TypeError):
        first.pair_rows[(0, 1)] = 1


def test_reference_sim_makes_no_table_lookups_per_window():
    world, tracks = patrol_world()
    sim = ReferencePhysicsSim(world, tracks)
    fid = ChannelFidelity.los_nlos()
    before = physics._segment_table.cache_info()
    for _ in range(500):
        sim.step(1_000_000)
        sim.channel_snapshot(fid)
    assert physics._segment_table.cache_info() == before


def assert_needs_no_check(cd):
    """The columns of `cd`, which nothing checks in process, pass the check
    rebuilt as a snapshot."""
    again = wire.ChannelData(
        cd.poses, cd.ids, cd.los, cd.path_start, cd.num_hops, cd.hop_start, cd.hops
    )
    wire.validate_channel_data(again)
    assert cd.pair_rows == again.pair_rows


def test_kernel_snapshots_of_random_worlds_need_no_check():
    los, disk = ChannelFidelity.los_nlos(), ChannelFidelity.disk(20.0)
    kinds = set()
    for boxes, positions in random_kernel_cases():
        world = WorldModel(BOUNDS, tuple(boxes))
        tracks = [AgentTrack(k, (p,), speed=1.0) for k, p in enumerate(positions)]
        sim = ReferencePhysicsSim(world, tracks)
        for fid in (los, disk):
            cd = sim.channel_snapshot(fid)
            assert_needs_no_check(cd)
            assert repr(cd) == repr(extract_channel_data(world, initial_agent_states(tracks), fid))
        # both kernels, whichever the size picks
        poses = tuple(p + (0.0, 0.0, 0.0, 1.0) for p in positions)
        for kernel, args in (
            (physics._los_paths_scalar, ()),
            (physics._los_paths_vector, (physics.BroadPhase(),)),
        ):
            cd = physics._one_path_snapshot(poses, *kernel(world, positions, *args))
            wire.validate_channel_data(cd)
            kinds.add(bool(cd.hops))
    assert kinds == {True, False}


def test_kernel_snapshots_of_the_corpus_need_no_check():
    """Every snapshot of the corpus worlds, of all three kinds, passes the
    check rebuilt from its columns, and equals
    `extract_channel_data` over `step_world`'s states."""
    from cosimnet.scenario import parse_scenario
    from tests.test_lockstep_oracle import CORPUS, swarm_document

    configs = [CORPUS[name]() for name in sorted(CORPUS)] + [
        parse_scenario(swarm_document(agents=agents, boxes=boxes))
        for agents, boxes in ((2, 3), (6, 8))
    ]
    for config in configs:
        by_id = {t.agent_id: t for t in config.tracks}
        sim = ReferencePhysicsSim(config.world, config.tracks)
        states = initial_agent_states(config.tracks)
        for k in range(60):
            for _ in range(7):
                sim.step(config.window_ns)
                states = step_world(config.world, by_id, states, config.window_ns)
            fid = ChannelFidelity.disk(40.0) if k % 3 == 0 else config.fidelity
            cd = sim.channel_snapshot(fid)
            assert_needs_no_check(cd)
            assert repr(cd) == repr(extract_channel_data(config.world, states, fid))


def test_reference_sim_leaves_snapshots_near_the_float_limit_unchecked():
    # poses near the float limit: the netsim takes the snapshot unchecked
    # and answers from the deferred source, as the oracle from its records
    from cosimnet.netsim import RadioParams, ReferenceNetSim

    world = WorldModel(Box((0.0, 0.0, 0.0), (1e308, 1.0, 1.0)))
    tracks = [
        AgentTrack(0, ((1.0, 0.5, 0.5),), speed=1.0),
        AgentTrack(1, ((1.0, 0.5, 0.5), (1e307, 0.5, 0.5)), speed=1e306),
    ]
    sim = ReferencePhysicsSim(world, tracks)
    sim.step(1_000_000)
    by_id = {t.agent_id: t for t in tracks}
    states = step_world(world, by_id, initial_agent_states(tracks), 1_000_000)
    cd = sim.channel_snapshot(ChannelFidelity.los_nlos())
    netsim = ReferenceNetSim(RadioParams(), {})
    netsim.apply_channel(cd)
    oracle = ReferenceNetSim(RadioParams(), {})
    oracle.apply_channel(extract_channel_data(world, states, ChannelFidelity.los_nlos()))
    assert repr(netsim.link_table) == repr(oracle.link_table)
    assert type(cd) is not wire.ChannelData  # the netsim built no pair column
    assert_needs_no_check(cd)


# -- vector extraction against the scalar reference ---------------------------


UNIT = Box((0, 0, 0), (1, 1, 1), penetration_loss=4.0)


def kernel_paths(kernel, world, positions, *args):
    """The path records of the snapshot a kernel's columns make, over agents
    at `positions` with the default orientation."""
    poses = tuple((*p, 0.0, 0.0, 0.0, 1.0) for p in positions)
    return path_details(physics._one_path_snapshot(poses, *kernel(world, positions, *args)))


def assert_kernels_agree(boxes, positions):
    """Both kernels' snapshots reproduce the object-building oracle exactly:
    repr tells every float bit pattern apart, -0.0 from 0.0 included.  The
    scalar kernel's columns, built on `_pair_hits`, are those of the
    unculled scalar oracle.  The vector kernel must not raise
    floating-point warnings either, and the records built from the columns
    must hold the exact field types: no numpy scalars, no lists."""
    world = WorldModel(BOUNDS, tuple(boxes))
    positions = [tuple(float(v) for v in p) for p in positions]
    oracle = tuple(physics_oracles.los_paths_vector(world, positions))
    for pi, pj in itertools.permutations(positions, 2):
        assert_pair_hits_agree(world, pi, pj)
    assert repr(physics._los_paths_scalar(world, positions)) == repr(
        physics_oracles.los_paths_scalar(world, positions)
    )
    scalar = kernel_paths(physics._los_paths_scalar, world, positions)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = kernel_paths(physics._los_paths_vector, world, positions, physics.BroadPhase())
    assert repr(vector) == repr(oracle)
    assert repr(scalar) == repr(oracle)
    for path in vector + scalar:
        assert type(path.ids) is tuple and [type(v) for v in path.ids] == [int, int]
        assert type(path.los) is bool
        assert type(path.num_hops) is tuple
        assert all(type(h) is int for h in path.num_hops)
        assert type(path.hop_points) is tuple
        for hop in path.hop_points:
            assert type(hop) is tuple and [type(v) for v in hop] == [float] * 4
    return vector


def test_vector_kernel_without_boxes():
    paths = assert_kernels_agree([], [(0, 0, 0), (5, 1, 2), (-3, 4, 0)])
    assert all(p.los and p.num_hops == (0,) for p in paths)


def test_vector_kernel_rejects_grazing_contact():
    cases = [
        ((-1, 1, 0.5), (2, 1, 0.5)),    # slides along the face y = 1
        ((-1, 1, 1), (2, 1, 1)),        # slides along an edge
        ((-1, -1, -1), (0, 0, 0)),      # ends on a corner
        ((-1, 1, 1), (1, -1, 1)),       # crosses the top face on a diagonal
        ((0.5, 0.5, 1), (0.5, 0.5, 3)),  # leaves from a face, outward
    ]
    for p0, p1 in cases:
        (path,) = assert_kernels_agree([UNIT], [p0, p1])
        assert path.los, (p0, p1)


def test_vector_kernel_on_slab_planes():
    cases = [
        ((0, 0.5, 0.5), (3, 0.5, 0.5)),    # origin on the x = min plane, entering
        ((1, 0.5, 0.5), (-3, 0.5, 0.5)),   # origin on x = max, t for the far plane is -0.0
        ((0, 0.5, 0.5), (-3, 0.5, 0.5)),   # origin on x = min, leaving: zero-length
        ((-2, 0, 0.5), (3, 0, 0.5)),       # flat y axis with its origin on y = min
        ((-2, 1, 0.5), (3, 1, 0.5)),       # flat y axis with its origin on y = max
        ((-2, 0.5, 0.5), (3, 0.5, 0.5)),   # flat y and z, inside both slabs
        ((-2, 1.5, 0.5), (3, 1.5, 0.5)),   # flat y axis outside its slab
        ((0.5, 0.5, 0.5), (0.5, 0.5, 0.7)),  # both ends inside, two flat axes
        # t0 = max(0.0, -0.0) must stay +0.0: the entry's y is -0.0 + t0 * dy,
        # flat y, then every axis sloped and the largest entry t -0.0
        ((1, -0.0, 0.5), (-3, -0.0, 0.5)),
        ((1, -0.0, 0.5), (-3, 0.3, 0.6)),
    ]
    straddling = Box((0, -1, 0), (1, 1, 1), penetration_loss=2.0)
    for p0, p1 in cases:
        assert_kernels_agree([UNIT, straddling], [p0, p1])


def test_vector_kernel_coincident_agents_are_los():
    # both agents strictly inside a box: a zero-length segment still crosses nothing
    paths = assert_kernels_agree(
        [UNIT], [(0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (3, 0.5, 0.5)]
    )
    assert [p.los for p in paths] == [True, False, False]


def test_vector_kernel_orders_tied_entries_by_box_index():
    # both boxes are entered through the plane x = 1 at the same t
    upper = Box((1, 0, 0), (2, 2, 2), penetration_loss=5.0)
    inner = Box((1, 0.5, 0.5), (3, 1.5, 1.5), penetration_loss=9.0)
    # face-sharing neighbours along the path, listed against the walk order
    beyond = Box((3, 0.5, 0.5), (4, 1.5, 1.5), penetration_loss=2.0)
    for boxes in ([upper, inner, beyond], [beyond, inner, upper]):
        (path,) = assert_kernels_agree(boxes, [(0, 1, 1), (5, 1, 1)])
        assert path.num_hops == (3,)
        by_index = sorted((upper, inner), key=boxes.index)
        assert [h[3] for h in path.hop_points] == [
            b.penetration_loss for b in (*by_index, beyond)
        ]


def test_vector_kernel_keeps_hits_rounded_past_the_segment_end():
    # a + (b - a) lands 4.7e-11 past b = 1e-3, inside a box that starts
    # 1e-11 past b: the scalar test counts the hit, so the broad phase must
    # not cut the box
    box = Box((1e-3 + 1e-11, 0, 0), (1, 1, 1), penetration_loss=1.0)
    (path,) = assert_kernels_agree([box], [(-1e6, 0.5, 0.5), (1e-3, 0.5, 0.5)])
    assert not path.los


def random_kernel_cases():
    """300 random worlds, as (boxes, agent positions)."""
    rng = random.Random(2005)

    def coord(lo, hi):
        # grid values make shared planes, ties and grazing contact common
        return float(rng.randint(lo, hi)) if rng.random() < 0.5 else rng.uniform(lo, hi)

    for _ in range(300):
        boxes = []
        for _ in range(rng.randint(0, 40)):
            lo = tuple(coord(-20, 15) for _ in range(3))
            size = tuple(float(rng.randint(1, 6)) for _ in range(3))
            boxes.append(Box(lo, tuple(a + s for a, s in zip(lo, size)), rng.uniform(0, 10)))
        positions = [tuple(coord(-25, 25) for _ in range(3)) for _ in range(rng.randint(0, 9))]
        if len(positions) > 2 and rng.random() < 0.3:
            positions[2] = positions[0]
        yield boxes, positions


def test_vector_kernel_matches_scalar_on_random_worlds():
    for boxes, positions in random_kernel_cases():
        assert_kernels_agree(boxes, positions)


def test_extraction_selects_the_path_by_pair_box_tests(monkeypatch):
    calls = []
    for name in ("_los_paths_scalar", "_los_paths_vector"):
        kernel = getattr(physics, name)
        monkeypatch.setattr(
            physics, name,
            lambda *args, kernel=kernel, name=name: calls.append(name) or kernel(*args),
        )
    agents = two_agents((0, 0, 0), (30, 0, 0))
    fid = ChannelFidelity.los_nlos()
    for n_boxes, path in (
        (physics.VECTOR_MIN_TESTS - 1, "_los_paths_scalar"),
        (physics.VECTOR_MIN_TESTS, "_los_paths_vector"),
    ):
        boxes = tuple(
            Box((1 + 0.1 * k, -1, -1), (1.05 + 0.1 * k, 1, 1), 1.0) for k in range(n_boxes)
        )
        calls.clear()
        data = extract_channel_data(WorldModel(BOUNDS, boxes), agents, fid)
        assert calls == [path]
        assert data.num_hops[0] == n_boxes
    calls.clear()
    extract_channel_data(WorldModel(BOUNDS, boxes), agents, ChannelFidelity.disk(50.0))
    assert calls == []


# -- the broad phase kept across windows -------------------------------------


SKIN = physics.BROAD_PHASE_SKIN


class CountingBroadPhase(physics.BroadPhase):
    rebuilds = 0

    def _build(self, world, pos):
        self.rebuilds += 1
        super()._build(world, pos)


def segment_touches(p0, p1, box) -> bool:
    """The closed slab test, unwidened: whether segment p0->p1 meets the
    box, boundary included."""
    t0, t1 = 0.0, 1.0
    for origin, end, lo, hi in zip(p0, p1, box.min_corner, box.max_corner):
        delta = end - origin
        if delta == 0.0:
            if not lo <= origin <= hi:
                return False
            continue
        ta, tb = sorted(((lo - origin) / delta, (hi - origin) / delta))
        t0, t1 = max(t0, ta), min(t1, tb)
    return t0 <= t1


def fresh_hits(world, positions) -> set[tuple[int, int]]:
    """The (pair, box) that a fresh unwidened slab test finds touching, and
    those the exact narrow phase hits."""
    hits = set()
    for k, (i, j) in enumerate(wire.all_pairs(len(positions))):
        p0, p1 = positions[i], positions[j]
        for b, box in enumerate(world.obstacles):
            if segment_touches(p0, p1, box) or (
                p0 != p1 and physics_oracles.crossing_interval(p0, p1, box) is not None
            ):
                hits.add((k, b))
    return hits


def assert_kept_broad_phase_matches_rebuilds(boxes, walk) -> CountingBroadPhase:
    """Over `walk`, one position set per window, a `BroadPhase` kept across
    windows gives the same paths as a fresh one every window, and as the
    object-building oracle; its candidates hold every hit of a fresh
    unwidened test."""
    world = WorldModel(BOUNDS, tuple(boxes))
    kept = CountingBroadPhase()
    for positions in walk:
        positions = [tuple(float(v) for v in p) for p in positions]
        fresh = kernel_paths(physics._los_paths_vector, world, positions, physics.BroadPhase())
        cached = kernel_paths(physics._los_paths_vector, world, positions, kept)
        oracle = tuple(physics_oracles.los_paths_vector(world, positions))
        assert repr(cached) == repr(fresh) == repr(oracle), positions
        pair, box = kept.candidates(world, np.array(positions).reshape(-1, 3).T)[:2]
        assert fresh_hits(world, positions) <= set(zip(pair.tolist(), box.tolist())), positions
    return kept


def test_broad_phase_rebuilds_when_an_agent_moves_past_the_skin():
    # the box sits beside the first segment; one step of 4 skins swings the
    # segment through it
    box = Box((4, 1.2 * SKIN, 0), (6, 3 * SKIN, 1), penetration_loss=3.0)
    walk = [
        [(0, 0, 0.5), (10, 0, 0.5)],
        [(0, 0, 0.5), (10, 4 * SKIN, 0.5)],
    ]
    kept = assert_kept_broad_phase_matches_rebuilds([box], walk)
    assert kept.rebuilds == 2
    assert not kernel_paths(
        physics._los_paths_vector, WorldModel(BOUNDS, (box,)), walk[1], kept
    )[0].los


def test_broad_phase_keeps_candidates_while_agents_stay_within_the_skin():
    # agent 1 swings the 0-1 segment into a box beside it, and agent 2 walks
    # into a box, in steps that add up to less than the skin: no rebuild
    beside = Box((4, 0.2 * SKIN, 0), (6, 0.6 * SKIN, 1), penetration_loss=3.0)
    ahead = Box((20, -1, 0), (22, 1, 1), penetration_loss=5.0)
    walk = [
        [(0, 0, 0.5), (10, 0.1 * k * SKIN, 0.5), (19.5 + 0.1 * k * SKIN, 0, 0.5)]
        for k in range(10)
    ]
    kept = assert_kept_broad_phase_matches_rebuilds([beside, ahead], walk)
    assert kept.rebuilds == 1
    world = WorldModel(BOUNDS, (beside, ahead))
    first, last = (kernel_paths(physics._los_paths_vector, world, p, kept) for p in walk[::9])
    assert [p.los for p in first] == [True, True, True]
    assert [p.los for p in last] == [False, False, False]


def test_broad_phase_keeps_coincident_agents_los():
    # agents 0 and 1 meet inside a box and part again within the skin
    walk = [
        [(0.5, 0.5, 0.5), (0.5 + 0.05 * abs(k) * SKIN, 0.5, 0.5), (3, 0.5, 0.5)]
        for k in range(-3, 4)
    ]
    kept = assert_kept_broad_phase_matches_rebuilds([UNIT], walk)
    assert kept.rebuilds == 1


def test_broad_phase_keeps_hits_rounded_past_the_segment_end():
    # the rounded-past-the-end hit of the kernel test above, reached by a
    # walk that starts half a skin short of it
    box = Box((1e-3 + 1e-11, 0, 0), (1, 1, 1), penetration_loss=1.0)
    walk = [
        [(-1e6, 0.5, 0.5), (1e-3 - 0.5 * SKIN + 0.1 * k * SKIN, 0.5, 0.5)] for k in range(6)
    ]
    kept = assert_kept_broad_phase_matches_rebuilds([box], walk)
    assert kept.rebuilds == 1


def test_broad_phase_keeps_a_rounded_hit_one_skin_from_its_anchor():
    # the same hit, reached in one step of exactly the skin: the anchor
    # segment ends 1e-11 short of the widened box, and only the rounding
    # slack keeps the box among the candidates
    box = Box((1e-3 + 1e-11, 0, 0), (1, 1, 1), penetration_loss=1.0)
    walk = [[(-1e6, 0.5, 0.5), (1e-3 - SKIN, 0.5, 0.5)], [(-1e6, 0.5, 0.5), (1e-3, 0.5, 0.5)]]
    kept = assert_kept_broad_phase_matches_rebuilds([box], walk)
    assert kept.rebuilds == 1


def test_broad_phase_keeps_a_box_an_agent_slides_along():
    # agent 1 slides along the face y = 1 of the unit box, grazing it, then
    # steps inside, all within the skin of where it started
    walk = [[(-2, 1, 0.5), (0.2 + 0.1 * k, 1, 0.5)] for k in range(7)]
    walk.append([(-2, 1, 0.5), (0.8, 0.9, 0.5)])
    kept = assert_kept_broad_phase_matches_rebuilds([UNIT], walk)
    assert kept.rebuilds == 1
    world = WorldModel(BOUNDS, (UNIT,))
    assert [
        kernel_paths(physics._los_paths_vector, world, p, kept)[0].los for p in walk
    ] == [True] * 7 + [False]


def test_broad_phase_drops_boxes_the_segment_passes_far_from():
    # both boxes overlap the diagonal segment's bounding box; only the one
    # on the diagonal is a candidate
    on = Box((4, 4, 0), (6, 6, 1), penetration_loss=1.0)
    corner = Box((8, 0, 0), (10, 2, 1), penetration_loss=1.0)
    pos = np.array([(0.0, 0.0, 0.5), (10.0, 10.0, 0.5)]).T
    pair, box = physics.BroadPhase().candidates(WorldModel(BOUNDS, (on, corner)), pos)[:2]
    assert (pair.tolist(), box.tolist()) == ([0], [0])


def test_broad_phase_matches_rebuilds_on_random_walks():
    rng = random.Random(1105)
    rebuilds = windows = 0
    for _ in range(40):
        boxes = []
        for _ in range(rng.randint(1, 25)):
            lo = tuple(float(rng.randint(-20, 15)) for _ in range(3))
            size = tuple(float(rng.randint(1, 6)) for _ in range(3))
            boxes.append(Box(lo, tuple(a + s for a, s in zip(lo, size)), rng.uniform(0, 10)))
        positions = [[rng.uniform(-25, 25) for _ in range(3)] for _ in range(rng.randint(2, 7))]
        walk = []
        for _ in range(30):
            for p in positions:
                # mostly small steps, sometimes a jump past the skin
                step = SKIN * (3.0 if rng.random() < 0.05 else 0.2)
                for axis in range(3):
                    p[axis] += rng.uniform(-step, step)
            walk.append([tuple(p) for p in positions])
        rebuilds += assert_kept_broad_phase_matches_rebuilds(boxes, walk).rebuilds
        windows += len(walk)
    assert 40 < rebuilds < windows / 2
