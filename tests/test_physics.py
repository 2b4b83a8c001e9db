"""World stepping, box intersection, and channel extraction."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest

from cosimnet import physics, wire
from cosimnet.physics import (
    AgentState,
    AgentTrack,
    Box,
    ChannelFidelity,
    ReferencePhysicsSim,
    WorldModel,
    extract_channel_data,
    initial_agent_states,
    segment_box_crossings,
    step_world,
    track_length,
    track_pose,
)
from cosimnet.wire import Pose

BOUNDS = Box((-500.0, -500.0, -500.0), (500.0, 500.0, 500.0))
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


# -- channel extraction ------------------------------------------------------


def two_agents(p0, p1):
    return [AgentState(0, Pose(p0), 0.0), AgentState(1, Pose(p1), 0.0)]


def test_open_pair_is_los_with_zero_hops():
    data = extract_channel_data(
        EMPTY_WORLD, two_agents((0, 0, 0), (30, 0, 0)), ChannelFidelity.los_nlos()
    )
    (path,) = data.path_details
    assert path.ids == (0, 1)
    assert path.los is True
    assert path.num_hops == (0,)
    assert path.hop_points == ()


def test_bisecting_box_blocks_pair():
    wall = Box((14, -5, -5), (16, 5, 5), penetration_loss=10.0)
    world = WorldModel(BOUNDS, (wall,))
    agents = two_agents((0, 0, 0), (30, 0, 0))
    data = extract_channel_data(world, agents, ChannelFidelity.los_nlos())
    (path,) = data.path_details
    assert path.los is False
    assert path.num_hops == (1,)
    ((x, y, z, loss),) = path.hop_points
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
    assert [p.ids for p in data.path_details] == [(0, 1), (0, 2), (1, 2)]


def test_disk_fidelity_compares_distance_to_radius():
    fid = ChannelFidelity.disk(30.0)
    near = extract_channel_data(EMPTY_WORLD, two_agents((0, 0, 0), (30, 0, 0)), fid)
    far = extract_channel_data(EMPTY_WORLD, two_agents((0, 0, 0), (30.001, 0, 0)), fid)
    assert near.path_details[0].los is True
    assert near.path_details[0].num_hops == ()
    assert far.path_details[0].los is False


def test_hops_ordered_by_entry_along_segment():
    near_box = Box((5, -2, -2), (8, 2, 2), penetration_loss=3.0)
    far_box = Box((15, -2, -2), (20, 2, 2), penetration_loss=7.0)
    # obstacle list order deliberately reversed relative to the segment walk
    world = WorldModel(BOUNDS, (far_box, near_box))
    data = extract_channel_data(
        world, two_agents((0, 0, 0), (30, 0, 0)), ChannelFidelity.los_nlos()
    )
    (path,) = data.path_details
    assert path.num_hops == (2,)
    assert [h[3] for h in path.hop_points] == [3.0, 7.0]
    assert path.hop_points[0][0] == pytest.approx(5.0, abs=1e-12)
    assert path.hop_points[1][0] == pytest.approx(15.0, abs=1e-12)


def test_coincident_agents_are_los():
    data = extract_channel_data(
        EMPTY_WORLD, two_agents((1, 2, 3), (1, 2, 3)), ChannelFidelity.los_nlos()
    )
    assert data.path_details[0].los is True


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
    assert [p.position for p in a.node_list] == [(0, 0, 0), (10, 0, 0), (0, 10, 0)]


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
        for path in data.path_details:
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
    assert after.node_list[0].position == pytest.approx((4.0, 0.0, 1.0), abs=1e-9)


def test_initial_agent_states_sorted_and_parked():
    _, tracks = patrol_world()
    states = initial_agent_states(reversed(tracks))
    assert [s.agent_id for s in states] == [0, 1]
    assert states[0].pose.position == (0.0, 0.0, 1.0)
    assert states[0].arc_position == 0.0


# -- vector extraction against the scalar reference ---------------------------


UNIT = Box((0, 0, 0), (1, 1, 1), penetration_loss=4.0)


def assert_kernels_agree(boxes, positions):
    """The vector kernel reproduces the scalar path exactly: repr tells
    every float bit pattern apart, -0.0 from 0.0 included.  The kernel
    must not raise floating-point warnings either, and its paths must hold
    the exact field types: no numpy scalars, no lists."""
    world = WorldModel(BOUNDS, tuple(boxes))
    positions = [tuple(float(v) for v in p) for p in positions]
    scalar = physics._los_paths_scalar(world, positions)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vector = physics._los_paths_vector(world, positions)
    assert repr(vector) == repr(scalar)
    for path in vector:
        assert type(path.ids) is tuple and [type(v) for v in path.ids] == [int, int]
        assert type(path.los) is bool
        assert type(path.num_hops) is tuple
        assert all(type(h) is int for h in path.num_hops)
        assert type(path.hop_points) is tuple
        for hop in path.hop_points:
            assert type(hop) is tuple and [type(v) for v in hop] == [float] * 4
    return scalar


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


def test_vector_kernel_matches_scalar_on_random_worlds():
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
        assert_kernels_agree(boxes, positions)


def test_extraction_selects_the_path_by_pair_box_tests(monkeypatch):
    calls = []
    for name in ("_los_paths_scalar", "_los_paths_vector"):
        kernel = getattr(physics, name)
        monkeypatch.setattr(
            physics, name,
            lambda world, positions, kernel=kernel, name=name:
                calls.append(name) or kernel(world, positions),
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
        assert data.path_details[0].num_hops == (n_boxes,)
    calls.clear()
    extract_channel_data(WorldModel(BOUNDS, boxes), agents, ChannelFidelity.disk(50.0))
    assert calls == []
