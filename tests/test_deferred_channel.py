"""Deferred snapshots: `ReferencePhysicsSim` hands out snapshots whose pair
columns are built when first read, and the netsim reads one pair's
first-path losses from them without building anything.

The oracles are the eager path, `physics_oracles.extract_channel_data`
over the same poses, the column slice of the same snapshot once built,
and the unculled scalar kernel.
"""

from __future__ import annotations

import pickle

import pytest

from cosimnet import physics, wire
from cosimnet.netsim import RadioParams, ReferenceNetSim
from cosimnet.physics import (
    AgentTrack,
    Box,
    ChannelFidelity,
    ReferencePhysicsSim,
    WorldModel,
)
from cosimnet.scenario import load_scenario, parse_scenario, run_scenario
from cosimnet.wire import ChannelData, PathDetails, Pose

from tests import physics_oracles
from tests.physics_oracles import extract_channel_data, initial_agent_states
from tests.test_lockstep_oracle import SCENARIOS, socket_link_pair, two_peer_run
from tests.test_physics import UNIT, random_kernel_cases

# wide enough for every corpus case, the rounded-past-the-end one included
BOUNDS = Box((-1e7, -1e7, -1e7), (1e7, 1e7, 1e7))
FIDELITIES = (ChannelFidelity.los_nlos(), ChannelFidelity.disk(20.0))


def parked(world, positions):
    tracks = [AgentTrack(k, (p,), speed=1.0) for k, p in enumerate(positions)]
    return ReferencePhysicsSim(world, tracks), tracks


def is_deferred(cd) -> bool:
    return type(cd) is not ChannelData


def oracle_losses(world, positions):
    """Each pair's first-path losses from the unculled scalar oracle's
    columns: None for LOS, else its hop losses in hop order."""
    los, counts, hops = physics_oracles.los_paths_scalar(world, positions)
    losses, h = [], 0
    for clear, count in zip(los, counts):
        losses.append(None if clear else tuple(hop[3] for hop in hops[h:h + count]))
        h += count
    return losses


def assert_deferred_agrees(boxes, positions):
    """On both fidelities: each pair's losses read from the deferred
    snapshot equal the column slice once it is built, and build nothing;
    the built snapshot is `extract_channel_data`'s, `repr` for `repr`; a
    netsim over a deferred snapshot has the link table of one over the
    eager snapshot.  The LOS/NLOS losses are the unculled scalar oracle's,
    and are returned."""
    world = WorldModel(BOUNDS, tuple(boxes))
    positions = [tuple(float(v) for v in p) for p in positions]
    params = RadioParams()
    by_fidelity = []
    for fid in FIDELITIES:
        sim, tracks = parked(world, positions)
        cd = sim.channel_snapshot(fid)
        assert is_deferred(cd)
        pairs = range(len(cd.ids))
        lazy = [cd.first_path_losses(k) for k in pairs]
        assert is_deferred(cd)
        assert cd.los is cd.los  # built now, once
        assert not is_deferred(cd)
        assert repr(lazy) == repr([cd.first_path_losses(k) for k in pairs])
        eager = extract_channel_data(world, initial_agent_states(tracks), fid)
        assert repr(cd) == repr(eager) and cd == eager

        deferred = parked(world, positions)[0].channel_snapshot(fid)
        netsim, oracle = (ReferenceNetSim(params, {}) for _ in range(2))
        netsim.apply_channel(deferred)
        oracle.apply_channel(eager)
        assert repr(netsim.link_table) == repr(oracle.link_table)
        assert is_deferred(deferred)
        by_fidelity.append(lazy)
    assert repr(by_fidelity[0]) == repr(oracle_losses(world, positions))
    return by_fidelity[0]


def test_deferred_losses_match_the_built_columns_on_random_worlds():
    kinds = set()
    for boxes, positions in random_kernel_cases():
        for losses in assert_deferred_agrees(boxes, positions):
            kinds.add("los" if losses is None else len(losses) > 1)
    assert kinds == {"los", False, True}


def test_deferred_losses_on_grazing_and_face_sliding_segments():
    cases = [
        ((-1, 1, 0.5), (2, 1, 0.5)),    # slides along the face y = 1
        ((-1, 1, 1), (2, 1, 1)),        # slides along an edge
        ((-1, -1, -1), (0, 0, 0)),      # ends on a corner
        ((-1, 1, 1), (1, -1, 1)),       # crosses the top face on a diagonal
        ((0.5, 0.5, 1), (0.5, 0.5, 3)),  # leaves from a face, outward
    ]
    for p0, p1 in cases:
        assert assert_deferred_agrees([UNIT], [p0, p1])[0] is None, (p0, p1)


def test_deferred_losses_on_slab_planes_and_coincident_agents():
    straddling = Box((0, -1, 0), (1, 1, 1), penetration_loss=2.0)
    for p0, p1 in [
        ((0, 0.5, 0.5), (3, 0.5, 0.5)),
        ((1, 0.5, 0.5), (-3, 0.5, 0.5)),
        ((-2, 0, 0.5), (3, 0, 0.5)),
        ((-2, 1.5, 0.5), (3, 1.5, 0.5)),
        ((0.5, 0.5, 0.5), (0.5, 0.5, 0.7)),
        ((1, -0.0, 0.5), (-3, 0.3, 0.6)),
    ]:
        assert_deferred_agrees([UNIT, straddling], [p0, p1])
    # coincident agents inside a box are LOS; each sees the third behind it
    losses = assert_deferred_agrees(
        [UNIT], [(0.5, 0.5, 0.5), (0.5, 0.5, 0.5), (3, 0.5, 0.5)]
    )
    assert losses == [None, (4.0,), (4.0,)]


def test_deferred_losses_order_tied_entries_by_box_index():
    upper = Box((1, 0, 0), (2, 2, 2), penetration_loss=5.0)
    inner = Box((1, 0.5, 0.5), (3, 1.5, 1.5), penetration_loss=9.0)
    beyond = Box((3, 0.5, 0.5), (4, 1.5, 1.5), penetration_loss=2.0)
    for boxes in ([upper, inner, beyond], [beyond, inner, upper]):
        (losses,) = assert_deferred_agrees(boxes, [(0, 1, 1), (5, 1, 1)])
        by_index = sorted((upper, inner), key=boxes.index)
        assert losses == tuple(b.penetration_loss for b in (*by_index, beyond))


def test_deferred_losses_keep_hits_rounded_past_the_segment_end():
    # the computed midpoint lands past the segment's end, inside a box that
    # starts 1e-11 beyond it: only the slack keeps the box among those tested
    box = Box((1e-3 + 1e-11, 0, 0), (1, 1, 1), penetration_loss=1.0)
    (losses,) = assert_deferred_agrees([box], [(-1e6, 0.5, 0.5), (1e-3, 0.5, 0.5)])
    assert losses == (1.0,)


def test_first_path_losses_of_built_columns():
    """Snapshots from records: the LOS flag wins over any hops, a pair with
    no path or an empty first path has no losses, only the first path
    counts, and the losses keep their type, so the netsim's wall loss is
    the float 0.0, the int 0, or their sum as `sum` gives it."""
    poses = tuple(Pose((float(k), 0.0, 0.0)) for k in range(6))
    hop = (0.5, 0.0, 0.0)
    paths = (
        PathDetails((0, 1), True, (1,), ((*hop, 3.0),)),
        PathDetails((0, 2), False),
        PathDetails((3, 0), False, (0, 1), ((*hop, 7.0),)),
        PathDetails((0, 4), False, (2,), ((*hop, 3), (*hop, 4))),
        PathDetails((0, 5), False, (1, 1), ((*hop, 2.5), (*hop, 9.0))),
        PathDetails((1, 2), False, (2,), ((*hop, 1.5), (*hop, 2))),
    )
    cd = ChannelData(poses, paths)
    got = [cd.first_path_losses(k) for k in range(len(paths))]
    assert repr(got) == repr([None, (), (), (3, 4), (2.5,), (1.5, 2)])
    netsim = ReferenceNetSim(RadioParams(), {})
    netsim.apply_channel(cd)
    walls = [netsim.link_state(*pd.ids).wall_loss for pd in paths]
    assert repr(walls) == repr([0.0, 0, 0, 7, 2.5, 3.5])


def test_a_reused_deferred_snapshot_is_built_once_by_its_readers():
    world = WorldModel(BOUNDS, (UNIT,))
    sim, tracks = parked(world, [(-1, 0.5, 0.5), (3, 0.5, 0.5), (0.5, 5, 0.5)])
    fid = FIDELITIES[0]
    cd = sim.channel_snapshot(fid)
    assert sim.channel_snapshot(fid) is cd
    eager = extract_channel_data(world, initial_agent_states(tracks), fid)
    blob = wire.encode_channel_data(cd)
    assert not is_deferred(cd)
    assert blob == wire.encode_channel_data(eager)
    assert wire.decode_channel_data(blob) == cd


def test_deferred_snapshots_pickle_and_hash_as_built_ones():
    world = WorldModel(BOUNDS, (UNIT,))
    positions = [(-1, 0.5, 0.5), (3, 0.5, 0.5)]
    fid = FIDELITIES[0]

    def make():
        return parked(world, positions)[0].channel_snapshot(fid)

    eager = extract_channel_data(world, initial_agent_states(parked(world, positions)[1]), fid)
    assert repr(pickle.loads(pickle.dumps(make()))) == repr(eager)
    assert hash(make()) == hash(eager)
    cd = make()
    with pytest.raises(AttributeError):
        cd.no_such_column
    assert is_deferred(cd)


# -- who builds the columns ---------------------------------------------------


def count_kernel_calls(monkeypatch) -> list:
    calls = []
    for name in ("_los_paths_scalar", "_los_paths_vector"):
        kernel = getattr(physics, name)
        monkeypatch.setattr(
            physics, name, lambda *args, kernel=kernel: calls.append(1) or kernel(*args)
        )
    return calls


def swarm16():
    from benchmarks import swarm

    return parse_scenario(swarm.generate(7, 250))


def test_in_process_swarm16_runs_no_all_pairs_kernel(tmp_path, monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    result = run_scenario(swarm16(), tmp_path)
    assert calls == []
    assert sum(flow["delivered_total"] for flow in result.flow_stats) > 0


def test_the_timeline_builds_every_applied_snapshot(tmp_path, monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    config = swarm16()
    n = config.duration_ns // config.window_ns
    result = run_scenario(config, tmp_path, timeline=True)
    assert len(calls) == n - 1  # the last window's snapshot is never applied
    assert len(result.timeline) == (n - 1) * 120


def test_the_split_physics_side_builds_every_snapshot(tmp_path, monkeypatch):
    calls = count_kernel_calls(monkeypatch)
    config = swarm16()
    n = config.duration_ns // config.window_ns
    phys_link, net_link = socket_link_pair()
    two_peer_run(config, phys_link, net_link, tmp_path)
    assert len(calls) == n  # each snapshot is encoded


def test_every_static_snapshot_is_one_object():
    config = load_scenario(SCENARIOS / "static_los_30m.json")
    sim = ReferencePhysicsSim(config.world, config.tracks)
    first = sim.channel_snapshot(config.fidelity)
    for _ in range(50):
        sim.step(config.window_ns)
        assert sim.channel_snapshot(config.fidelity) is first
    # another fidelity gets a snapshot of its own
    assert sim.channel_snapshot(ChannelFidelity.disk(50.0)) is not first


def test_an_open_track_gives_the_reference_snapshots():
    world = WorldModel(BOUNDS, (UNIT,))
    tracks = [
        AgentTrack(0, ((-1.0, 0.5, 0.5), (-1.0, 0.5, 2.5)), speed=1.0),
        AgentTrack(1, ((3.0, 0.5, 0.5), (5.0, 0.5, 0.5), (5.0, 3.5, 0.5)), speed=2.0),
    ]
    sim = ReferencePhysicsSim(world, tracks)
    fid = FIDELITIES[0]
    by_id = {t.agent_id: t for t in tracks}
    states = initial_agent_states(tracks)
    # agent 0 ends after 2 s, agent 1 after 2.5 s
    for _ in range(12):
        sim.step(250_000_000)
        states = physics_oracles.step_world(world, by_id, states, 250_000_000)
        snapshot = sim.channel_snapshot(fid)
        assert repr(snapshot) == repr(extract_channel_data(world, states, fid))
