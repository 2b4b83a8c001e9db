"""Radio model and shared-medium event loop."""

from __future__ import annotations

import collections
import math
import random

import pytest

from cosimnet import netsim, wire
from cosimnet.netsim import (
    MalformedManifestError,
    MediumEventKind,
    RadioParams,
    ReferenceNetSim,
)
from cosimnet.wire import ChannelData
from tests import msggen, net_oracles
from tests.wire_oracles import PathDetails, Pose, channel_data, path_details

W = 10_000_000  # 10 ms
IP = {0: "10.0.0.1", 1: "10.0.0.2", 2: "10.0.0.3"}
DEFAULTS = RadioParams()


def channel(positions, paths):
    return channel_data(tuple(Pose(p) for p in positions), paths)


def two_node_channel(distance, wall_loss=None):
    """Two agents on the x axis; wall_loss None means LOS."""
    if wall_loss is None:
        pd = PathDetails((0, 1), True, (0,), ())
    else:
        pd = PathDetails(
            (0, 1), False, (1,), ((distance / 2, 0.0, 0.0, wall_loss),)
        )
    return channel([(0, 0, 0), (distance, 0, 0)], [pd])


def budget_link(params, distance, wall_loss):
    """The simulator's `LinkState` for two agents `distance` apart behind
    `wall_loss` dB of wall, read through `ReferenceNetSim.link_state`."""
    sim = ReferenceNetSim(params, {0: IP[0], 1: IP[1]})
    sim.apply_channel(two_node_channel(distance, wall_loss))
    return sim.link_state(0, 1)


def packets(entries, ips=IP):
    """The coordinator's rows for (pkt_id, length, src address, dst address)
    entries over the address map `ips`."""
    agent_of = {ip: agent for agent, ip in ips.items()}
    return [
        (pkt_id, length, src, dst, agent_of[src], agent_of[dst], 0, b"")
        for pkt_id, length, src, dst in entries
    ]


def ids(cleared):
    """The ids of an `advance` result's cleared rows, in clearance order."""
    return [row[0] for row, _ in cleared]


def new_sim(agents=2, trace=False, params=DEFAULTS):
    amap = {i: IP[i] for i in range(agents)}
    return ReferenceNetSim(params, amap, trace_events=trace)


# -- radio model -------------------------------------------------------------


def test_radio_params_validation():
    with pytest.raises(ValueError, match="thresholds"):
        RadioParams(mcs_table=((5, 6.5e6), (5, 13e6)))
    with pytest.raises(ValueError, match="rates"):
        RadioParams(mcs_table=((5, 13e6), (8, 6.5e6)))
    with pytest.raises(ValueError, match="> 0"):
        RadioParams(mcs_table=((5, 0.0), (8, 6.5e6)))
    with pytest.raises(ValueError, match="queue_capacity"):
        RadioParams(queue_capacity=0)
    with pytest.raises(ValueError, match="ber_at_threshold"):
        RadioParams(ber_at_threshold=0.6)


def test_radio_params_take_ints_for_overhead_and_capacity():
    # per_packet_overhead=0.5 constructed, and the medium then logged a
    # TX_END at a fractional ns
    for name in ("per_packet_overhead", "queue_capacity"):
        for value in (0.5, 100.0, True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                RadioParams(**{name: value})


def test_link_at_reference_distance():
    link = budget_link(DEFAULTS, 1.0, 0.0)
    assert link.path_loss == pytest.approx(40.0)
    assert link.snr == pytest.approx(70.0)
    assert link.phy_rate == 65.0e6
    assert link.ber == 1e-9  # floored far above the top threshold


def test_link_at_100m():
    link = budget_link(DEFAULTS, 100.0, 0.0)
    assert link.path_loss == pytest.approx(40.0 + 24.0 * 2.0)
    assert link.snr == pytest.approx(22.0)
    assert link.phy_rate == 52.0e6
    assert link.ber == pytest.approx(1e-2 * 10 ** (-2.0 / 3.0))


def test_two_walls_at_100m_kill_the_link():
    link = budget_link(DEFAULTS, 100.0, 20.0)
    assert link.snr == pytest.approx(2.0)
    assert link.is_down
    assert link.phy_rate is None
    assert link.ber == 0.5


def test_near_field_saturates_at_pl0():
    link = budget_link(DEFAULTS, 0.01, 0.0)
    assert link.path_loss == pytest.approx(40.0)


def test_zero_base_ber_stays_zero():
    params = RadioParams(ber_at_threshold=0.0)
    link = budget_link(params, 10.0, 0.0)
    assert link.ber == 0.0
    assert not link.is_down


def test_wall_loss_monotonicity():
    # SNR and PHY rate degrade monotonically with wall loss at any
    # granularity.  BER resets to ber_at_threshold at each MCS downshift,
    # so it is only monotone across coarse (whole-wall, 10 dB) steps at the
    # calibration distance; per-dB it is monotone within one MCS band.
    def rate_key(link):
        return -math.inf if link.phy_rate is None else link.phy_rate

    for distance in (1.0, 10.0, 50.0, 120.0):
        previous = None
        for wall in range(0, 41):
            link = budget_link(DEFAULTS, distance, float(wall))
            if previous is not None:
                assert link.snr <= previous.snr
                assert rate_key(link) <= rate_key(previous)
                if link.phy_rate == previous.phy_rate:
                    assert link.ber >= previous.ber
            previous = link


def test_ber_monotone_over_whole_walls_at_50m():
    links = [
        budget_link(DEFAULTS, 50.0, 10.0 * walls)
        for walls in range(5)
    ]
    bers = [link.ber for link in links]
    assert bers == sorted(bers)
    assert links[3].is_down and links[4].is_down


# -- channel application -----------------------------------------------------


def test_apply_channel_builds_links():
    sim = new_sim()
    sim.apply_channel(two_node_channel(100.0))
    link = sim.link_state(0, 1)
    assert link.snr == pytest.approx(22.0)
    assert sim.link_state(1, 0) == link  # unordered lookup


def test_apply_channel_sums_first_path_walls():
    sim = new_sim()
    cd = channel(
        [(0, 0, 0), (100, 0, 0)],
        [
            PathDetails(
                (0, 1),
                False,
                (2, 1),
                (
                    (30.0, 0.0, 0.0, 8.0),
                    (60.0, 0.0, 0.0, 5.0),
                    (50.0, 0.0, 0.0, 99.0),  # second path, must be ignored
                ),
            )
        ],
    )
    sim.apply_channel(cd)
    assert sim.link_state(0, 1).wall_loss == pytest.approx(13.0)


def test_apply_channel_replaces_link_table():
    sim = new_sim(agents=3)
    cd3 = channel(
        [(0, 0, 0), (10, 0, 0), (20, 0, 0)],
        [
            PathDetails((0, 1), True, (0,), ()),
            PathDetails((0, 2), True, (0,), ()),
            PathDetails((1, 2), True, (0,), ()),
        ],
    )
    sim.apply_channel(cd3)
    assert sim.link_state(0, 2) is not None
    sim.apply_channel(two_node_channel(10.0))
    assert sim.link_state(0, 2) is None


def oracle_link_state(params, pair, distance, wall_loss):
    """The link budget as it was before it was shared with `apply_channel`:
    the plain formulas and an MCS scan.  Kept as the oracle
    the link table must match bit for bit."""
    d = max(distance, params.ref_distance)
    path_loss = (
        params.pl0
        + 10.0 * params.path_loss_exponent * math.log10(d / params.ref_distance)
        + wall_loss
    )
    snr = params.tx_power - path_loss - params.noise_floor
    selected = None
    for threshold, rate in params.mcs_table:
        if snr >= threshold:
            selected = (threshold, rate)
        else:
            break
    if selected is None:
        return netsim.LinkState(pair, distance, wall_loss, path_loss, snr, None, netsim.BER_CEILING)
    threshold, rate = selected
    raw = params.ber_at_threshold * 10.0 ** (-(snr - threshold) / params.ber_decade_per_db)
    ber = 0.0 if raw == 0.0 else min(max(raw, netsim.BER_FLOOR), netsim.BER_CEILING)
    return netsim.LinkState(pair, distance, wall_loss, path_loss, snr, rate, ber)


def assert_link_table_matches_oracle(sim, cd):
    """Every listed pair reads the oracle's LinkState (repr tells every float
    bit pattern apart) in both orders; every other pair reads None."""
    sim.apply_channel(cd)
    positions = [row[:3] for row in cd.poses]
    listed = set()
    for pd in path_details(cd):
        a, b = pd.ids
        pair = (min(a, b), max(a, b))
        listed.add(pair)
        if pd.los:
            wall_loss = 0.0
        else:
            first_path_hops = pd.num_hops[0] if pd.num_hops else 0
            wall_loss = sum(h[3] for h in pd.hop_points[:first_path_hops])
        distance = math.dist(positions[a], positions[b])
        expected = oracle_link_state(sim.params, pair, distance, wall_loss)
        link = sim.link_state(a, b)
        assert repr(link) == repr(expected)
        assert repr(sim.link_state(b, a)) == repr(link)
    n = len(positions)
    for a in range(n + 1):
        for b in range(n + 1):
            if (min(a, b), max(a, b)) not in listed:
                assert sim.link_state(a, b) is None


def test_link_table_matches_the_oracle_on_random_channels():
    rng = random.Random(4049)
    amap = {i: f"10.0.2.{i + 1}" for i in range(16)}
    sims = [ReferenceNetSim(p, amap) for p in (DEFAULTS, RadioParams(ber_at_threshold=0.0))]
    for _ in range(300):
        cd = msggen.random_channel_data(rng)
        for sim in sims:
            assert_link_table_matches_oracle(sim, cd)


def test_link_table_matches_the_oracle_on_swarm16_windows():
    from benchmarks import swarm
    from cosimnet.physics import ReferencePhysicsSim
    from cosimnet.scenario import parse_scenario

    config = parse_scenario(swarm.generate(921, 250))
    physics = ReferencePhysicsSim(config.world, config.tracks)
    sim = ReferenceNetSim(config.radio, dict(config.agent_address_map))
    down = nlos = 0
    for _ in range(400):
        for _ in range(3):
            physics.step(config.window_ns)
        cd = physics.channel_snapshot(config.fidelity)
        assert_link_table_matches_oracle(sim, cd)
        down += sum(sim.link_state(*pair).is_down for pair in cd.ids)
        nlos += cd.los.count(False)
    assert down > 0 and nlos > 0


def test_link_table_matches_the_oracle_on_edge_cases():
    # At 1 m (the reference distance) the SNR is 70 dB minus the wall loss,
    # exactly: 44, 47 and 65 dB of wall put it on the 26, 23 and 5 dB MCS
    # thresholds, 66 dB below the lowest.
    assert budget_link(DEFAULTS, 1.0, 47.0).snr == 23.0
    cases = [
        two_node_channel(0.25),
        two_node_channel(0.25, wall_loss=3.0),
        *(two_node_channel(1.0, wall_loss=w) for w in (44.0, 47.0, 65.0, 66.0, 64.5)),
        two_node_channel(1.0, wall_loss=0.0),
        channel(
            [(0, 0, 0), (100, 0, 0), (0, 30, 0)],
            [
                PathDetails((1, 0), False, (2, 1), (
                    (30.0, 0.0, 0.0, 8.0), (60.0, 0.0, 0.0, 5.0), (50.0, 0.0, 0.0, 99.0),
                )),
                PathDetails((0, 2), False, (0, 2), ((0.0, 5.0, 0.0, 7.0), (0.0, 9.0, 0.0, 1.0))),
                PathDetails((2, 1), False, (), ()),
            ],
        ),
    ]
    for params in (DEFAULTS, RadioParams(ber_at_threshold=0.0)):
        sim = new_sim(agents=3, params=params)
        for cd in cases:
            assert_link_table_matches_oracle(sim, cd)


def test_link_state_memo_lasts_until_the_next_channel():
    sim = new_sim()
    cd = two_node_channel(30.0)
    sim.apply_channel(cd)
    link = sim.link_state(0, 1)
    sim.apply_channel(cd)
    assert sim.link_state(0, 1) == link


def columns_of(cd):
    return (cd.poses, cd.ids, cd.los, cd.path_start, cd.num_hops, cd.hop_start, cd.hops)


def rebuilt(cd):
    """An equal snapshot with none of `cd`'s column tuples."""
    return ChannelData(*(tuple(list(column)) for column in columns_of(cd)))


def assert_table_as_fresh(sim, cd, agents):
    fresh = new_sim(agents=agents)
    fresh.apply_channel(cd)
    assert repr(sim.link_table) == repr(fresh.link_table)


THREE_PAIRS = channel(
    [(0, 0, 0), (10, 0, 0), (20, 0, 0)],
    [
        PathDetails((0, 1), True, (0,), ()),
        PathDetails((2, 0), False, (1,), ((10.0, 0.0, 0.0, 3.0),)),
        # int losses: the first path's wall loss is the int 5
        PathDetails((1, 2), False, (2, 1), ((15.0, 0.0, 0.0, 3), (16.0, 0.0, 0.0, 2), (9.0, 0.0, 0.0, 1.0))),
    ],
)


def test_an_equal_snapshot_keeps_the_rows_computed_for_the_last():
    sim = new_sim(agents=3)
    sim.apply_channel(THREE_PAIRS)
    table = dict(sim.link_table)
    sim.apply_channel(THREE_PAIRS)
    assert all(sim.link_table[pair] is row for pair, row in table.items())
    assert_table_as_fresh(sim, THREE_PAIRS, 3)
    again = rebuilt(THREE_PAIRS)
    sim.apply_channel(again)
    assert_table_as_fresh(sim, again, 3)


def changed_one_column(cd):
    """Snapshots that differ from `cd` in one column or one value each."""
    poses, ids, los, path_start, num_hops, hop_start, hops = columns_of(cd)
    loss_as_float = tuple((x, y, z, float(loss)) for x, y, z, loss in hops)
    return {
        "pose": (((0.0, 3.0, 0.0, *poses[0][3:]),) + poses[1:], ids, los, path_start, num_hops, hop_start, hops),
        "orientation": ((poses[0][:3] + (0.0, 0.0, 1.0, 0.0),) + poses[1:], ids, los, path_start, num_hops, hop_start, hops),
        "ids": (poses, ((1, 0),) + ids[1:], los, path_start, num_hops, hop_start, hops),
        "order": (poses, ids[1:] + ids[:1], los[1:] + los[:1], path_start, num_hops, hop_start, hops),
        "los": (poses, ids, (True, True, True), path_start, num_hops, hop_start, hops),
        "hop loss": (poses, ids, los, path_start, num_hops, hop_start, hops[:1] + ((15.0, 0.0, 0.0, 30),) + hops[2:]),
        "hop type": (poses, ids, los, path_start, num_hops, hop_start, loss_as_float),
        "num_hops": (poses, ids, los, path_start, (0, 1, 1, 2), hop_start, hops),
        "dropped pair": (poses, ids[:2], los[:2], path_start[:3], num_hops[:2], hop_start[:3], hops[:1]),
    }


@pytest.mark.parametrize("change", sorted(changed_one_column(THREE_PAIRS)))
def test_a_changed_snapshot_gets_rows_of_its_own(change):
    sim = new_sim(agents=3)
    sim.apply_channel(THREE_PAIRS)
    sim.link_table
    changed = ChannelData(*changed_one_column(THREE_PAIRS)[change])
    assert changed != THREE_PAIRS or change == "hop type"
    sim.apply_channel(changed)
    assert_table_as_fresh(sim, changed, 3)


@pytest.mark.parametrize("name", ["patrol", "static_los_30m", "swarm16"])
def test_repeated_world_snapshots_give_the_table_of_a_fresh_netsim(name):
    config, snapshots = world_snapshots(name)
    amap = {i: f"10.1.0.{i + 1}" for i in range(len(config.tracks))}
    sim = ReferenceNetSim(DEFAULTS, amap)
    for cd in snapshots[:20]:
        for again in (cd, cd, rebuilt(cd)):
            sim.apply_channel(again)
            fresh = ReferenceNetSim(DEFAULTS, amap)
            fresh.apply_channel(again)
            assert repr(sim.link_table) == repr(fresh.link_table)


def test_reversed_pair_carries_traffic():
    sim = new_sim()
    cd = channel([(0, 0, 0), (20, 0, 0)], [PathDetails((1, 0), True, (0,), ())])
    sim.apply_channel(cd)
    assert sim.link_state(0, 1).pair == (0, 1)
    end = sim.advance(0, W, packets([(0, 500, IP[1], IP[0])]))
    assert ids(end) == [0]


# -- event loop --------------------------------------------------------------


def test_single_packet_service_time():
    sim = new_sim(trace=True)
    # snr 6 dB: lowest MCS, 6.5 Mb/s
    sim.apply_channel(two_node_channel(1.0, wall_loss=64.0))
    rows = packets([(0, 1000, IP[0], IP[1])])
    end = sim.advance(0, W, rows)
    assert end == [(rows[0], pytest.approx(1e-2 * 10 ** (-1.0 / 3.0)))]
    assert end[0][0] is rows[0]  # the row handed in, handed back
    start_ev, end_ev = sim.events
    assert start_ev.kind is MediumEventKind.TX_START and start_ev.time == 0
    assert end_ev.kind is MediumEventKind.TX_END
    assert end_ev.time == 200_000 + round(8000e9 / 6.5e6)
    assert end_ev.time == 1_430_769


def test_empty_manifest_empty_clearances():
    sim = new_sim()
    sim.apply_channel(two_node_channel(10.0))
    assert sim.advance(0, W, []) == []
    assert sim.cleared_total == 0


def test_drop_tail_beyond_queue_capacity():
    sim = new_sim()
    sim.apply_channel(two_node_channel(10.0))
    entries = [(i, 100, IP[0], IP[1]) for i in range(200)]
    sim.advance(0, W, packets(entries))
    assert sim.dropped_total == 100
    assert sim.dropped_ids == list(range(100, 200))
    cleared = set()
    for k in range(1, 60):
        end = sim.advance(k * W, W, [])
        cleared.update(ids(end))
    assert sim.queued_count == 0
    assert cleared.union(range(100)) == set(range(100))


def test_zero_length_window_is_a_no_op():
    sim = new_sim(trace=True)
    sim.apply_channel(two_node_channel(10.0))
    end = sim.advance(0, 0, [])
    assert end == []
    assert sim.events == []
    end = sim.advance(0, W, packets([(0, 500, IP[0], IP[1])]))
    assert ids(end) == [0]


def test_link_down_packets_wait_for_channel():
    sim = new_sim()
    sim.apply_channel(two_node_channel(100.0, wall_loss=30.0))  # snr -8: down
    sim.advance(0, W, packets([(0, 400, IP[0], IP[1])]))
    for k in range(1, 5):
        end = sim.advance(k * W, W, [])
        assert end == []
    assert sim.queued_count == 1
    sim.apply_channel(two_node_channel(10.0))
    end = sim.advance(5 * W, W, [])
    assert ids(end) == [0]
    assert sim.queued_count == 0


def test_down_link_packet_does_not_block_live_one():
    sim = new_sim(agents=3)
    cd = channel(
        [(0, 0, 0), (10, 0, 0), (200, 200, 0)],
        [
            PathDetails((0, 1), True, (0,), ()),
            PathDetails((0, 2), False, (1,), ((100.0, 100.0, 0.0, 40.0),)),
            PathDetails((1, 2), False, (1,), ((100.0, 100.0, 0.0, 40.0),)),
        ],
    )
    sim.apply_channel(cd)
    end = sim.advance(
        0, W, packets([(0, 300, IP[0], IP[2]), (1, 300, IP[0], IP[1])])
    )
    assert ids(end) == [1]  # the live-link packet jumps the dead one
    assert sim.queued_count == 1


def test_clearance_schedule_matches_closed_form():
    rng = random.Random(21)
    for _ in range(20):
        sim = new_sim()
        sim.apply_channel(two_node_channel(1.0, wall_loss=64.0))  # 6.5 Mb/s
        lengths = [rng.randint(100, 1400) for _ in range(rng.randint(1, 5))]
        entries = [(i, n, IP[0], IP[1]) for i, n in enumerate(lengths)]
        cleared_in = {}
        for k in range(40):
            end = sim.advance(k * W, W, packets(entries if k == 0 else []))
            for pkt_id in ids(end):
                cleared_in[pkt_id] = k
        cum = 0
        for i, n in enumerate(lengths):
            cum += 200_000 + round(n * 8e9 / 6.5e6)
            assert cleared_in[i] == (cum - 1) // W, f"packet {i} of {lengths}"


def test_two_windows_equal_one_double_window():
    entries = [(i, 900, IP[0], IP[1]) for i in range(12)]
    sim_a = new_sim()
    sim_b = new_sim()
    for sim in (sim_a, sim_b):
        sim.apply_channel(two_node_channel(1.0, wall_loss=64.0))
    end_a1 = sim_a.advance(0, W, packets(entries))
    end_a2 = sim_a.advance(W, W, [])
    end_b = sim_b.advance(0, 2 * W, packets(entries))
    assert end_a1 + end_a2 == end_b  # the same rows and BERs, in order
    assert end_a1  # the split actually partitions
    assert end_a2
    # both simulators continue identically from t = 2W
    more = [(100 + i, 500, IP[1], IP[0]) for i in range(3)]
    assert sim_a.advance(2 * W, W, packets(more)) == sim_b.advance(
        2 * W, W, packets(more)
    )


def test_manifest_validation_errors():
    """The checks that need the simulator's clock: a negative window, and a
    window behind the time already simulated."""
    sim = new_sim()
    sim.apply_channel(two_node_channel(10.0))
    with pytest.raises(MalformedManifestError, match=">= 0"):
        sim.advance(0, -1, packets([(7, 100, IP[0], IP[1])]))
    sim.advance(0, W, packets([(7, 100, IP[0], IP[1])]))
    with pytest.raises(MalformedManifestError, match="overlaps"):
        sim.advance(0, W, [])
    assert sim.queued_count == 0 and sim.cleared_total == 1


@pytest.mark.parametrize("bad", ["not-an-ip", "10.0.0.256", "::1", "", 167772161, None])
def test_address_map_must_hold_ipv4_strings(bad):
    with pytest.raises(ValueError, match="IPv4"):
        ReferenceNetSim(DEFAULTS, {0: IP[0], 1: bad})


def test_packet_conservation_under_random_traffic():
    rng = random.Random(77)
    sim = new_sim(agents=3, trace=True)
    submitted = set()
    cleared = []
    next_id = 0
    for k in range(120):
        if rng.random() < 0.3:
            wall = rng.choice([0.0, 30.0])
            sim.apply_channel(two_node_channel(100.0, wall_loss=wall or None)
                              if wall else two_node_channel(50.0))
        entries = []
        for _ in range(rng.randint(0, 6)):
            src, dst = rng.sample([0, 1], 2)
            entries.append((next_id, rng.randint(50, 1200), IP[src], IP[dst]))
            submitted.add(next_id)
            next_id += 1
        end = sim.advance(k * W, W, packets(entries))
        cleared.extend(ids(end))
    assert len(cleared) == len(set(cleared)), "duplicate clearance"
    accounted = set(cleared) | set(sim.dropped_ids)
    assert accounted <= submitted
    assert len(accounted) + sim.queued_count == len(submitted)
    times = [e.time for e in sim.events]
    assert times == sorted(times)


def test_causality_and_determinism():
    def drive(sim):
        rng = random.Random(13)
        outputs = []
        next_id = 0
        submitted_window = {}
        for k in range(60):
            if k % 7 == 0:
                sim.apply_channel(two_node_channel(20.0 + (k % 3) * 40.0))
            entries = []
            for _ in range(rng.randint(0, 3)):
                entries.append((next_id, rng.randint(64, 1500), IP[0], IP[1]))
                submitted_window[next_id] = k
                next_id += 1
            end = sim.advance(k * W, W, packets(entries))
            for pkt_id in ids(end):
                assert k >= submitted_window[pkt_id]
            outputs.append(end)
        return outputs

    assert drive(new_sim()) == drive(new_sim())


class LinearScanNetSim(net_oracles.ObjectNetSim):
    """The scheduler before per-link FIFOs, kept as their oracle: one list
    in arrival order, scanned whole for the smallest (enqueued_at, pkt_id)
    whose link is up, and `list.remove` on service."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._queue = []

    def advance(self, window_start, window_ns, packets):
        window_end = window_start + window_ns
        for row in packets:
            pkt_id, length, src_ip, dst_ip, src_agent, dst_agent = row[:6]
            if self._depth.get(src_agent, 0) >= self.params.queue_capacity:
                self.dropped_total += 1
                self.dropped_ids.append(pkt_id)
                continue
            self._queue.append(
                net_oracles._Queued(
                    window_start, pkt_id, length, src_agent, dst_agent, src_ip, dst_ip, row
                )
            )
            self._depth[src_agent] = self._depth.get(src_agent, 0) + 1

        cleared = []
        while True:
            if self._inflight is not None:
                if self._inflight.tx_end <= window_end:
                    done = self._inflight
                    self._inflight = None
                    cleared.append(done)
                    self.cleared_total += 1
                    self._trace(done.tx_end, MediumEventKind.TX_END, done.entry)
                else:
                    break
            tx_start = max(self._busy_until, window_start)
            if tx_start >= window_end:
                break
            entry = self._next_eligible()
            if entry is None:
                break
            link = self.link_state(entry.src_agent, entry.dst_agent)
            service_ns = self.params.per_packet_overhead + int(
                round(entry.length * 8e9 / link.phy_rate)
            )
            self._queue.remove(entry)
            self._depth[entry.src_agent] -= 1
            self._trace(tx_start, MediumEventKind.TX_START, entry)
            self._inflight = net_oracles._InFlight(entry, link.ber, tx_start, tx_start + service_ns)
            self._busy_until = tx_start + service_ns
        self._clock = window_end
        return [(f.entry.row, f.ber) for f in cleared]

    @property
    def queued_count(self):
        return len(self._queue) + (1 if self._inflight else 0)

    def _next_eligible(self):
        best = None
        for entry in self._queue:
            link = self.link_state(entry.src_agent, entry.dst_agent)
            if link is None or link.is_down:
                continue
            key = (entry.enqueued_at, entry.pkt_id)
            if best is None or key < (best.enqueued_at, best.pkt_id):
                best = entry
        return best


def random_channel(rng, n):
    """Each pair up at a random range, down behind 60 dB of wall, or absent."""
    positions = [(10.0 * i, 0.0, 0.0) for i in range(n)]
    paths = []
    for i in range(n):
        for j in range(i + 1, n):
            fate = rng.random()
            if fate < 0.45:
                paths.append(PathDetails((i, j), True, (0,), ()))
            elif fate < 0.85:
                hop = (5.0 * (i + j), 0.0, 0.0, rng.choice((3.0, 60.0)))
                paths.append(PathDetails((i, j), False, (1,), (hop,)))
    return channel(positions, paths)


def test_link_fifos_match_the_linear_scan():
    ips = {i: f"10.0.1.{i + 1}" for i in range(4)}
    params = RadioParams(queue_capacity=6)
    for seed in range(12):
        rng = random.Random(seed)
        fifo = ReferenceNetSim(params, ips, trace_events=True)
        scan = LinearScanNetSim(params, ips, trace_events=True)
        next_id, t = 0, 0
        for _ in range(150):
            if rng.random() < 0.4:
                cd = random_channel(rng, len(ips))
                fifo.apply_channel(cd)
                scan.apply_channel(cd)
            entries = []
            for _ in range(rng.choice((0, 0, 1, 2, 4, 8))):
                src, dst = rng.sample(range(len(ips)), 2)
                entries.append((next_id, rng.randint(40, 1500), ips[src], ips[dst]))
                next_id += 1
            if rng.random() < 0.3:
                rng.shuffle(entries)  # ids out of order within the window
            window_ns = rng.choice((0, W // 10, W, 3 * W))
            rows = packets(entries, ips)
            assert fifo.advance(t, window_ns, rows) == scan.advance(t, window_ns, rows)
            assert fifo.queued_count == scan.queued_count
            t += window_ns
        assert fifo.dropped_ids == scan.dropped_ids
        assert fifo.events == scan.events
        assert fifo.cleared_total == scan.cleared_total > 0


def fated_channel(rng, n):
    """`n` agents 10 m apart on a line, each pair up (LOS or behind 3 dB of
    wall), down behind 60 dB of wall, or absent; and the pairs that are up."""
    positions = [(10.0 * i, 0.0, 0.0) for i in range(n)]
    paths, up = [], set()
    for i in range(n):
        for j in range(i + 1, n):
            fate = rng.random()
            if fate < 0.35:
                paths.append(PathDetails((i, j), True, (0,), ()))
            elif fate < 0.85:
                loss = 3.0 if fate < 0.6 else 60.0
                paths.append(PathDetails((i, j), False, (1,), ((5.0 * (i + j), 0.0, 0.0, loss),)))
            if fate < 0.6:
                up.add((i, j))
    return channel(positions, paths), up


def window_heads(scan, t, rows):
    """Each FIFO's first packet, (enqueue window, pkt_id), once `rows` are
    queued at window `t` on top of what `scan` holds, and how many of those
    rows took the front of a FIFO from a packet already there."""
    heads, depth = {}, dict(scan._depth)
    for entry in scan._queue:
        key = (entry.src_agent, entry.dst_agent)
        heads[key] = min(heads.get(key, (entry.enqueued_at, entry.pkt_id)),
                         (entry.enqueued_at, entry.pkt_id))
    displaced = 0
    for row in rows:
        src = row[4]
        if depth.get(src, 0) >= scan.params.queue_capacity:
            continue
        depth[src] = depth.get(src, 0) + 1
        key, head = (src, row[5]), (t, row[0])
        if key in heads:
            displaced += head < heads[key]
            head = min(head, heads[key])
        heads[key] = head
    return heads, displaced


def assert_one_entry_per_fifo(sim):
    """`sim`'s head heap holds each FIFO's first packet once, and nothing
    else: no stale entry piles up."""
    assert sorted(sim._heads) == sorted((fifo[0], key) for key, fifo in sim._fifos.items())


def test_head_heap_matches_the_linear_scan_on_many_links():
    """16 agents and 16 to 40 directed FIFOs, window by window: links that
    go down and come back, a down link holding the smallest head while
    others transmit, ids out of order that take a FIFO's front, and
    zero-length windows.  The heap holds one entry per FIFO after every
    window, and a drained simulator's heap is empty."""
    n = 16
    ips = {i: f"10.0.3.{i + 1}" for i in range(n)}
    params = RadioParams(queue_capacity=8)
    directed = [(a, b) for a in range(n) for b in range(n) if a != b]
    seen = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        heap = ReferenceNetSim(params, ips, trace_events=True)
        scan = LinearScanNetSim(params, ips, trace_events=True)
        keys = rng.sample(directed, rng.randint(16, 40))
        up, was_down = set(), set()
        next_id, t = 0, 0
        for _ in range(20):
            if rng.random() < 0.5:
                cd, up = fated_channel(rng, n)
                heap.apply_channel(cd)
                scan.apply_channel(cd)
            entries = []
            for _ in range(rng.randint(0, 16)):
                src, dst = rng.choice(keys)
                entries.append((next_id, rng.randint(40, 1500), ips[src], ips[dst]))
                next_id += 1
            if rng.random() < 0.3:
                rng.shuffle(entries)  # ids out of order within the window
            window_ns = rng.choice((0, W // 10, W, 3 * W))
            rows = packets(entries, ips)
            heads, displaced = window_heads(scan, t, rows)
            down = {key for key in heads if tuple(sorted(key)) not in up}
            events = len(heap.events)
            cleared = heap.advance(t, window_ns, rows)
            assert cleared == scan.advance(t, window_ns, rows)
            assert heap.events[events:] == scan.events[events:]
            assert heap.dropped_ids == scan.dropped_ids
            assert heap.queued_count == scan.queued_count
            assert_one_entry_per_fifo(heap)
            started = any(e.kind is MediumEventKind.TX_START for e in heap.events[events:])
            seen["displaced"] += displaced
            seen["zero-length"] += window_ns == 0
            seen["down holds the smallest head"] += bool(
                started and heads and min(heads, key=heads.get) in down
            )
            seen["down and back up"] += len(was_down & (set(heads) - down))
            was_down = (was_down | down) - (set(heads) - down)
            t += window_ns
        heap.apply_channel(channel(  # every pair up, to drain the queues
            [(10.0 * i, 0.0, 0.0) for i in range(n)],
            [PathDetails((i, j), True, (0,), ()) for i in range(n) for j in range(i + 1, n)],
        ))
        while heap.queued_count:
            heap.advance(t, 3 * W, [])
            t += 3 * W
        assert heap._heads == [] and heap._fifos == {}
        assert heap.cleared_total + len(heap.dropped_ids) == next_id
    assert min(seen.values()) > 50, seen


def test_head_heap_computes_no_link_the_fifo_scan_did_not(tmp_path, monkeypatch):
    """On swarm16 (seed 7, 250 windows: 16 directed FIFOs, hundreds of
    packets queued) the heap computes at most the link rows that a scan of
    every FIFO's head computes, 664 (`net_oracles.ObjectNetSim`)."""
    from benchmarks import swarm
    from cosimnet import scenario

    budget = netsim._link_budget
    computed = collections.Counter()

    def counting_budget(params):
        rows = budget(params)

        def count(*args):
            computed[scenario.ReferenceNetSim.__name__] += 1
            return rows(*args)

        return count

    monkeypatch.setattr(netsim, "_link_budget", counting_budget)
    config = scenario.parse_scenario(swarm.generate(7, 250))
    scenario.run_scenario(config, tmp_path / "heap")
    monkeypatch.setattr(scenario, "ReferenceNetSim", net_oracles.ObjectNetSim)
    scenario.run_scenario(config, tmp_path / "scan")
    assert computed["ObjectNetSim"] == 664
    assert 0 < computed["ReferenceNetSim"] <= computed["ObjectNetSim"]


# -- the link table, computed a row at a time -------------------------------


def eager_link_table(params, cd):
    """The link table as `apply_channel` built it before rows were computed
    on demand: one pass over every listed pair, kept as the oracle."""
    budget = netsim._link_budget(params)
    positions = [row[:3] for row in cd.poses]
    links = {}
    for pd in path_details(cd):
        i, j = pd.ids
        if pd.los:
            wall_loss = 0.0
        else:
            first_path_hops = pd.num_hops[0] if pd.num_hops else 0
            wall_loss = sum(h[3] for h in pd.hop_points[:first_path_hops])
        links[pd.ids if i < j else (j, i)] = budget(
            math.dist(positions[i], positions[j]), wall_loss
        )
    return links


def world_snapshots(name):
    """A world's config and physics snapshots spread over its run."""
    from benchmarks import swarm
    from cosimnet.physics import ChannelFidelity, ReferencePhysicsSim
    from cosimnet.scenario import load_scenario, parse_scenario
    from tests.test_lockstep_oracle import SCENARIOS, swarm_document

    if name == "disk":  # 40 m disks: NLOS pairs that report no paths
        config = parse_scenario(swarm_document())._replace(
            fidelity=ChannelFidelity.disk(40.0)
        )
        stride, count = 5, 40
    elif name == "swarm16":
        config = parse_scenario(swarm.generate(921, 250))
        stride, count = 3, 100
    else:  # patrol's whole minute, through its occlusion trough
        config = load_scenario(SCENARIOS / f"{name}.json")
        stride, count = config.duration_ns // config.window_ns // 60, 60
    physics = ReferencePhysicsSim(config.world, config.tracks)
    snapshots = []
    for _ in range(count):
        physics.step(stride * config.window_ns)
        snapshots.append(physics.channel_snapshot(config.fidelity))
    return config, snapshots


@pytest.mark.parametrize("name", ["disk", "patrol", "static_los_30m", "swarm16"])
def test_link_table_matches_the_eager_pass(name):
    config, snapshots = world_snapshots(name)
    sim = ReferenceNetSim(config.radio, dict(config.agent_address_map))
    wall_loss_types = set()
    for cd in snapshots:
        sim.apply_channel(cd)
        expected = eager_link_table(config.radio, cd)
        a, b = cd.ids[0]
        state = sim.link_state(b, a)  # computed before the table is read
        table = sim.link_table
        assert repr(table) == repr(expected)  # rows, their order and types
        assert repr(sim.link_state(a, b)) == repr(state)
        assert netsim._as_link_state((a, b), table[(a, b)]) == state
        wall_loss_types |= {(row[3] == 0, type(row[3])) for row in table.values()}
    if name == "disk":
        assert (True, int) in wall_loss_types  # an NLOS pair with no hops
    if name in ("patrol", "swarm16"):
        assert (False, float) in wall_loss_types


def test_rows_computed_before_the_table_is_read_are_kept():
    sim = new_sim(agents=3)
    cd = channel(
        [(0, 0, 0), (10, 0, 0), (20, 0, 0)],
        [
            PathDetails((0, 1), True, (0,), ()),
            PathDetails((2, 0), True, (0,), ()),
            PathDetails((1, 2), False, (1,), ((15.0, 0.0, 0.0, 3.0),)),
        ],
    )
    sim.apply_channel(cd)
    end = sim.advance(0, W, packets([(0, 500, IP[2], IP[0])]))
    assert ids(end) == [0]
    computed = dict(sim._links)
    assert list(computed) == [(0, 2)]  # advance asked for its one link only
    table = sim.link_table
    assert list(table) == [(0, 1), (0, 2), (1, 2)]
    assert table[(0, 2)] is computed[(0, 2)]
    assert sim.link_table[(1, 2)] is table[(1, 2)]


NAN = float("nan")
TWO_AGENTS = (Pose((0.0, 0.0, 0.0)), Pose((10.0, 0.0, 0.0)))
MALFORMED_CHANNELS = {
    "non-finite pose": (
        channel_data((TWO_AGENTS[0], Pose((NAN, 0.0, 0.0)))),
        "ChannelData.node_list[1].position: component nan not finite",
    ),
    "quaternion norm": (
        channel_data((Pose((0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 2.0)), TWO_AGENTS[1])),
        "ChannelData.node_list[0].orientation: quaternion norm 2.0 not within 1e-06 of 1",
    ),
    "duplicate pair": (
        channel_data(
            TWO_AGENTS,
            (PathDetails((0, 1), True, (0,), ()), PathDetails((1, 0), True, (0,), ())),
        ),
        "ChannelData.path_details[1].ids: duplicate entry for pair (0, 1)",
    ),
    "out-of-range id": (
        channel_data(TWO_AGENTS, (PathDetails((0, 2), True, (0,), ()),)),
        "ChannelData.path_details[0].ids: 2 does not index the node_list (size 2)",
    ),
    "hop count": (
        channel_data(TWO_AGENTS, (PathDetails((0, 1), False, (2,), ((5.0, 0.0, 0.0, 3.0),)),)),
        "ChannelData.path_details[0]: sum(num_hops)=2 does not match 1 hop points",
    ),
    "negative loss": (
        channel_data(TWO_AGENTS, (PathDetails((0, 1), False, (1,), ((5.0, 0.0, 0.0, -1.0),)),)),
        "ChannelData.path_details[0].hop_points[0]: penetration loss -1.0 negative",
    ),
    # no hop rows at all: the check's zero-hop shortcut
    "hop count, no hops": (
        channel_data(TWO_AGENTS, (PathDetails((0, 1), False, (2,), ()),)),
        "ChannelData.path_details[0]: sum(num_hops)=2 does not match 0 hop points",
    ),
    "negative count, no hops": (
        channel_data(TWO_AGENTS, (PathDetails((0, 1), False, (-1,), ()),)),
        "ChannelData.path_details[0].num_hops: negative count -1",
    ),
}


@pytest.mark.parametrize("built", ["records", "columns"])
@pytest.mark.parametrize("case", sorted(MALFORMED_CHANNELS))
def test_malformed_channel_is_named_by_field(case, built):
    """The check names the first bad field, by the message's field names,
    for a snapshot built from records and for one built from its columns."""
    cd, message = MALFORMED_CHANNELS[case]
    if built == "columns":
        cd = ChannelData(*columns_of(cd))
    with pytest.raises(wire.InvariantViolation) as raised:
        wire.validate_channel_data(cd)
    assert str(raised.value) == message
