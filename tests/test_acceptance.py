"""End-to-end acceptance suite: one test per release criterion, in order.

Each test carries its own oracle where the criterion demands independent
evidence (dense-sampling geometry, closed-form FIFO schedule, sent-frame
taps), so none of them lean on the code paths they are judging.  The
patrol runs dominate wall time; the three of them (baseline, same-seed
repeat, alternate seed) are shared through a session fixture.
"""

from __future__ import annotations

import random
import socket
import struct
import threading
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import cosimnet
from cosimnet import wire
from cosimnet import scenario as scenario_mod
from cosimnet.flows import FlowHost
from cosimnet.metrics import kde
from cosimnet.net_coord import apply_ber
from cosimnet.netsim import RadioParams, ReferenceNetSim
from cosimnet.physics import (
    AgentTrack,
    Box,
    ChannelFidelity,
    ReferencePhysicsSim,
    WorldModel,
)
from cosimnet.scenario import load_scenario, parse_scenario, run_scenario
from cosimnet.sync import DEFAULT_WINDOW_NS, Role, RunStats, SocketLink, run_lockstep
from cosimnet.wire import MsgType, NetworkUpdate, PhysicsUpdate
from tests import msggen
from tests.series_stats import mode_count
from tests.wire_oracles import PathDetails, Pose, channel_data, path_details

SCENARIO_DIR = Path(cosimnet.__file__).parent / "scenarios"

CSV_ARTIFACTS = ("rate.csv", "delay.csv", "rate_hist.csv", "delay_hist.csv", "scatter.csv")


# -- patrol analysis ---------------------------------------------------------
#
# The phenomenology verdicts are computed here, outside the package, from the
# run's raw timeline and delivery ledger.


def _classify_bins(result):
    """Per sample bin: every-pair-LOS, any-wall, and deep-occlusion flags."""
    period = result.config.metrics.sample_period_ns
    n = np.asarray(result.goodput_bps).size
    seen = np.zeros(n, dtype=bool)
    all_los = np.ones(n, dtype=bool)
    nlos_any = np.zeros(n, dtype=bool)
    deep_any = np.zeros(n, dtype=bool)
    timeline = result.timeline
    b = timeline.t // period
    keep = b < n
    b = b[keep]
    los = timeline.los[keep]
    walls = timeline.wall_count[keep]
    distance = timeline.distance[keep]
    seen[b] = True
    all_los[b[~los]] = False
    nlos_any[b[walls >= 1]] = True
    deep_any[b[(distance > 100.0) & (walls >= 2)]] = True
    return all_los & seen, nlos_any, deep_any


def _trough_runs(smoothed, threshold, nlos_any):
    """Maximal below-threshold runs that contain at least one occluded bin."""
    runs = []
    start = None
    for i, v in enumerate(smoothed):
        below = not np.isnan(v) and v < threshold
        if below and start is None:
            start = i
        elif not below and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(smoothed)))
    return [(a, b) for a, b in runs if nlos_any[a:b].any()]


def _patrol_phenomenology(result):
    los_bins, nlos_any, deep_any = _classify_bins(result)
    rate = np.asarray(result.goodput_bps)
    los_mean = float(rate[los_bins].mean())
    troughs = _trough_runs(result.goodput_smoothed, 0.5 * los_mean, nlos_any)
    deep_mean = float(rate[deep_any].mean())

    delay_smoothed = np.asarray(result.delay_smoothed)
    keep = ~np.isnan(delay_smoothed)
    rho = float(scipy.stats.spearmanr(rate[keep], delay_smoothed[keep]).statistic)

    delays = np.array(
        [d.delivered_at - d.first_sent_at for d in result.deliveries], dtype=float
    )
    # Shape is judged on the bulk: a handful of deliveries stalled through a
    # whole outage sit three decades out and would stretch the density grid
    # until the entire bulk aliased into one cell.  The ordering check below
    # keeps the untrimmed tail in evidence.
    bulk = delays[delays <= np.percentile(delays, 99.5)]
    grid, density = kde(bulk)
    return {
        "los_mean": los_mean,
        "troughs": troughs,
        "deep_bins": int(deep_any.sum()),
        "deep_mean": deep_mean,
        "rho": rho,
        "modes": mode_count(density),
        "mode": float(grid[int(np.argmax(density))]),
        "mean": float(delays.mean()),
        "p95": float(np.percentile(delays, 95)),
    }


def _assert_patrol_verdicts(report):
    assert len(report["troughs"]) >= 2, report
    assert report["deep_bins"] > 0, report
    assert report["deep_mean"] < 0.05 * report["los_mean"], report
    assert report["rho"] < -0.3, report
    assert report["modes"] == 1, report
    assert report["mode"] < report["mean"] < report["p95"], report


@pytest.fixture(scope="session")
def patrol_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("patrol")
    config = load_scenario(SCENARIO_DIR / "patrol.json")
    t0 = time.perf_counter()
    first = run_scenario(config, out / "first", timeline=True)
    first_wall = time.perf_counter() - t0
    repeat = run_scenario(config, out / "repeat")
    alt = run_scenario(
        load_scenario(SCENARIO_DIR / "patrol.json", seed=8), out / "alt", timeline=True
    )
    return {"first": first, "first_wall": first_wall, "repeat": repeat, "alt": alt}


# -- 1: lockstep soundness under jitter --------------------------------------


class _JitteryDriver:
    """END producer that sleeps up to 2 ms on a random fifth of windows.

    Sleeping on every window would put ~13 s of expected sleep on the
    critical path for 10,000 windows; a random subset exercises the same
    ahead/behind interleavings inside the runtime bound.
    """

    def __init__(self, msg_cls, seed):
        self._msg_cls = msg_cls
        self._rng = random.Random(seed)
        self.times = []

    def simulate(self, t, peer_end):
        self.times.append(t)
        if self._rng.random() < 0.2:
            time.sleep(self._rng.uniform(0.0, 0.002))
        return self._msg_cls(MsgType.END, t)


def test_01_lockstep_soundness_under_jitter():
    windows = 10_000
    window_ns = DEFAULT_WINDOW_NS
    sock_a, sock_b = socket.socketpair()
    link_a, link_b = SocketLink(sock_a, timeout=30), SocketLink(sock_b, timeout=30)
    phys_driver, phys_stats = _JitteryDriver(PhysicsUpdate, seed=51), RunStats()
    net_driver, net_stats = _JitteryDriver(NetworkUpdate, seed=52), RunStats()
    failures = []

    def drive(role, link, driver, stats):
        try:
            run_lockstep(role, link, window_ns, windows * window_ns, driver.simulate, stats)
        except Exception as exc:  # desync/protocol/transport all count
            failures.append(exc)

    t0 = time.perf_counter()
    thread = threading.Thread(
        target=drive, args=(Role.PHYSICS_SIDE, link_a, phys_driver, phys_stats)
    )
    thread.start()
    drive(Role.NETWORK_SIDE, link_b, net_driver, net_stats)
    thread.join(timeout=60)
    elapsed = time.perf_counter() - t0

    assert failures == []
    assert not thread.is_alive()
    assert phys_driver.times == net_driver.times == [k * window_ns for k in range(windows)]
    assert phys_stats.windows_completed == net_stats.windows_completed == windows
    assert link_a.sent_frames == 2 * windows + 1
    assert link_b.sent_frames == 2 * windows + 1
    assert elapsed < 10.0


# -- 2: wire round-trip and malformed-frame rejection -------------------------


def test_02_wire_roundtrip_and_malformed_frames():
    rng = random.Random(0xACCE9)
    node_counts = []
    for _ in range(1000):
        msg = msggen.random_message(rng, max_agents=16)
        frame = wire.encode_frame(msg)
        decoded, rest = wire.decode_frame(frame)
        assert rest == b""
        assert decoded == msg
        assert wire.encode_frame(decoded) == frame
        if isinstance(msg, PhysicsUpdate) and msg.channel_data:
            cd = wire.decode_channel_data(
                wire.decompress_channel_blob(msg.channel_data)
            )
            node_counts.append(len(cd.poses))
    # the corpus really does reach the compressed 16-agent case
    assert max(node_counts) == 16

    base = wire.encode_frame(PhysicsUpdate(MsgType.BEGIN, 7))

    with pytest.raises(wire.FrameError, match="magic"):
        wire.decode_frame(b"RNS2" + base[4:])
    with pytest.raises(wire.FrameError, match="magic"):
        wire.decode_frame(b"XY")

    tagged = bytearray(base)
    tagged[4] = 0x7F
    with pytest.raises(wire.FrameError, match="tag"):
        wire.decode_frame(bytes(tagged))

    over_cap = b"RNS1" + b"\x00" + struct.pack("<I", wire.MAX_FRAME_PAYLOAD + 1)
    with pytest.raises(wire.FrameError, match="cap"):
        wire.decode_frame(over_cap)

    marker = wire.encode_frame(NetworkUpdate(MsgType.BEGIN, 0))
    assert len(marker) == 18
    cut = marker[9:-6]  # truncated payload, declared length fixed up to match
    with pytest.raises(wire.FrameError, match="time_val"):
        wire.decode_frame(b"RNS1" + b"\x01" + struct.pack("<I", len(cut)) + cut)

    # the encoder writes a malformed snapshot as it is; its decoder names the fault
    unnormalized = channel_data((Pose((0, 0, 0), (2, 0, 0, 0)),))
    with pytest.raises(wire.InvariantViolation, match="orientation"):
        wire.decode_channel_data(wire.encode_channel_data(unnormalized))
    two = (Pose((0, 0, 0)), Pose((1, 0, 0)))
    self_pair = channel_data(two, (PathDetails((0, 0), True, (0,), ()),))
    with pytest.raises(wire.InvariantViolation, match="distinct"):
        wire.decode_channel_data(wire.encode_channel_data(self_pair))
    # a hop count the hop rows do not match cannot be written: the check says so
    short = channel_data(two, (PathDetails((0, 1), False, (2,), ((0.5, 0.0, 0.0, 3.0),)),))
    with pytest.raises(wire.InvariantViolation, match="hop points"):
        wire.validate_channel_data(short)
    # the largest time a frame carries, the last BEGIN's, is checked once,
    # where the scenario is parsed
    with pytest.raises(scenario_mod.ConfigError, match="64-bit") as err:
        load_scenario(SCENARIO_DIR / "static_los_30m.json", duration_ns=2**64 * 10**9)
    assert err.value.path == "duration_ns"

    cd = channel_data(two, (PathDetails((0, 1), True, (0,), ()),))
    enc = bytearray(wire.encode_channel_data(cd))
    enc[4 + 112 + 4 + 8] = 2  # the los byte of the only path entry
    with pytest.raises(wire.FrameError, match="los"):
        wire.decode_channel_data(bytes(enc))

    with pytest.raises(wire.CompressionError):
        wire.decompress_channel_blob(b"\xff\xff\xff\xff")


# -- 3: geometry against the dense-sampling oracle ----------------------------


def _sampled_nlos(positions, pairs, boxes, samples=10_000):
    """LOS verdict per pair by brute force: walk `samples` points along each
    segment and flag the pair when any point lands strictly inside a box."""
    if not boxes or not pairs:
        return np.zeros(len(pairs), dtype=bool)
    p = np.asarray(positions)
    a = p[[i for i, _ in pairs]]
    b = p[[j for _, j in pairs]]
    t = np.linspace(0.0, 1.0, samples)
    pts = a[:, None, :] + t[None, :, None] * (b - a)[:, None, :]
    mins = np.array([bx.min_corner for bx in boxes])
    maxs = np.array([bx.max_corner for bx in boxes])
    inside = np.logical_and(
        (pts[:, :, None, :] > mins).all(axis=3),
        (pts[:, :, None, :] < maxs).all(axis=3),
    )
    return inside.any(axis=(1, 2))


def test_03_los_verdicts_match_sampling_oracle():
    rng = random.Random(0x10A7)
    bounds = Box((-500.0, -500.0, -500.0), (500.0, 500.0, 500.0))
    fid = ChannelFidelity.los_nlos()
    pairs_checked = 0
    for trial in range(1000):
        boxes = []
        for _ in range(rng.randint(0, 10)):
            lo = tuple(rng.uniform(-180, 150) for _ in range(3))
            size = tuple(rng.uniform(2, 30) for _ in range(3))
            boxes.append(
                Box(lo, tuple(a + s for a, s in zip(lo, size)), rng.uniform(0, 20))
            )
        world = WorldModel(bounds, tuple(boxes))
        # parked agents: one waypoint each, at the sampled position
        tracks = [
            AgentTrack(i, (tuple(rng.uniform(-200, 200) for _ in range(3)),), speed=1.0)
            for i in range(rng.randint(2, 8))
        ]
        data = ReferencePhysicsSim(world, tracks).channel_snapshot(fid)

        # the verdicts under test are the ones actually emitted on the wire
        frame = wire.encode_frame(
            PhysicsUpdate(
                MsgType.END, 0,
                wire.compress_channel_blob(wire.encode_channel_data(data)),
            )
        )
        emitted, rest = wire.decode_frame(frame)
        assert rest == b""
        sent = wire.decode_channel_data(
            wire.decompress_channel_blob(emitted.channel_data)
        )

        positions = [row[:3] for row in sent.poses]
        blocked = _sampled_nlos(positions, sent.ids, boxes)
        for pd, oracle_nlos in zip(path_details(sent), blocked):
            assert pd.los == (not oracle_nlos), f"trial {trial} pair {pd.ids}"
            assert sum(pd.num_hops) == len(pd.hop_points), f"trial {trial} {pd.ids}"
            pairs_checked += 1
    assert pairs_checked > 5000


# -- 4: radio attenuation monotonicity ----------------------------------------


def _wall_sweep_doc(wall_count):
    obstacles = [
        {
            "min": [18.0 + 6 * i, 5.0, 0.0],
            "max": [19.0 + 6 * i, 35.0, 10.0],
            "loss_db": 10.0,
        }
        for i in range(wall_count)
    ]
    return {
        "world": {
            "bounds": {"min": [0, 0, 0], "max": [100, 40, 20]},
            "obstacles": obstacles,
        },
        "agents": [
            {"id": 0, "address": "10.0.0.1", "waypoints": [[10, 20, 2]]},
            {"id": 1, "address": "10.0.0.2", "waypoints": [[60, 20, 2]]},
        ],
        "flows": [
            {
                "src": "10.0.0.1",
                "dst": "10.0.0.2",
                "payload_size": 100,
                "arq_window": 8,
                "retransmit_timeout_ns": 12_000_000,
            }
        ],
        "window_ns": 1_000_000,
        "duration_ns": 5_000_000_000,
        "seed": 42,
    }


def test_04_radio_attenuation_monotonicity(tmp_path):
    sim = ReferenceNetSim(RadioParams(), {0: "10.0.0.1", 1: "10.0.0.2"})
    states = []
    for k in range(5):
        hop = ((25.0, 0.0, 0.0, 10.0 * k),)
        sim.apply_channel(
            channel_data(
                (Pose((0, 0, 0)), Pose((50.0, 0, 0))), (PathDetails((0, 1), False, (1,), hop),)
            )
        )
        states.append(sim.link_state(0, 1))
    snrs = [s.snr for s in states]
    rates = [s.phy_rate if s.phy_rate is not None else 0.0 for s in states]
    bers = [s.ber for s in states]
    assert all(a >= b for a, b in zip(snrs, snrs[1:]))
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert all(a <= b for a, b in zip(bers, bers[1:]))
    assert states[3].is_down and states[4].is_down

    goodputs = []
    delays = []
    for walls in range(5):
        config = parse_scenario(_wall_sweep_doc(walls))
        result = run_scenario(config, tmp_path / f"walls{walls}")
        flow = result.flow_stats[0]
        goodputs.append(flow["delivered_bits"] * 1e9 / config.duration_ns)
        per_delivery = [d.delivered_at - d.first_sent_at for d in result.deliveries]
        delays.append(
            sum(per_delivery) / len(per_delivery) if per_delivery else float("inf")
        )
    assert all(a >= b for a, b in zip(goodputs, goodputs[1:])), goodputs
    assert all(a <= b for a, b in zip(delays, delays[1:])), delays
    assert goodputs[0] > 0 and goodputs[3] == goodputs[4] == 0.0


# -- 5: single-link FIFO schedule against the closed form ----------------------


def test_05_fifo_clearances_match_closed_form():
    addresses = {0: "10.0.0.1", 1: "10.0.0.2"}
    sim = ReferenceNetSim(RadioParams(), addresses, trace_events=True)
    # 450 m open air puts the default radio on its lowest rung: 6.5 Mb/s
    sim.apply_channel(
        channel_data(
            (Pose((0.0, 0.0, 0.0)), Pose((450.0, 0.0, 0.0))),
            (PathDetails((0, 1), True, (0,), ()),),
        )
    )
    link = sim.link_state(0, 1)
    assert link.phy_rate == 6.5e6

    lengths = (130, 1300, 260, 3900, 650)  # bytes; all divide evenly at 6.5 Mb/s

    def service_ns(length):
        bits_scaled = length * 8 * 10**9
        assert bits_scaled % 6_500_000 == 0
        return 200_000 + bits_scaled // 6_500_000

    expected_clear = []
    clock = 0
    for length in lengths:
        clock += service_ns(length)
        expected_clear.append(clock)

    window_ns = 1_000_000
    # the coordinator's rows: (pkt_id, length, src, dst, src agent, dst
    # agent, captured_at, payload)
    manifest = [
        (pkt_id, length, "10.0.0.1", "10.0.0.2", 0, 1, 0, bytes(length))
        for pkt_id, length in enumerate(lengths)
    ]
    cleared_in_window = {}
    cleared_bers = []
    for w in range(10):
        t = w * window_ns
        cleared = sim.advance(t, window_ns, manifest if w == 0 else [])
        for row, ber in cleared:
            cleared_in_window[row[0]] = t
            cleared_bers.append(ber)

    tx_ends = {
        e.pkt_id: e.time for e in sim.events if e.kind.name == "TX_END"
    }
    assert [tx_ends[i] for i in range(5)] == expected_clear
    for pkt_id, clear_t in enumerate(expected_clear):
        window_start = cleared_in_window[pkt_id]
        assert window_start < clear_t <= window_start + window_ns
    assert cleared_bers == [link.ber] * 5
    assert sim.cleared_total == 5 and sim.dropped_total == 0


# -- 6: bit-error application --------------------------------------------------


class _TapEndpoint:
    def __init__(self, inner, sent, received):
        self._inner = inner
        self._sent = sent
        self._received = received

    def send(self, dst, payload):
        self._sent.add(bytes(payload))
        self._inner.send(dst, payload)

    def receive(self):
        raw = self._inner.receive()
        if raw is not None:
            self._received.append(bytes(raw))
        return raw


def test_06_ber_application(tmp_path, monkeypatch):
    # exact zero end to end: every frame that arrives is one that was sent
    sent: set[bytes] = set()
    received: list[bytes] = []

    class TapHost(FlowHost):
        def _endpoint(self, address):
            if address not in self._endpoints:
                inner = self._backend.endpoint(address)
                self._endpoints[address] = _TapEndpoint(inner, sent, received)
            return self._endpoints[address]

    monkeypatch.setattr(scenario_mod, "FlowHost", TapHost)
    doc = {
        "world": {"bounds": {"min": [0, 0, 0], "max": [90, 60, 10]}, "obstacles": []},
        "agents": [
            {"id": 0, "address": "10.0.0.1", "waypoints": [[30, 30, 2]]},
            {"id": 1, "address": "10.0.0.2", "waypoints": [[60, 30, 2]]},
        ],
        "flows": [
            {"src": "10.0.0.1", "dst": "10.0.0.2", "payload_size": 1000,
             "arq_window": 16, "retransmit_timeout_ns": 15_000_000}
        ],
        "radio": {"ber_at_threshold": 0.0},
        "window_ns": 1_000_000,
        "duration_ns": 2_000_000_000,
        "seed": 5,
    }
    result = run_scenario(parse_scenario(doc), tmp_path / "zero_ber")
    assert len(result.deliveries) > 100
    assert result.netsim_stats["corrupt_received"] == 0
    assert received
    assert all(frame in sent for frame in received)
    assert all(rec.ber == 0.0 for rec in result.net_summary.ledger)

    # half: a fixed seed flips 50% +/- 2% of a >=1 Mbit payload
    payload = np.random.default_rng(2024).integers(
        0, 256, size=200_000, dtype=np.uint8
    ).tobytes()
    garbled = apply_ber(payload, 0.5, np.random.default_rng(7))
    diff = np.frombuffer(payload, np.uint8) ^ np.frombuffer(garbled, np.uint8)
    flipped = int(np.unpackbits(diff).sum())
    assert abs(flipped / (len(payload) * 8) - 0.5) <= 0.02

    # one: exact bitwise complement
    complemented = apply_ber(payload, 1.0, np.random.default_rng(9))
    assert complemented == np.bitwise_not(np.frombuffer(payload, np.uint8)).tobytes()


# -- 7: patrol phenomenology ----------------------------------------------------


def test_07_patrol_phenomenology(patrol_runs):
    result = patrol_runs["first"]
    assert result.config.duration_ns <= 60 * 10**9
    assert patrol_runs["first_wall"] < 120.0
    report = _patrol_phenomenology(result)
    _assert_patrol_verdicts(report)


# -- 8: static LOS calibration band ----------------------------------------------


def test_08_static_los_calibration_band(tmp_path):
    config = load_scenario(SCENARIO_DIR / "static_los_30m.json")
    result = run_scenario(config, tmp_path / "calibration")
    steady = np.asarray(result.goodput_bps)[np.asarray(result.sample_times_ns) >= 2_000_000_000]
    mean_bps = float(steady.mean())
    assert 4e6 <= mean_bps <= 16e6, mean_bps


# -- 9: determinism and seed sensitivity ------------------------------------------


def test_09_determinism_and_seed_sensitivity(patrol_runs):
    first, repeat, alt = (
        patrol_runs["first"],
        patrol_runs["repeat"],
        patrol_runs["alt"],
    )
    for name in CSV_ARTIFACTS:
        assert first.artifacts[name].read_bytes() == repeat.artifacts[name].read_bytes(), name

    # a different seed realizes a different corruption history...
    assert (
        first.netsim_stats["corrupt_received"] != alt.netsim_stats["corrupt_received"]
        or first.flow_stats[0]["retransmit_total"] != alt.flow_stats[0]["retransmit_total"]
    )
    assert first.artifacts["rate.csv"].read_bytes() != alt.artifacts["rate.csv"].read_bytes()

    # ...while the qualitative patrol verdicts stay put
    _assert_patrol_verdicts(_patrol_phenomenology(alt))
