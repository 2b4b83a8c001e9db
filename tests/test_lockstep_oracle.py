"""`run_scenario`'s single loop against the two-peer composition it replaced.

The oracle runs `run_physics_coordinator` and `run_network_coordinator` on
two threads joined by `SocketLink`s over a socket pair, where every END goes
through the frame codec and its validation.  It must give what the
in-process loop gives for the same config and seed: the ledger, the run
counters, per-flow stats, the netsim totals and the channel timeline.  A
fault on either side of the split must end the other side too.
"""

from __future__ import annotations

import collections
import random
import socket
import struct
import threading
import time
from pathlib import Path

import pytest

from cosimnet import scenario, wire
from cosimnet.flows import FlowHost
from cosimnet.net_coord import InProcessBackend, NetCoordConfig, run_network_coordinator
from cosimnet.netsim import ReferenceNetSim
from cosimnet.phys_coord import PhysCoordConfig, run_physics_coordinator
from cosimnet.physics import VECTOR_MIN_TESTS, ReferencePhysicsSim
from cosimnet.scenario import load_scenario, parse_scenario, run_scenario
from cosimnet.sync import SocketLink, TransportError

SCENARIOS = Path(scenario.__file__).parent / "scenarios"
W = 1_000_000
LINK_TIMEOUT_S = 30.0


def socket_link_pair() -> tuple[SocketLink, SocketLink]:
    a, b = socket.socketpair()
    return SocketLink(a, LINK_TIMEOUT_S), SocketLink(b, LINK_TIMEOUT_S)


def swarm_document(agents=6, boxes=8, windows=200, seed=5) -> dict:
    """Agents crossing a field of boxes; agent 1 follows agent 0 5 m to
    its side, and one flow runs between the two."""
    rng = random.Random(seed)
    size = (120.0, 120.0, 20.0)

    def point(z):
        return [round(rng.uniform(5.0, size[0] - 5.0), 3),
                round(rng.uniform(5.0, size[1] - 5.0), 3), z]

    obstacles = []
    for _ in range(boxes):
        lo = point(0.0)
        obstacles.append({
            "min": lo,
            "max": [min(lo[0] + rng.uniform(3.0, 15.0), size[0]),
                    min(lo[1] + rng.uniform(3.0, 15.0), size[1]),
                    rng.uniform(5.0, 15.0)],
            "loss_db": round(rng.uniform(5.0, 25.0), 2),
        })
    members = []
    for i in range(agents):
        if i == 1:
            leader = members[0]
            waypoints = [[x, y + 5.0, z] for x, y, z in leader["waypoints"]]
            speed = leader["speed"]
        else:
            waypoints = [point(2.0), point(2.0)]
            speed = round(rng.uniform(5.0, 40.0), 2)
        members.append({
            "id": i, "address": f"10.0.0.{i + 1}",
            "waypoints": waypoints, "speed": speed, "loop": True,
        })
    return {
        "world": {"bounds": {"min": [0, 0, 0], "max": list(size)},
                  "obstacles": obstacles},
        "agents": members,
        "flows": [{"src": "10.0.0.1", "dst": "10.0.0.2", "payload_size": 400,
                   "retransmit_timeout_ns": 20 * W}],
        "window_ns": W,
        "duration_ns": windows * W,
        "seed": seed,
    }


def facts(result) -> dict:
    net = result.net_summary
    phys = result.phys_summary
    return {
        "counters": {
            name: getattr(net, name)
            for name in (
                "windows_completed", "captured_total", "released_total",
                "released_bytes", "expired_total", "rejected_total",
                "late_cleared_total", "held_at_end", "pending_at_end",
            )
        },
        "physics": (phys.windows_completed, phys.extractions),
        "ledger": net.ledger,
        "flows": result.flow_stats,
        "deliveries": result.deliveries,
        "netsim": result.netsim_stats,
        # repr tells -0.0 from 0.0
        "timeline": [repr(sample) for sample in result.timeline],
    }


def two_peer_run(config, phys_link, net_link, out):
    """Both coordinators on two threads over the given links, reduced the
    way `run_scenario` reduces its own run."""
    sim = ReferencePhysicsSim(config.world, config.tracks)
    phys_cfg = PhysCoordConfig(
        config.window_ns, config.fidelity, agent_address_map=config.agent_address_map
    )
    net_cfg = NetCoordConfig(config.window_ns, config.agent_address_map, seed=config.seed)
    netsim = ReferenceNetSim(config.radio, dict(config.agent_address_map))
    backend = InProcessBackend(net_cfg.addresses)
    host = FlowHost(backend)
    for flow_cfg in config.flows:
        host.add_flow(flow_cfg)
    timeline = scenario._TimelineRecorder(netsim)
    box = {}

    def physics_side():
        try:
            box["summary"] = run_physics_coordinator(
                phys_cfg, phys_link, config.duration_ns, sim
            )
        except Exception as exc:  # surfaced by the assertion below
            box["error"] = exc

    thread = threading.Thread(target=physics_side)
    thread.start()
    try:
        net_summary = run_network_coordinator(
            net_cfg, net_link, netsim, backend, config.duration_ns,
            app_tick=host.tick, on_channel=timeline,
        )
    finally:
        thread.join(timeout=LINK_TIMEOUT_S)
    assert not thread.is_alive() and "error" not in box, box.get("error")
    return scenario._collect(
        config, out, host, timeline, net_summary, box["summary"], netsim
    )


CORPUS = {
    "static": lambda: load_scenario(
        SCENARIOS / "static_los_30m.json", duration_ns=400 * W
    ),
    "patrol": lambda: load_scenario(SCENARIOS / "patrol.json", duration_ns=3000 * W),
    "swarm6": lambda: parse_scenario(swarm_document()),
}
# the corpus plus a world above `VECTOR_MIN_TESTS` (15 pairs x 16 boxes),
# whose timeline and split physics side run the vector kernel
SPLIT_WORLDS = {**CORPUS, "swarm6_16": lambda: parse_scenario(swarm_document(boxes=16))}


@pytest.mark.parametrize("name", sorted(SPLIT_WORLDS))
def test_single_loop_matches_the_two_peer_runs(tmp_path, monkeypatch, name):
    config = SPLIT_WORLDS[name]()
    n = config.duration_ns // config.window_ns
    agents = len(config.tracks)
    pair_box_tests = agents * (agents - 1) // 2 * len(config.world.obstacles)
    assert (pair_box_tests >= VECTOR_MIN_TESTS) == (name == "swarm6_16")

    expected = facts(run_scenario(config, tmp_path / "loop", timeline=True))
    assert expected["ledger"], "the corpus run delivers nothing"
    assert expected["counters"]["windows_completed"] == n
    assert len(expected["timeline"]) == (n - 1) * agents * (agents - 1) // 2

    sizes = collections.Counter()  # (message class, frame bytes) -> frames
    encode = wire.encode_frame

    def sized_encode(msg):
        frame = encode(msg)
        sizes[type(msg).__name__, len(frame)] += 1
        return frame

    monkeypatch.setattr(wire, "encode_frame", sized_encode)
    phys_link, net_link = socket_link_pair()
    got = facts(two_peer_run(config, phys_link, net_link, tmp_path))
    monkeypatch.undo()
    assert (phys_link.sent_frames, net_link.sent_frames) == (2 * n + 1, 2 * n + 1)
    # every network-side frame is a bare 18-byte marker
    assert {size for cls, size in sizes if cls == "NetworkUpdate"} == {18}
    assert sizes["NetworkUpdate", 18] == 2 * n + 1
    for key in expected:
        assert got[key] == expected[key], key


def test_an_old_format_network_frame_is_refused():
    """A network peer that still sends the earlier frame, a marker followed
    by eight counted packet lists (all empty here), is refused at its first
    frame: the list counts are trailing bytes, and the physics side ends
    with a partial summary."""
    config = CORPUS["static"]()
    phys_sock, net_sock = socket.socketpair()
    net_sock.sendall(b"RNS1\x01" + struct.pack("<IBQ", 41, 0, 0) + bytes(32))
    net_sock.shutdown(socket.SHUT_WR)
    sim = ReferencePhysicsSim(config.world, config.tracks)
    with pytest.raises(wire.FrameError) as raised:
        run_physics_coordinator(
            PhysCoordConfig(config.window_ns, config.fidelity),
            SocketLink(phys_sock, LINK_TIMEOUT_S), config.duration_ns, sim,
        )
    assert str(raised.value) == "NetworkUpdate: 32 trailing bytes in payload"
    assert raised.value.partial_summary.windows_completed == 0
    net_sock.close()


def test_socket_split_decodes_each_channel_blob_once(tmp_path, monkeypatch):
    """The physics side validates and decodes nothing.  The network side
    decodes each END it applies once, in `channel_of`, and validates it
    there, its one check; the last END, which no window applies, stays
    unread."""
    config = CORPUS["static"]()
    n = config.duration_ns // config.window_ns
    expected = facts(run_scenario(config, tmp_path / "loop", timeline=True))

    calls = collections.Counter()
    network_thread = threading.get_ident()

    def counted(name, fn):
        def call(*args):
            side = "network" if threading.get_ident() == network_thread else "physics"
            calls[side, name] += 1
            return fn(*args)
        return call

    for name in ("decode_channel_data", "validate_channel_data"):
        monkeypatch.setattr(wire, name, counted(name, getattr(wire, name)))
    phys_link, net_link = socket_link_pair()
    got = facts(two_peer_run(config, phys_link, net_link, tmp_path))
    monkeypatch.undo()

    assert {
        (side, name): calls[side, name]
        for side in ("physics", "network")
        for name in ("decode_channel_data", "validate_channel_data")
    } == {
        ("physics", "decode_channel_data"): 0,
        ("physics", "validate_channel_data"): 0,
        ("network", "decode_channel_data"): n - 1,
        ("network", "validate_channel_data"): n - 1,
    }
    assert (phys_link.sent_frames, net_link.sent_frames) == (2 * n + 1, 2 * n + 1)
    assert got == expected


def test_kernel_snapshots_are_scanned_only_after_decoding(tmp_path, monkeypatch):
    """In process nothing scans a column of the physics kernels' snapshots;
    over the socket pair only the network side does, once per applied
    blob."""
    calls = collections.Counter()
    network_thread = threading.get_ident()
    check = wire._columns_pass

    def counted(cd):
        side = "network" if threading.get_ident() == network_thread else "physics"
        calls[side] += 1
        return check(cd)

    monkeypatch.setattr(wire, "_columns_pass", counted)
    for name in ("swarm6", "patrol"):
        run_scenario(CORPUS[name](), tmp_path / name)
    assert calls == {}

    config = CORPUS["static"]()
    n = config.duration_ns // config.window_ns
    two_peer_run(config, *socket_link_pair(), tmp_path)
    assert calls == {"network": n - 1}


def assert_counters_balance(summary):
    assert summary.captured_total == (
        summary.released_total + summary.expired_total
        + summary.held_at_end + summary.pending_at_end
    )
    assert summary.released_total > 0


def test_physics_peer_close_ends_the_network_side():
    """The physics side's socket closes at window 50 of 400 over a socket
    pair; the network side must fail fast with a partial summary."""
    config = CORPUS["static"]()
    n = config.duration_ns // config.window_ns
    phys_sock, net_sock = socket.socketpair()
    phys_link, net_link = SocketLink(phys_sock, LINK_TIMEOUT_S), SocketLink(net_sock, LINK_TIMEOUT_S)

    class ClosingSim(ReferencePhysicsSim):
        snapshots = 0

        def channel_snapshot(self, fidelity):
            self.snapshots += 1
            return super().channel_snapshot(fidelity)

        def step(self, dt_ns):
            if self.snapshots == 50:
                # die mid-window, once the network side has sent its END
                # and waits for this side's
                time.sleep(0.2)
                phys_sock.close()
            super().step(dt_ns)

    sim = ClosingSim(config.world, config.tracks)
    phys_cfg = PhysCoordConfig(config.window_ns, config.fidelity)
    net_cfg = NetCoordConfig(config.window_ns, config.agent_address_map, seed=config.seed)
    backend = InProcessBackend(net_cfg.addresses)
    host = FlowHost(backend)
    for flow_cfg in config.flows:
        host.add_flow(flow_cfg)
    outcome = {}

    def physics_side():
        try:
            run_physics_coordinator(phys_cfg, phys_link, config.duration_ns, sim)
        except Exception as exc:
            outcome["physics"] = exc

    def network_side():
        try:
            run_network_coordinator(
                net_cfg, net_link, ReferenceNetSim(config.radio, dict(config.agent_address_map)),
                backend, config.duration_ns, app_tick=host.tick,
            )
        except Exception as exc:
            outcome["network"] = exc

    threads = [threading.Thread(target=f, daemon=True) for f in (physics_side, network_side)]
    for thread in threads:
        thread.start()
    threads[1].join(timeout=5)
    assert not threads[1].is_alive(), "the network side hung after its peer closed"
    threads[0].join(timeout=5)
    assert not threads[0].is_alive(), "the physics side hung after closing its socket"

    assert isinstance(outcome.get("network"), TransportError)
    summary = outcome["network"].partial_summary
    assert summary.windows_completed == 50 < n
    assert_counters_balance(summary)
    assert isinstance(outcome.get("physics"), TransportError)


class ApplicationFault(Exception):
    pass


class PhysicsFault(Exception):
    pass


class NetSimFault(Exception):
    pass


def split_with_fault(config, sim, tick_fault_at=None, netsim=None):
    """Both coordinators of `config` on daemon threads over a socket pair
    with no socket timeout, so only a closed link can end a side whose peer
    failed.  The application tick raises at window start `tick_fault_at`,
    if given; `netsim`, if given, stands in for the reference netsim.  Each
    side must end within 5 s; returns the exception each side raised."""
    phys_sock, net_sock = socket.socketpair()
    phys_link, net_link = SocketLink(phys_sock, None), SocketLink(net_sock, None)
    phys_cfg = PhysCoordConfig(config.window_ns, config.fidelity)
    net_cfg = NetCoordConfig(config.window_ns, config.agent_address_map, seed=config.seed)
    if netsim is None:
        netsim = ReferenceNetSim(config.radio, dict(config.agent_address_map))
    backend = InProcessBackend(net_cfg.addresses)
    host = FlowHost(backend)
    for flow_cfg in config.flows:
        host.add_flow(flow_cfg)
    outcome = {}

    def app_tick(t):
        if t == tick_fault_at:
            raise ApplicationFault(f"tick at {t}")
        host.tick(t)

    def physics_side():
        try:
            run_physics_coordinator(phys_cfg, phys_link, config.duration_ns, sim)
        except Exception as exc:
            outcome["physics"] = exc

    def network_side():
        try:
            run_network_coordinator(
                net_cfg, net_link, netsim, backend, config.duration_ns, app_tick=app_tick
            )
        except Exception as exc:
            outcome["network"] = exc

    threads = {
        "physics": threading.Thread(target=physics_side, daemon=True),
        "network": threading.Thread(target=network_side, daemon=True),
    }
    for thread in threads.values():
        thread.start()
    for side, thread in threads.items():
        thread.join(timeout=5)
        assert not thread.is_alive(), f"the {side} side hung after its peer failed"
    return outcome


def test_physics_fault_ends_the_network_side():
    """The physics `step` raises in window 51 of 400: the physics side closes
    its link, and the network side, waiting for that window's END, fails
    with `TransportError` and the partial run of 50 windows."""
    config = CORPUS["static"]()

    class FailingSim(ReferencePhysicsSim):
        steps = 0

        def step(self, dt_ns):
            self.steps += 1
            if self.steps == 51:
                raise PhysicsFault("step in window 51")
            super().step(dt_ns)

    outcome = split_with_fault(config, FailingSim(config.world, config.tracks))

    assert isinstance(outcome.get("physics"), PhysicsFault)
    assert outcome["physics"].partial_summary.windows_completed == 50
    assert isinstance(outcome.get("network"), TransportError)
    summary = outcome["network"].partial_summary
    assert summary.windows_completed == 50
    assert_counters_balance(summary)


def test_malformed_snapshot_fails_the_network_side():
    """The physics side's snapshot in window 51 of 400 holds a NaN pose.  Its
    encoder writes it unchecked; the network side's decoder, the one check,
    rejects it in window 52, which applies it, naming the field, with the
    partial run of 51 windows, and closes its link, so the physics side
    fails with `TransportError`."""
    config = CORPUS["static"]()

    class NaNSim(ReferencePhysicsSim):
        snapshots = 0

        def channel_snapshot(self, fidelity):
            cd = super().channel_snapshot(fidelity)
            self.snapshots += 1
            if self.snapshots != 51:
                return cd
            poses = ((float("nan"), *cd.poses[0][1:]), *cd.poses[1:])
            return wire.ChannelData(
                poses, cd.ids, cd.los, cd.path_start, cd.num_hops, cd.hop_start, cd.hops
            )

    sim = NaNSim(config.world, config.tracks)
    outcome = split_with_fault(config, sim)

    assert sim.snapshots >= 51  # the physics side may take the next one first
    assert isinstance(outcome.get("network"), wire.InvariantViolation)
    assert "ChannelData.node_list[0].position: component nan not finite" in str(
        outcome["network"]
    )
    summary = outcome["network"].partial_summary
    assert summary.windows_completed == 51
    assert_counters_balance(summary)
    assert isinstance(outcome.get("physics"), TransportError)


def test_network_fault_ends_the_physics_side():
    """The application tick raises in window 51 of 400: the network side
    closes its link, and the physics side, waiting for that window's END,
    fails with `TransportError`."""
    config = CORPUS["static"]()
    sim = ReferencePhysicsSim(config.world, config.tracks)

    outcome = split_with_fault(config, sim, tick_fault_at=50 * config.window_ns)

    assert isinstance(outcome.get("network"), ApplicationFault)
    summary = outcome["network"].partial_summary
    assert summary.windows_completed == 50
    assert_counters_balance(summary)
    assert isinstance(outcome.get("physics"), TransportError)
    assert outcome["physics"].partial_summary.windows_completed == 50


def test_netsim_fault_ends_the_physics_side():
    """The netsim's `advance` raises in window 51 of 400: the network side
    raises that error with the partial run of 50 windows and closes its
    link, and the physics side, waiting for that window's END, fails with
    `TransportError` and the same 50 windows."""
    config = CORPUS["static"]()
    n = config.duration_ns // config.window_ns

    class FailingNetSim(ReferenceNetSim):
        advances = 0

        def advance(self, window_start, window_ns, packets):
            self.advances += 1
            if self.advances == 51:
                raise NetSimFault(f"advance at {window_start}")
            return super().advance(window_start, window_ns, packets)

    netsim = FailingNetSim(config.radio, dict(config.agent_address_map))
    sim = ReferencePhysicsSim(config.world, config.tracks)

    outcome = split_with_fault(config, sim, netsim=netsim)

    assert n == 400 and netsim.advances == 51
    assert isinstance(outcome.get("network"), NetSimFault)
    assert str(outcome["network"]) == f"advance at {50 * config.window_ns}"
    summary = outcome["network"].partial_summary
    assert summary.windows_completed == 50
    assert_counters_balance(summary)
    assert isinstance(outcome.get("physics"), TransportError)
    assert outcome["physics"].partial_summary.windows_completed == 50
