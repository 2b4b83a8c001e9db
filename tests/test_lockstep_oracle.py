"""`run_scenario`'s single loop against the two-peer composition it replaced.

The oracle runs `run_physics_coordinator` and `run_network_coordinator` on
two threads, joined once by an in-process `QueueLink` pair and once by
`SocketLink`s over a socket pair, where every END goes through the frame
codec and its validation.  Both must give what the in-process loop gives
for the same config and seed: the ledger, the run counters, per-flow
stats, the netsim totals and the channel timeline.
"""

from __future__ import annotations

import random
import socket
import threading
import time
from pathlib import Path

import pytest

from cosimnet import scenario
from cosimnet.flows import FlowHost
from cosimnet.net_coord import InProcessBackend, NetCoordConfig, run_network_coordinator
from cosimnet.netsim import ReferenceNetSim
from cosimnet.phys_coord import PhysCoordConfig, run_physics_coordinator
from cosimnet.physics import VECTOR_MIN_TESTS, ReferencePhysicsSim
from cosimnet.scenario import load_scenario, parse_scenario, run_scenario
from cosimnet.sync import SocketLink, TransportError, queue_link_pair

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
        "physics": (phys.windows_completed, phys.agent_count, phys.extractions),
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
    timeline = scenario._TimelineRecorder()
    box = {}

    def physics_side():
        try:
            box["summary"] = run_physics_coordinator(
                phys_cfg, phys_link, config.duration_ns, sim
            )
        except Exception as exc:  # surfaced by the assertion below
            box["error"] = exc
            phys_link.close()

    thread = threading.Thread(target=physics_side)
    thread.start()
    try:
        net_summary = run_network_coordinator(
            net_cfg, net_link, netsim, backend, config.duration_ns,
            app_tick=host.tick, on_channel=timeline,
        )
    finally:
        net_link.close()
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


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_single_loop_matches_the_two_peer_runs(tmp_path, name):
    config = CORPUS[name]()
    n = config.duration_ns // config.window_ns
    agents = len(config.tracks)
    pair_box_tests = agents * (agents - 1) // 2 * len(config.world.obstacles)
    assert (pair_box_tests >= VECTOR_MIN_TESTS) == (name == "swarm6")

    expected = facts(run_scenario(config, tmp_path / "loop"))
    assert expected["ledger"], "the corpus run delivers nothing"
    assert expected["counters"]["windows_completed"] == n
    assert len(expected["timeline"]) == (n - 1) * agents * (agents - 1) // 2

    for make_links in (queue_link_pair, socket_link_pair):
        phys_link, net_link = make_links()
        got = facts(two_peer_run(config, phys_link, net_link, tmp_path))
        assert (phys_link.sent_frames, net_link.sent_frames) == (2 * n + 1, 2 * n + 1)
        for key in expected:
            assert got[key] == expected[key], (make_links.__name__, key)


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
    net_link.close()

    assert isinstance(outcome.get("network"), TransportError)
    summary = outcome["network"].partial_summary
    assert summary.windows_completed == 50 < n
    assert summary.captured_total == (
        summary.released_total + summary.expired_total
        + summary.held_at_end + summary.pending_at_end
    )
    assert summary.released_total > 0
    assert isinstance(outcome.get("physics"), TransportError)
