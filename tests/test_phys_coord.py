"""Physics coordinator: config checks, windowed runs."""

from __future__ import annotations

import math
import socket
import threading

import pytest

from cosimnet import wire
from cosimnet.phys_coord import PhysCoordConfig, run_physics_coordinator
from cosimnet.physics import (
    AgentTrack,
    Box,
    ChannelFidelity,
    ReferencePhysicsSim,
    WorldModel,
)
from cosimnet.sync import DesyncError, Role, RunStats, SocketLink, run_lockstep
from cosimnet.wire import MsgType, NetworkUpdate

W = 1_000_000  # 1 ms


@pytest.mark.parametrize("window_ns", [0, -W])
def test_config_rejects_a_window_that_is_not_positive(window_ns):
    with pytest.raises(ValueError, match=f"window must be > 0 ns, got {window_ns}"):
        PhysCoordConfig(window_ns, ChannelFidelity.los_nlos())


@pytest.mark.parametrize("window_ns", [1e6, 1_000_000.5, True])
def test_config_rejects_a_window_that_is_not_an_int(window_ns):
    with pytest.raises(ValueError, match="window_ns must be an integer"):
        PhysCoordConfig(window_ns, ChannelFidelity.los_nlos())


def test_config_rejects_duplicate_agent_id():
    with pytest.raises(ValueError, match="agent id"):
        PhysCoordConfig(
            W, ChannelFidelity.los_nlos(),
            agent_address_map=((0, "10.0.0.1"), (0, "10.0.0.2")),
        )


def test_config_rejects_duplicate_address():
    with pytest.raises(ValueError, match="address"):
        PhysCoordConfig(
            W, ChannelFidelity.los_nlos(),
            agent_address_map=((0, "10.0.0.1"), (1, "10.0.0.1")),
        )


def test_config_rejects_bad_ip():
    with pytest.raises(ValueError, match="IPv4"):
        PhysCoordConfig(
            W, ChannelFidelity.los_nlos(), agent_address_map=((0, "10.0.0"),)
        )


def flat_world():
    world = WorldModel(Box((-50, -50, -5), (150, 50, 20)))
    tracks = [
        AgentTrack(0, ((0, 0, 1), (100, 0, 1)), speed=2.0),
        AgentTrack(1, ((0, 10, 1), (20, 10, 1)), speed=2.0, loop=True),
    ]
    return world, tracks


class RecordingLink(SocketLink):
    """Keeps the channel blob of every END it receives."""

    def __init__(self, sock):
        super().__init__(sock, timeout=30)
        self.payloads = []

    def recv(self):
        msg = super().recv()
        if msg.msg_type is MsgType.END:
            self.payloads.append(msg.channel_data)
        return msg


class NetworkStub:
    """Minimal NETWORK_SIDE peer collecting the physics END payloads."""

    def __init__(self, sock, n_windows, window_ns=W):
        self.link = RecordingLink(sock)
        self.n_windows = n_windows
        self.window_ns = window_ns
        self.error = None
        self.thread = threading.Thread(target=self._run)

    def _run(self):
        def simulate(t, peer_end):
            return NetworkUpdate(MsgType.END, t)

        try:
            run_lockstep(
                Role.NETWORK_SIDE, self.link, self.window_ns,
                self.n_windows * self.window_ns, simulate, RunStats(),
            )
        except Exception as exc:  # surfaced by the test thread join
            self.error = exc

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self.thread.join(timeout=30)
        assert not self.thread.is_alive(), "network stub hung"


def run_coordinator(config, n_windows, sim):
    sock_p, sock_n = socket.socketpair()
    with NetworkStub(sock_n, n_windows, config.window_ns) as stub:
        summary = run_physics_coordinator(
            config, SocketLink(sock_p, timeout=30), n_windows * config.window_ns, sim
        )
    if stub.error is not None:
        raise stub.error
    return summary, stub.link.payloads


@pytest.fixture
def scripted_network():
    """`scripted_network(*msgs)` gives a link to a network side that has
    already sent `msgs` and then half-closed its side."""
    peers = []

    def make(*msgs):
        sock_p, sock_n = socket.socketpair()
        peers.append(sock_n)
        peer = SocketLink(sock_n, timeout=30)
        for msg in msgs:
            peer.send(msg)
        sock_n.shutdown(socket.SHUT_WR)
        return SocketLink(sock_p, timeout=30)

    yield make
    for sock in peers:
        sock.close()


def test_window_count_matches_duration():
    world, tracks = flat_world()
    config = PhysCoordConfig(W, ChannelFidelity.los_nlos())
    summary, payloads = run_coordinator(config, 20, ReferencePhysicsSim(world, tracks))
    assert summary.windows_completed == 20
    assert summary.extractions == 20
    assert len(payloads) == 20


def test_duration_must_be_multiple_of_window(scripted_network):
    config = PhysCoordConfig(W, ChannelFidelity.los_nlos())
    world, tracks = flat_world()
    link_p = scripted_network()
    with pytest.raises(ValueError, match="multiple"):
        run_physics_coordinator(
            config, link_p, W + 1, ReferencePhysicsSim(world, tracks)
        )


def test_static_agents_give_identical_windows():
    world = WorldModel(Box((-50, -50, -5), (150, 50, 20)))
    # single-waypoint tracks park the agents
    tracks = [
        AgentTrack(0, ((0.0, 0.0, 1.0),), speed=1.0),
        AgentTrack(1, ((30.0, 0.0, 1.0),), speed=1.0),
    ]
    config = PhysCoordConfig(W, ChannelFidelity.los_nlos())
    _, payloads = run_coordinator(config, 10, ReferencePhysicsSim(world, tracks))
    assert len(set(payloads)) == 1
    decoded = wire.decode_channel_data(wire.decompress_channel_blob(payloads[0]))
    assert decoded.poses[1][:3] == (30.0, 0.0, 1.0)


def test_moving_agents_obey_kinematic_bound():
    world, tracks = flat_world()
    window_ns = 100_000_000  # 0.1 s so agents visibly move
    config = PhysCoordConfig(window_ns, ChannelFidelity.los_nlos())
    _, payloads = run_coordinator(config, 15, ReferencePhysicsSim(world, tracks))
    snapshots = [
        wire.decode_channel_data(wire.decompress_channel_blob(p)) for p in payloads
    ]
    for prev, cur in zip(snapshots, snapshots[1:]):
        for track, a, b in zip(tracks, prev.poses, cur.poses):
            bound = track.speed * window_ns * 1e-9 + 1e-9
            assert math.dist(a[:3], b[:3]) <= bound


def test_desync_aborts_with_partial_summary(scripted_network):
    world, tracks = flat_world()
    config = PhysCoordConfig(W, ChannelFidelity.los_nlos())
    # the network side runs window 0, then jumps ahead
    link_p = scripted_network(
        NetworkUpdate(MsgType.BEGIN, 0),
        NetworkUpdate(MsgType.END, 0),
        NetworkUpdate(MsgType.BEGIN, 5 * W),
    )
    with pytest.raises(DesyncError) as excinfo:
        run_physics_coordinator(
            config, link_p, 10 * W, ReferencePhysicsSim(world, tracks)
        )
    assert excinfo.value.partial_summary.windows_completed == 1
