"""Lockstep synchronization: handshake, desync detection, jitter, shutdown."""

from __future__ import annotations

import queue
import random
import socket
import threading
import time

import pytest

from cosimnet import sync, wire
from tests import msggen
from cosimnet.sync import (
    DesyncError,
    PeerState,
    ProtocolError,
    Role,
    SyncPeer,
    TransportError,
    queue_link_pair,
)
from cosimnet.wire import MsgType, NetworkUpdate, PhysicsUpdate

W = 1_000_000


class StubDriver:
    """Returns empty END messages and records every simulate call."""

    def __init__(self, role, delay_fn=None, on_simulate=None):
        self.role = role
        self.calls = []
        self.delay_fn = delay_fn
        self.on_simulate = on_simulate

    def simulate(self, t, window_ns, peer_end):
        self.calls.append((t, window_ns, peer_end))
        if self.delay_fn is not None:
            d = self.delay_fn()
            if d > 0:
                time.sleep(d)
        if self.on_simulate is not None:
            self.on_simulate(t)
        if self.role is Role.PHYSICS_SIDE:
            return PhysicsUpdate(MsgType.END, t)
        return NetworkUpdate(MsgType.END, t)


def run_peer(role, link, windows, driver=None, ledger=None, lock=None, label=""):
    peer = SyncPeer(role, W)
    driver = driver or StubDriver(role)
    peer.start(link)
    for _ in range(windows):
        report = peer.run_window(link, driver)
        if ledger is not None:
            with lock:
                ledger.append((label, report.t))
    peer.shutdown(link)
    return peer, driver


def run_pair(windows, phys_driver=None, net_driver=None, links=None):
    link_a, link_b = links or queue_link_pair()
    ledger, lock = [], threading.Lock()
    results = {}

    def physics():
        results["phys"] = run_peer(
            Role.PHYSICS_SIDE, link_a, windows, phys_driver, ledger, lock, "P"
        )

    def network():
        results["net"] = run_peer(
            Role.NETWORK_SIDE, link_b, windows, net_driver, ledger, lock, "N"
        )

    t_phys = threading.Thread(target=physics)
    t_net = threading.Thread(target=network)
    t_phys.start()
    t_net.start()
    t_phys.join(timeout=60)
    t_net.join(timeout=60)
    assert not t_phys.is_alive() and not t_net.is_alive(), "peers deadlocked"
    return results, ledger, (link_a, link_b)


def test_start_sends_begin_zero():
    link_a, link_b = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    peer.start(link_a)
    msg = link_b.recv()
    assert isinstance(msg, PhysicsUpdate)
    assert msg.msg_type is MsgType.BEGIN and msg.time_val == 0
    assert peer.state is PeerState.AWAIT_PEER_BEGIN


def test_start_twice_rejected():
    link_a, _ = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    peer.start(link_a)
    with pytest.raises(ProtocolError, match="start"):
        peer.start(link_a)


def test_two_peers_advance_in_lockstep():
    n = 50
    results, ledger, _ = run_pair(n)
    phys_peer, phys_driver = results["phys"]
    net_peer, net_driver = results["net"]
    assert phys_peer.t == net_peer.t == n * W
    assert phys_peer.stats.windows_completed == n
    assert len(phys_driver.calls) == len(net_driver.calls) == n
    # window times are exact multiples of W, in order
    assert [c[0] for c in phys_driver.calls] == [k * W for k in range(n)]
    # no peer ever runs a full window ahead of the other
    counts = {"P": 0, "N": 0}
    for label, _ in ledger:
        counts[label] += 1
        assert abs(counts["P"] - counts["N"]) <= 1
    # per-window completion times agree across the two peers
    times_p = [t for label, t in ledger if label == "P"]
    times_n = [t for label, t in ledger if label == "N"]
    assert times_p == times_n == [k * W for k in range(n)]


def test_peer_payload_is_previous_window_end():
    n = 5
    results, _, _ = run_pair(n)
    _, net_driver = results["net"]
    assert net_driver.calls[0][2] is None
    for k in range(1, n):
        peer_end = net_driver.calls[k][2]
        assert isinstance(peer_end, PhysicsUpdate)
        assert peer_end.msg_type is MsgType.END
        assert peer_end.time_val == (k - 1) * W


def test_frame_count_is_2n_plus_1():
    n = 37
    results, _, (link_a, link_b) = run_pair(n)
    assert link_a.sent_frames == 2 * n + 1
    assert link_b.sent_frames == 2 * n + 1


def test_jitter_does_not_desync():
    n = 200
    rng_a = random.Random(1)
    rng_b = random.Random(2)

    def jitter(rng):
        return lambda: rng.random() * 0.002 if rng.random() < 0.1 else 0.0

    results, ledger, _ = run_pair(
        n,
        phys_driver=StubDriver(Role.PHYSICS_SIDE, delay_fn=jitter(rng_a)),
        net_driver=StubDriver(Role.NETWORK_SIDE, delay_fn=jitter(rng_b)),
    )
    phys_peer, _ = results["phys"]
    net_peer, _ = results["net"]
    assert phys_peer.t == net_peer.t == n * W
    counts = {"P": 0, "N": 0}
    for label, _ in ledger:
        counts[label] += 1
        assert abs(counts["P"] - counts["N"]) <= 1


def test_desync_reports_both_timestamps():
    link_a, link_b = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    peer.start(link_a)
    link_b.recv()  # swallow BEGIN(0)
    # peer skips ahead: announces window 2W when 0 is expected... drive local
    # clock to W first so both timestamps in the error text are nonzero
    link_b.send(NetworkUpdate(MsgType.BEGIN, 0))
    driver = StubDriver(Role.PHYSICS_SIDE)
    link_b.send(NetworkUpdate(MsgType.END, 0))
    peer.run_window(link_a, driver)
    link_b.send(NetworkUpdate(MsgType.BEGIN, 2 * W))
    with pytest.raises(DesyncError, match="expected 1000000, got 2000000"):
        peer.run_window(link_a, driver)


def test_wrong_message_class_for_role():
    link_a, link_b = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    peer.start(link_a)
    link_b.send(PhysicsUpdate(MsgType.BEGIN, 0))  # physics expects NetworkUpdate
    with pytest.raises(ProtocolError, match="NetworkUpdate"):
        peer.run_window(link_a, StubDriver(Role.PHYSICS_SIDE))


def test_end_when_begin_expected_is_protocol_error():
    link_a, link_b = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    peer.start(link_a)
    link_b.send(NetworkUpdate(MsgType.END, 0))
    with pytest.raises(ProtocolError, match="BEGIN"):
        peer.run_window(link_a, StubDriver(Role.PHYSICS_SIDE))


def test_driver_end_message_validated():
    link_a, link_b = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    peer.start(link_a)
    link_b.send(NetworkUpdate(MsgType.BEGIN, 0))

    class BadDriver:
        def simulate(self, t, window_ns, peer_end):
            return PhysicsUpdate(MsgType.END, t + 1)

    with pytest.raises(ProtocolError, match="END at t=0"):
        peer.run_window(link_a, BadDriver())


def test_shutdown_idempotent():
    link_a, _ = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    peer.start(link_a)
    peer.shutdown(link_a)
    assert peer.state is PeerState.DONE
    peer.shutdown(link_a)  # no-op
    assert peer.state is PeerState.DONE


def test_shutdown_mid_window_completes_window_first():
    link_a, link_b = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)

    def request_shutdown(t):
        peer.shutdown(link_a)
        assert peer.state is PeerState.LOCAL_SIMULATING  # deferred, not closed

    driver = StubDriver(Role.PHYSICS_SIDE, on_simulate=request_shutdown)
    peer.start(link_a)
    link_b.recv()
    link_b.send(NetworkUpdate(MsgType.BEGIN, 0))
    link_b.send(NetworkUpdate(MsgType.END, 0))
    report = peer.run_window(link_a, driver)
    assert report.t == 0
    assert peer.state is PeerState.DONE
    # the in-flight window's END and the next BEGIN both went out before close
    end = link_b.recv()
    assert end.msg_type is MsgType.END and end.time_val == 0
    begin = link_b.recv()
    assert begin.msg_type is MsgType.BEGIN and begin.time_val == W
    with pytest.raises(TransportError):
        link_b.recv()


def test_recv_after_peer_close_raises_transport_error():
    link_a, link_b = queue_link_pair()
    link_a.close()
    with pytest.raises(TransportError):
        link_b.recv()
    with pytest.raises(TransportError):
        link_a.recv()


def test_run_window_before_start_rejected():
    link_a, _ = queue_link_pair()
    peer = SyncPeer(Role.PHYSICS_SIDE, W)
    with pytest.raises(ProtocolError, match="run_window"):
        peer.run_window(link_a, StubDriver(Role.PHYSICS_SIDE))


def test_window_ns_must_be_positive():
    with pytest.raises(ValueError):
        SyncPeer(Role.PHYSICS_SIDE, 0)


def test_socket_links_run_the_same_protocol():
    sock_a, sock_b = socket.socketpair()
    link_a = sync.SocketLink(sock_a, timeout=30)
    link_b = sync.SocketLink(sock_b, timeout=30)
    n = 25
    results, _, _ = run_pair(n, links=(link_a, link_b))
    phys_peer, _ = results["phys"]
    net_peer, _ = results["net"]
    assert phys_peer.t == net_peer.t == n * W
    assert link_a.sent_frames == 2 * n + 1


def test_socket_link_surfaces_peer_close():
    sock_a, sock_b = socket.socketpair()
    link_a = sync.SocketLink(sock_a, timeout=5)
    link_b = sync.SocketLink(sock_b, timeout=5)
    link_a.close()
    with pytest.raises(TransportError):
        link_b.recv()


def test_end_payload_reaches_report():
    blob = wire.compress_channel_blob(wire.encode_channel_data(wire.ChannelData()))

    class PayloadDriver:
        def simulate(self, t, window_ns, peer_end):
            return PhysicsUpdate(MsgType.END, t, blob)

    n = 3
    results, _, _ = run_pair(n, phys_driver=PayloadDriver())
    _, net_driver = results["net"]
    assert net_driver.calls[1][2].channel_data == blob


# -- SocketLink receive buffer ------------------------------------------------------


class OneByteSocket:
    """A connected socket whose every recv returns at most one byte."""

    def __init__(self, sock):
        self._sock = sock

    def recv(self, bufsize):
        return self._sock.recv(1)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def sample_messages(seed=0, count=12):
    rng = random.Random(seed)
    return [msggen.random_message(rng, max_agents=6) for _ in range(count)]


def receive_all(link, count):
    got = [link.recv() for _ in range(count)]
    assert len(link._buf) == 0  # every byte belonged to a frame
    return got


def test_socket_link_reassembles_frames_arriving_a_byte_at_a_time():
    sock_a, sock_b = socket.socketpair()
    sender = sync.SocketLink(sock_a, timeout=30)
    receiver = sync.SocketLink(OneByteSocket(sock_b), timeout=30)
    msgs = sample_messages()
    for msg in msgs:
        sender.send(msg)
    assert receive_all(receiver, len(msgs)) == msgs
    assert receiver.received_frames == len(msgs)


def test_socket_link_splits_several_frames_from_one_write():
    sock_a, sock_b = socket.socketpair()
    receiver = sync.SocketLink(sock_b, timeout=30)
    msgs = sample_messages(seed=1)
    sock_a.sendall(b"".join(wire.encode_frame(m) for m in msgs))
    assert receive_all(receiver, len(msgs)) == msgs


def test_socket_link_carries_a_megabyte_physics_update():
    rng = random.Random(2)
    # random doubles hardly compress, so 40k hops make a blob over 1 MB
    hops = tuple(
        (rng.uniform(-1e3, 1e3), rng.uniform(-1e3, 1e3), rng.uniform(0, 50),
         rng.uniform(0, 40))
        for _ in range(40_000)
    )
    cd = wire.ChannelData(
        (wire.Pose((0, 0, 0)), wire.Pose((1, 0, 0))),
        (wire.PathDetails((0, 1), False, (len(hops),), hops),),
    )
    big = PhysicsUpdate(
        MsgType.END, 7 * W, wire.compress_channel_blob(wire.encode_channel_data(cd))
    )
    assert len(big.channel_data) > 1_000_000
    msgs = [PhysicsUpdate(MsgType.BEGIN, 7 * W), big, PhysicsUpdate(MsgType.BEGIN, 8 * W)]
    sock_a, sock_b = socket.socketpair()
    sender = sync.SocketLink(sock_a, timeout=30)
    receiver = sync.SocketLink(sock_b, timeout=30)
    writer = threading.Thread(target=lambda: [sender.send(m) for m in msgs])
    writer.start()
    try:
        got = receive_all(receiver, len(msgs))
    finally:
        writer.join(timeout=30)
    assert not writer.is_alive()
    assert got == msgs
