"""Lockstep synchronization: handshake, desync detection, jitter, teardown."""

from __future__ import annotations

import random
import socket
import threading
import time

import pytest

from cosimnet import sync, wire
from tests import msggen
from cosimnet.sync import (
    DesyncError,
    ProtocolError,
    Role,
    RunStats,
    TransportError,
    run_lockstep,
)
from cosimnet.wire import MsgType, NetworkUpdate, PhysicsUpdate

W = 1_000_000

# a socket left open warns when it is collected; raised as an error there,
# the warning reaches pytest as an unraisable exception, which fails the test
pytestmark = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


class StubDriver:
    """Returns empty END messages and records every simulate call."""

    def __init__(self, role, delay_fn=None):
        self.role = role
        self.calls = []
        self.delay_fn = delay_fn

    def simulate(self, t, peer_end):
        self.calls.append((t, peer_end))
        if self.delay_fn is not None:
            d = self.delay_fn()
            if d > 0:
                time.sleep(d)
        if self.role is Role.PHYSICS_SIDE:
            return PhysicsUpdate(MsgType.END, t)
        return NetworkUpdate(MsgType.END, t)


def socket_link_pair():
    sock_a, sock_b = socket.socketpair()
    return sync.SocketLink(sock_a, timeout=30), sync.SocketLink(sock_b, timeout=30)


@pytest.fixture
def socket_pair():
    """Both ends of a connected socket pair, closed when the test ends."""
    sock_a, sock_b = socket.socketpair()
    yield sock_a, sock_b
    sock_a.close()
    sock_b.close()


@pytest.fixture
def scripted_peer():
    """`scripted_peer(*msgs)` gives a link whose peer has already sent
    `msgs` and then half-closed its side, and the peer's link, for reading
    back what the local side sent."""
    peers = []

    def make(*msgs):
        local, peer = socket_link_pair()
        for msg in msgs:
            peer.send(msg)
        peer._sock.shutdown(socket.SHUT_WR)
        peers.append(peer)
        return local, peer

    yield make
    for peer in peers:
        peer._sock.close()


def run_physics_side(link, duration_ns, simulate=None, stats=None, window_ns=W):
    simulate = simulate or StubDriver(Role.PHYSICS_SIDE).simulate
    run_lockstep(
        Role.PHYSICS_SIDE, link, window_ns, duration_ns, simulate, stats or RunStats()
    )


def sent_by(peer, count):
    msgs = [peer.recv() for _ in range(count)]
    with pytest.raises(TransportError, match="closed by peer"):
        peer.recv()
    return msgs


def run_pair(windows, phys_driver=None, net_driver=None, links=None):
    """Both sides on two threads; the ledger logs each simulate call as it
    starts, labelled by side."""
    link_a, link_b = links or socket_link_pair()
    ledger, lock = [], threading.Lock()
    results, errors = {}, []

    def side(role, link, driver, label):
        driver = driver or StubDriver(role)
        stats = RunStats()

        def simulate(t, peer_end):
            with lock:
                ledger.append((label, t))
            return driver.simulate(t, peer_end)

        try:
            run_lockstep(role, link, W, windows * W, simulate, stats)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)
        results[label] = stats, driver

    threads = [
        threading.Thread(target=side, args=(Role.PHYSICS_SIDE, link_a, phys_driver, "P")),
        threading.Thread(target=side, args=(Role.NETWORK_SIDE, link_b, net_driver, "N")),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads), "peers deadlocked"
    assert errors == []
    return results, ledger, (link_a, link_b)


def assert_lockstep(ledger, n):
    # no side ever starts a window more than one ahead of the other
    counts = {"P": 0, "N": 0}
    for label, _ in ledger:
        counts[label] += 1
        assert abs(counts["P"] - counts["N"]) <= 1
    # both sides run the same windows, exact multiples of W, in order
    times_p = [t for label, t in ledger if label == "P"]
    times_n = [t for label, t in ledger if label == "N"]
    assert times_p == times_n == [k * W for k in range(n)]


def test_start_sends_begin_zero(scripted_peer):
    link, peer = scripted_peer()
    with pytest.raises(TransportError):
        run_physics_side(link, W)
    [msg] = sent_by(peer, 1)
    assert isinstance(msg, PhysicsUpdate)
    assert msg.msg_type is MsgType.BEGIN and msg.time_val == 0


def test_two_peers_advance_in_lockstep():
    n = 50
    results, ledger, _ = run_pair(n)
    phys_stats, phys_driver = results["P"]
    net_stats, net_driver = results["N"]
    assert phys_stats.windows_completed == net_stats.windows_completed == n
    assert len(phys_stats.window_wall_seconds) == len(net_stats.window_wall_seconds) == n
    assert len(phys_driver.calls) == len(net_driver.calls) == n
    assert [c[0] for c in phys_driver.calls] == [k * W for k in range(n)]
    assert_lockstep(ledger, n)


def test_peer_payload_is_previous_window_end():
    n = 5
    results, _, _ = run_pair(n)
    _, net_driver = results["N"]
    assert net_driver.calls[0][1] is None
    for k in range(1, n):
        peer_end = net_driver.calls[k][1]
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
    assert results["P"][0].windows_completed == results["N"][0].windows_completed == n
    assert_lockstep(ledger, n)


def test_desync_reports_both_timestamps(scripted_peer):
    # the peer runs window 0, then skips ahead: it announces 2W when W is
    # expected, so both timestamps in the error text are nonzero
    link, _ = scripted_peer(
        NetworkUpdate(MsgType.BEGIN, 0),
        NetworkUpdate(MsgType.END, 0),
        NetworkUpdate(MsgType.BEGIN, 2 * W),
    )
    stats = RunStats()
    with pytest.raises(DesyncError, match="expected 1000000, got 2000000"):
        run_physics_side(link, 5 * W, stats=stats)
    assert stats.windows_completed == 1


def test_wrong_message_class_for_role(scripted_peer):
    # the physics side expects a NetworkUpdate
    link, _ = scripted_peer(PhysicsUpdate(MsgType.BEGIN, 0))
    with pytest.raises(ProtocolError, match="NetworkUpdate"):
        run_physics_side(link, W)


def test_end_when_begin_expected_is_protocol_error(scripted_peer):
    link, _ = scripted_peer(NetworkUpdate(MsgType.END, 0))
    with pytest.raises(ProtocolError, match="BEGIN"):
        run_physics_side(link, W)


def test_driver_end_message_validated(scripted_peer):
    link, _ = scripted_peer(NetworkUpdate(MsgType.BEGIN, 0))

    def bad_simulate(t, peer_end):
        return PhysicsUpdate(MsgType.END, t + 1)

    with pytest.raises(ProtocolError, match="END at t=0"):
        run_physics_side(link, W, bad_simulate)


def test_window_ns_must_be_positive(scripted_peer):
    link, peer = scripted_peer()
    with pytest.raises(ValueError, match="window_ns"):
        run_physics_side(link, W, window_ns=0)
    sent_by(peer, 0)


def test_socket_links_run_the_same_protocol():
    """Over a loopback TCP connection, as a split deployment runs, rather
    than the socket pair the other tests use."""
    with socket.create_server(("127.0.0.1", 0)) as server:
        sock_a = socket.create_connection(server.getsockname(), timeout=30)
        sock_b, _ = server.accept()
    link_a = sync.SocketLink(sock_a, timeout=30)
    link_b = sync.SocketLink(sock_b, timeout=30)
    n = 25
    results, ledger, _ = run_pair(n, links=(link_a, link_b))
    assert results["P"][0].windows_completed == results["N"][0].windows_completed == n
    assert_lockstep(ledger, n)
    assert link_a.sent_frames == link_b.sent_frames == 2 * n + 1


def test_socket_link_surfaces_peer_close(socket_pair):
    sock_a, sock_b = socket_pair
    link_a = sync.SocketLink(sock_a, timeout=5)
    link_b = sync.SocketLink(sock_b, timeout=5)
    link_a.close()
    with pytest.raises(TransportError):
        link_b.recv()


def test_end_payload_reaches_report():
    blob = wire.compress_channel_blob(wire.encode_channel_data(wire.ChannelData()))

    class PayloadDriver:
        def simulate(self, t, peer_end):
            return PhysicsUpdate(MsgType.END, t, blob)

    n = 3
    results, _, _ = run_pair(n, phys_driver=PayloadDriver())
    _, net_driver = results["N"]
    assert net_driver.calls[1][1].channel_data == blob


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


def test_socket_link_reassembles_frames_arriving_a_byte_at_a_time(socket_pair):
    sock_a, sock_b = socket_pair
    sender = sync.SocketLink(sock_a, timeout=30)
    receiver = sync.SocketLink(OneByteSocket(sock_b), timeout=30)
    msgs = sample_messages()
    for msg in msgs:
        sender.send(msg)
    assert receive_all(receiver, len(msgs)) == msgs
    assert receiver.received_frames == len(msgs)


def test_socket_link_splits_several_frames_from_one_write(socket_pair):
    sock_a, sock_b = socket_pair
    receiver = sync.SocketLink(sock_b, timeout=30)
    msgs = sample_messages(seed=1)
    sock_a.sendall(b"".join(wire.encode_frame(m) for m in msgs))
    assert receive_all(receiver, len(msgs)) == msgs


def test_socket_link_carries_a_megabyte_physics_update(socket_pair):
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
    sock_a, sock_b = socket_pair
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
