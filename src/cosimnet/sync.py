"""Lockstep window synchronization between two simulation coordinators.

Both sides run the same handshake.  A peer starts by announcing window zero,
then for every window it: waits for the peer's BEGIN carrying the current
time, runs its local simulator over [t, t + W), sends its END for the window
(the physics side attaches compressed channel data, the network side attaches
clearances), advances t by W, announces the next window with a BEGIN, and
finally waits for the peer's END of the window just finished.  Blocking on
the peer END at the tail is what keeps both sides within the same window:
neither peer can leave run_window until the other has finished simulating it.

The peer END received for window t is handed to the NEXT window's simulate
call as ``peer_end``; channel data sampled at the end of window t is what
the network side consumes while simulating window t + W.

Message flow for N windows, per peer: one initial BEGIN plus one END and one
BEGIN per window, 2N + 1 frames in total.

This handshake is how two coordinators in separate processes stay in step:
`SocketLink` carries it over a stream socket, and the wire codec frames
every message.  A run with both sides in one process needs neither; it is
one loop (`scenario.run_scenario`).  `QueueLink` joins two peers on
threads of one process, which the tests use to exercise the protocol.
"""

from __future__ import annotations

import enum
import queue
import socket
import time
from dataclasses import dataclass, field

from . import wire
from .wire import MsgType, NetworkUpdate, PhysicsUpdate


class Role(enum.Enum):
    PHYSICS_SIDE = "physics"
    NETWORK_SIDE = "network"


class PeerState(enum.Enum):
    INIT = "init"
    AWAIT_PEER_BEGIN = "await_peer_begin"
    LOCAL_SIMULATING = "local_simulating"
    AWAIT_PEER_END = "await_peer_end"
    DONE = "done"


class SyncError(Exception):
    """Base class for synchronization failures."""


class DesyncError(SyncError):
    """Peer announced a window time that does not match the local clock."""

    def __init__(self, expected_ns: int, got_ns: int, detail: str = ""):
        self.expected_ns = expected_ns
        self.got_ns = got_ns
        suffix = f" ({detail})" if detail else ""
        super().__init__(f"window desync: expected {expected_ns}, got {got_ns}{suffix}")


class ProtocolError(SyncError):
    """Message of the wrong class or kind for the peer's role, or a call
    made in a state that does not permit it."""


class TransportError(SyncError):
    """The peer link failed or was closed."""


class PeerLink:
    """One side of a bidirectional, ordered, reliable message channel."""

    def send(self, msg) -> None:
        raise NotImplementedError

    def recv(self):
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


_CLOSED = object()


class QueueLink(PeerLink):
    """In-process link over a pair of FIFO queues; safe for one sender and
    one receiver thread."""

    def __init__(self, tx: queue.Queue, rx: queue.Queue):
        self._tx = tx
        self._rx = rx
        self._closed = False
        self._peer_closed = False
        self.sent_frames = 0
        self.received_frames = 0

    def send(self, msg) -> None:
        if self._closed:
            raise TransportError("send on closed link")
        self._tx.put(msg)
        self.sent_frames += 1

    def recv(self):
        if self._closed:
            raise TransportError("recv on closed link")
        if self._peer_closed:
            raise TransportError("link closed by peer")
        item = self._rx.get()
        if item is _CLOSED:
            self._peer_closed = True
            raise TransportError("link closed by peer")
        self.received_frames += 1
        return item

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._tx.put(_CLOSED)


def queue_link_pair() -> tuple[QueueLink, QueueLink]:
    a_to_b: queue.Queue = queue.Queue()
    b_to_a: queue.Queue = queue.Queue()
    return QueueLink(a_to_b, b_to_a), QueueLink(b_to_a, a_to_b)


# How long close() waits for the peer to finish sending before giving up.
_DRAIN_TIMEOUT = 1.0


class SocketLink(PeerLink):
    """Link over a connected stream socket, framing messages with the wire
    codec.  Partial frames are buffered until complete."""

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._buf = bytearray()
        self._closed = False
        self.sent_frames = 0
        self.received_frames = 0

    def send(self, msg) -> None:
        if self._closed:
            raise TransportError("send on closed link")
        try:
            self._sock.sendall(wire.encode_frame(msg))
        except OSError as exc:
            raise TransportError(f"socket send failed: {exc}") from exc
        self.sent_frames += 1

    def recv(self):
        if self._closed:
            raise TransportError("recv on closed link")
        while True:
            # only the header is inspected until the whole frame is in, so
            # each received byte is copied a bounded number of times
            size = wire.frame_size(self._buf)
            if size is not None and len(self._buf) >= size:
                msg, _ = wire.decode_frame(bytes(self._buf[:size]))
                del self._buf[:size]
                self.received_frames += 1
                return msg
            try:
                chunk = self._sock.recv(65536)
            except socket.timeout as exc:
                raise TransportError("socket recv timed out") from exc
            except OSError as exc:
                raise TransportError(f"socket recv failed: {exc}") from exc
            if not chunk:
                raise TransportError("link closed by peer")
            self._buf += chunk

    def close(self) -> None:
        """Graceful teardown: half-close, drain the peer's in-flight frames
        until EOF (bounded by a short timeout), then release the socket.

        Closing both directions at once would RST a peer that is still
        sending its final window messages.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_WR)
        except OSError:
            self._sock.close()
            return
        try:
            self._sock.settimeout(_DRAIN_TIMEOUT)
            while self._sock.recv(65536):
                pass
        except OSError:
            pass
        self._sock.close()


@dataclass
class WindowReport:
    """Outcome of one synchronized window."""

    t: int
    peer_end: PhysicsUpdate | NetworkUpdate
    wall_seconds: float


@dataclass
class RunStats:
    windows_completed: int = 0
    window_wall_seconds: list[float] = field(default_factory=list)


DEFAULT_WINDOW_NS = 1_000_000


class SyncPeer:
    """One side of the lockstep protocol.

    The driver passed to run_window must expose
    ``simulate(t, window_ns, peer_end) -> end_message`` where ``peer_end`` is
    the peer's END message from the previous window (None in window zero) and
    the returned message is this side's END for the current window.
    """

    def __init__(self, role: Role, window_ns: int = DEFAULT_WINDOW_NS):
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        self.role = role
        self.window_ns = window_ns
        self.t = 0
        self.state = PeerState.INIT
        self.stats = RunStats()
        self._last_peer_end: PhysicsUpdate | NetworkUpdate | None = None
        self._shutdown_pending = False

    # -- message helpers ---------------------------------------------------

    def _local_class(self):
        return PhysicsUpdate if self.role is Role.PHYSICS_SIDE else NetworkUpdate

    def _peer_class(self):
        return NetworkUpdate if self.role is Role.PHYSICS_SIDE else PhysicsUpdate

    def _make_begin(self, t: int):
        if self.role is Role.PHYSICS_SIDE:
            return PhysicsUpdate(MsgType.BEGIN, t)
        return NetworkUpdate(MsgType.BEGIN, t)

    def _recv_expected(self, link: PeerLink, kind: MsgType, expected_t: int):
        msg = link.recv()
        peer_cls = self._peer_class()
        if not isinstance(msg, peer_cls):
            raise ProtocolError(
                f"{self.role.value} side expected a {peer_cls.__name__} from its "
                f"peer, got {type(msg).__name__}"
            )
        if msg.msg_type is not kind:
            raise ProtocolError(
                f"expected peer {kind.name} for window {expected_t}, "
                f"got {msg.msg_type.name} at {msg.time_val}"
            )
        if msg.time_val != expected_t:
            raise DesyncError(expected_t, msg.time_val, f"peer {kind.name}")
        return msg

    # -- protocol ----------------------------------------------------------

    def start(self, link: PeerLink) -> None:
        if self.state is not PeerState.INIT:
            raise ProtocolError(f"start() in state {self.state.value}")
        link.send(self._make_begin(0))
        self.state = PeerState.AWAIT_PEER_BEGIN

    def run_window(self, link: PeerLink, driver) -> WindowReport:
        if self.state is not PeerState.AWAIT_PEER_BEGIN:
            raise ProtocolError(f"run_window() in state {self.state.value}")
        t0 = time.perf_counter()
        window_t = self.t
        self._recv_expected(link, MsgType.BEGIN, window_t)

        self.state = PeerState.LOCAL_SIMULATING
        end_msg = driver.simulate(window_t, self.window_ns, self._last_peer_end)
        local_cls = self._local_class()
        if not isinstance(end_msg, local_cls):
            raise ProtocolError(
                f"driver for the {self.role.value} side must produce a "
                f"{local_cls.__name__}, got {type(end_msg).__name__}"
            )
        if end_msg.msg_type is not MsgType.END or end_msg.time_val != window_t:
            raise ProtocolError(
                f"driver must return END at t={window_t}, got "
                f"{end_msg.msg_type.name} at {end_msg.time_val}"
            )
        link.send(end_msg)

        self.t = window_t + self.window_ns
        link.send(self._make_begin(self.t))

        self.state = PeerState.AWAIT_PEER_END
        peer_end = self._recv_expected(link, MsgType.END, window_t)
        self._last_peer_end = peer_end
        self.state = PeerState.AWAIT_PEER_BEGIN

        self.stats.windows_completed += 1
        wall = time.perf_counter() - t0
        self.stats.window_wall_seconds.append(wall)
        if self._shutdown_pending:
            self._close(link)
        return WindowReport(t=window_t, peer_end=peer_end, wall_seconds=wall)

    def shutdown(self, link: PeerLink) -> None:
        """Close the link.  Idempotent; requested mid-window it defers until
        the in-flight window completes."""
        if self.state is PeerState.DONE:
            return
        if self.state in (PeerState.LOCAL_SIMULATING, PeerState.AWAIT_PEER_END):
            self._shutdown_pending = True
            return
        self._close(link)

    def _close(self, link: PeerLink) -> None:
        link.close()
        self.state = PeerState.DONE
        self._shutdown_pending = False
