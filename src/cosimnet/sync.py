"""Lockstep window synchronization between two simulation coordinators.

Both sides run the same handshake, `run_lockstep`.  A side starts by
announcing window zero, then for every window it: waits for the peer's
BEGIN carrying the current time, runs its local simulator over [t, t + W),
sends its END for the window (the physics side attaches compressed channel
data; the network side's END is a bare marker), announces the next window
with a BEGIN, and finally waits for the peer's END of the window just
finished.
Blocking on the peer END at the tail is what keeps both sides within the
same window: neither side can start the next window until the other has
finished simulating this one.

The peer END received for window t is handed to the NEXT window's simulate
call as ``peer_end``; channel data sampled at the end of window t is what
the network side consumes while simulating window t + W.

Message flow for N windows, per side: one initial BEGIN plus one END and one
BEGIN per window, 2N + 1 frames in total.

This handshake is how two coordinators in separate processes stay in step:
`SocketLink` carries it over a stream socket, and the wire codec frames
every message.  A run with both sides in one process needs neither; it is
one loop (`scenario.run_scenario`).

`run_lockstep` closes its link however it returns.  After the last window
that is the graceful teardown.  After a failure, of the protocol or of the
local simulator, the peer sees the link close at its next receive and fails
with `TransportError`, so a fault on either side ends both without waiting
for a socket timeout.
"""

from __future__ import annotations

import enum
import socket
import time
from dataclasses import dataclass, field
from typing import Callable

from . import wire
from .wire import MsgType, NetworkUpdate, PhysicsUpdate


class Role(enum.Enum):
    PHYSICS_SIDE = "physics"
    NETWORK_SIDE = "network"


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
    """Message of the wrong class or kind for the peer's role."""


class TransportError(SyncError):
    """The peer link failed or was closed."""


# How long close() waits for the peer to finish sending before giving up.
_DRAIN_TIMEOUT = 1.0


class SocketLink:
    """Link over a connected stream socket, framing messages with the wire
    codec.  Partial frames are buffered until complete."""

    def __init__(self, sock: socket.socket, timeout: float | None = None):
        self._sock = sock
        self._sock.settimeout(timeout)
        self._buf = bytearray()
        self._closed = False
        self.sent_frames = 0

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
class RunStats:
    windows_completed: int = 0
    window_wall_seconds: list[float] = field(default_factory=list)


DEFAULT_WINDOW_NS = 1_000_000


def run_lockstep(
    role: Role,
    link: SocketLink,
    window_ns: int,
    duration_ns: int,
    simulate: Callable[
        [int, PhysicsUpdate | NetworkUpdate | None], PhysicsUpdate | NetworkUpdate
    ],
    stats: RunStats,
) -> None:
    """Run `role`'s side of the handshake for `duration_ns`, then close `link`.

    `simulate(t, peer_end)` runs window t and returns this side's END for
    it, sent unchecked: the peer's receive checks it.  ``peer_end`` is the
    peer's END of the previous window (None in window zero).  Each completed
    window is counted in `stats`.  The link is closed on every exit, so a
    failure here ends the peer's run too.  `duration_ns`, the last BEGIN's
    time and the largest a frame carries, must fit in a u64.
    """
    if role is Role.PHYSICS_SIDE:
        local_cls, peer_cls = PhysicsUpdate, NetworkUpdate
    else:
        local_cls, peer_cls = NetworkUpdate, PhysicsUpdate

    def recv_expected(kind: MsgType, expected_t: int):
        msg = link.recv()
        if not isinstance(msg, peer_cls):
            raise ProtocolError(
                f"{role.value} side expected a {peer_cls.__name__} from its "
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

    try:
        if window_ns <= 0:
            raise ValueError(f"window_ns must be positive, got {window_ns}")
        if duration_ns <= 0 or duration_ns % window_ns:
            raise ValueError(
                f"duration {duration_ns} ns must be a positive multiple of the "
                f"{window_ns} ns window"
            )
        if duration_ns >= 2**64:
            raise ValueError(f"duration {duration_ns} ns does not fit a frame's u64 time")
        link.send(local_cls(MsgType.BEGIN, 0))
        peer_end = None
        for t in range(0, duration_ns, window_ns):
            t0 = time.perf_counter()
            recv_expected(MsgType.BEGIN, t)
            link.send(simulate(t, peer_end))
            link.send(local_cls(MsgType.BEGIN, t + window_ns))
            peer_end = recv_expected(MsgType.END, t)
            stats.windows_completed += 1
            stats.window_wall_seconds.append(time.perf_counter() - t0)
    finally:
        link.close()
