"""Network-side coordinator: captures application packets, batches them
into per-window manifests, drives the network simulator, and releases
cleared packets back to their destinations with bit errors applied.

Pipeline for window t (`NetworkCoordinator.simulate`):

    apply the channel snapshot the physics side took at the end of t-W
    build manifest: everything captured since the previous manifest
    advance the network simulator over [t, t+W)
    release clearances (BER, deliver, ledger), expire stale packets
    tick the applications (their sends batch into the manifest for t+W)

A packet captured while window t is being processed is stamped
captured_at = t and can appear in the manifest for t+W at the earliest,
so every delivered packet has delay >= W.

In process, `scenario.run_scenario` passes each snapshot to `simulate` by
reference.  Across processes, `run_network_coordinator` decodes it once
from the peer's END message of the sync handshake.
"""

from __future__ import annotations

import ipaddress
import socket
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Protocol

import numpy as np

from . import wire
from .netsim import NetSim
from .sync import PeerLink, ProtocolError, Role, RunStats, SyncPeer
from .wire import MsgType, NetworkUpdate

DEFAULT_EXPIRY_WINDOWS = 30_000


@dataclass(frozen=True)
class CapturedPacket:
    pkt_id: int
    payload: bytes
    src: str
    dst: str
    captured_at: int  # window start of the capture, ns


@dataclass(frozen=True)
class DeliveryRecord:
    """Ledger row: one physical packet's trip through the simulator."""

    pkt_id: int
    src: str
    dst: str
    length: int
    captured_at: int
    released_at: int  # start of the window whose clearances included it
    ber: float


@dataclass(frozen=True)
class NetCoordConfig:
    window_ns: int
    agent_address_map: tuple[tuple[int, str], ...]
    expiry_windows: int = DEFAULT_EXPIRY_WINDOWS
    seed: int = 0

    def __post_init__(self):
        if self.window_ns <= 0:
            raise ValueError(f"window must be > 0 ns, got {self.window_ns}")
        if self.expiry_windows < 1:
            raise ValueError("expiry_windows must be >= 1")
        amap = tuple((int(a), str(ip)) for a, ip in self.agent_address_map)
        object.__setattr__(self, "agent_address_map", amap)
        ids = [a for a, _ in amap]
        ips = [ip for _, ip in amap]
        if len(set(ids)) != len(ids):
            raise ValueError("agent_address_map repeats an agent id")
        if len(set(ips)) != len(ips):
            raise ValueError("agent_address_map repeats an address")
        for ip in ips:
            try:
                ipaddress.IPv4Address(ip)
            except ValueError:
                raise ValueError(f"bad IPv4 address {ip!r} in agent_address_map") from None

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(ip for _, ip in self.agent_address_map)


class CaptureSink(Protocol):
    def capture(self, src: str, dst: str, payload: bytes) -> int | None: ...


class Endpoint:
    """Application-side handle for one address on the in-process backend."""

    def __init__(self, backend: "InProcessBackend", address: str):
        self._backend = backend
        self.address = address

    def send(self, dst: str, payload: bytes) -> bool:
        return self._backend.send(self.address, dst, payload)

    def receive(self) -> bytes | None:
        return self._backend.receive(self.address)


class InProcessBackend:
    """Deterministic capture backend: virtual endpoints keyed by address.

    Sends are forwarded synchronously to the attached coordinator sink;
    deliveries land in per-address FIFO queues that one concurrent reader
    may drain.
    """

    def __init__(self, addresses: Iterable[str]):
        self._egress: dict[str, deque[bytes]] = {str(a): deque() for a in addresses}
        if not self._egress:
            raise ValueError("backend needs at least one address")
        self._sink: CaptureSink | None = None
        self.rejected_total = 0

    def attach_sink(self, sink: CaptureSink) -> None:
        self._sink = sink

    def endpoint(self, address: str) -> Endpoint:
        if address not in self._egress:
            raise KeyError(f"address {address} is not configured")
        return Endpoint(self, address)

    def send(self, src: str, dst: str, payload: bytes) -> bool:
        if (
            self._sink is None
            or src not in self._egress
            or dst not in self._egress
            or src == dst
            or not payload
        ):
            self.rejected_total += 1
            return False
        return self._sink.capture(src, dst, bytes(payload)) is not None

    def deliver(self, dst: str, payload: bytes) -> None:
        self._egress[dst].append(payload)

    def receive(self, address: str) -> bytes | None:
        queue = self._egress[address]
        try:
            return queue.popleft()
        except IndexError:
            return None


def apply_ber(payload: bytes, ber: float, rng: np.random.Generator) -> bytes:
    """Flip each bit independently with probability ber.

    ber 0 and 1 take exact shortcuts (identity / complement) and consume
    no randomness.  A fractional rate draws the number of flipped bits
    from Binomial(n_bits, ber), then that many distinct positions
    uniformly at random: the same distribution as one Bernoulli(ber) per
    bit (Devroye 1986, ch. X), at a cost that follows the flips, not the
    payload.  Draws come from the run-seeded generator, so delivery is
    reproducible per seed.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if ber == 0.0 or not payload:
        return bytes(payload)
    if ber == 1.0:
        return np.bitwise_not(np.frombuffer(payload, dtype=np.uint8)).tobytes()
    n_bits = len(payload) * 8
    k = int(rng.binomial(n_bits, ber))
    if k == 0:
        return bytes(payload)
    # draw with replacement and top up until k positions are distinct: the
    # procedure treats every position alike, so the set is uniform over
    # the k-subsets
    positions: set[int] = set()
    while len(positions) < k:
        positions.update(rng.integers(n_bits, size=k - len(positions)).tolist())
    out = bytearray(payload)
    for pos in positions:
        out[pos >> 3] ^= 0x80 >> (pos & 7)
    return bytes(out)


@dataclass
class NetRunSummary:
    windows_completed: int = 0
    captured_total: int = 0
    released_total: int = 0
    released_bytes: int = 0
    expired_total: int = 0
    rejected_total: int = 0
    late_cleared_total: int = 0
    held_at_end: int = 0
    pending_at_end: int = 0
    ledger: list[DeliveryRecord] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)


class NetworkCoordinator:
    """Network side of one window at a time; owns the capture pipeline.

    `app_tick(t)` runs once per window after release, so application
    responses to this window's deliveries are captured for the next
    manifest.  `on_channel(t, cd)` observes each applied channel update.
    """

    def __init__(
        self,
        config: NetCoordConfig,
        netsim: NetSim,
        backend,
        app_tick: Callable[[int], None] | None = None,
        on_channel: Callable[[int, wire.ChannelData], None] | None = None,
    ):
        self.config = config
        self._netsim = netsim
        self._backend = backend
        self._app_tick = app_tick
        self._on_channel = on_channel
        self._rng = np.random.default_rng(config.seed)
        self._addresses = set(config.addresses)
        self._pending: deque[CapturedPacket] = deque()
        self._held: dict[int, CapturedPacket] = {}
        self._expired_ids: set[int] = set()
        self._next_pkt_id = 0
        self.window_start = 0
        self.captured_total = 0
        self.released_total = 0
        self.released_bytes = 0
        self.expired_total = 0
        self.rejected_total = 0
        self.late_cleared_total = 0
        self.ledger: list[DeliveryRecord] = []
        backend.attach_sink(self)

    # -- capture ---------------------------------------------------------

    def capture(self, src: str, dst: str, payload: bytes) -> int | None:
        if (
            src not in self._addresses
            or dst not in self._addresses
            or src == dst
            or not payload
        ):
            self.rejected_total += 1
            return None
        pkt_id = self._next_pkt_id
        self._next_pkt_id += 1
        self._pending.append(
            CapturedPacket(pkt_id, bytes(payload), src, dst, self.window_start)
        )
        self.captured_total += 1
        return pkt_id

    def build_manifest(self, t: int) -> NetworkUpdate:
        # only packets captured before this window: a send during window t
        # must not ride the manifest for t, or its delay could undercut W
        batch = []
        while self._pending and self._pending[0].captured_at < t:
            batch.append(self._pending.popleft())
        for pkt in batch:
            self._held[pkt.pkt_id] = pkt
        return NetworkUpdate(
            MsgType.BEGIN,
            t,
            pkt_id=tuple(p.pkt_id for p in batch),
            pkt_lengths=tuple(len(p.payload) for p in batch),
            src_ip=tuple(p.src for p in batch),
            dst_ip=tuple(p.dst for p in batch),
        )

    # -- release ---------------------------------------------------------

    def release(self, clearances: NetworkUpdate) -> int:
        if clearances.msg_type is not MsgType.END:
            raise ProtocolError("clearances must arrive in an END message")
        fields = (
            clearances.clear_pkt_id,
            clearances.clear_src_ip,
            clearances.clear_dst_ip,
            clearances.ber,
        )
        if len({len(f) for f in fields}) != 1:
            raise ProtocolError("clearance lists are misaligned")
        released = 0
        for pkt_id, src, dst, ber in zip(*fields):
            pkt = self._held.pop(pkt_id, None)
            if pkt is None:
                if pkt_id in self._expired_ids:
                    # the simulator finally served a packet we gave up on;
                    # nothing to deliver, but it is not a protocol breach
                    self._expired_ids.discard(pkt_id)
                    self.late_cleared_total += 1
                    continue
                raise ProtocolError(
                    f"simulator cleared pkt_id {pkt_id} that was never submitted"
                )
            if (src, dst) != (pkt.src, pkt.dst):
                raise ProtocolError(
                    f"clearance for pkt_id {pkt_id} names {src}->{dst}, "
                    f"captured as {pkt.src}->{pkt.dst}"
                )
            payload = apply_ber(pkt.payload, ber, self._rng)
            self._backend.deliver(pkt.dst, payload)
            self.ledger.append(
                DeliveryRecord(
                    pkt_id, pkt.src, pkt.dst, len(pkt.payload),
                    pkt.captured_at, clearances.time_val, ber,
                )
            )
            self.released_total += 1
            self.released_bytes += len(pkt.payload)
            released += 1
        return released

    def _expire(self, t: int) -> None:
        # `_held` is in capture order (manifests move the pending FIFO in
        # order and only release removes from the middle), so the stale
        # packets are a prefix of it
        horizon = self.config.expiry_windows * self.config.window_ns
        stale = []
        for pkt_id, pkt in self._held.items():
            if t - pkt.captured_at <= horizon:
                break
            stale.append(pkt_id)
        for pkt_id in stale:
            del self._held[pkt_id]
            self._expired_ids.add(pkt_id)
            self.expired_total += 1

    @property
    def held_count(self) -> int:
        return len(self._held)

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- one window ----------------------------------------------------------

    def simulate(
        self, t: int, window_ns: int, channel: wire.ChannelData | None
    ) -> NetworkUpdate:
        """Run window t against `channel`, the physics snapshot taken at the
        end of window t-W (None in window zero: the links stay as they are)."""
        self.window_start = t
        if channel is not None:
            self._netsim.apply_channel(channel)
            if self._on_channel is not None:
                self._on_channel(t, channel)
        manifest = self.build_manifest(t)
        end = self._netsim.advance(t, window_ns, manifest)
        self.release(end)
        self._expire(t)
        pump = getattr(self._backend, "pump", None)
        if pump is not None:
            pump()
        if self._app_tick is not None:
            self._app_tick(t)
        return end

    def summary(self, stats: RunStats) -> NetRunSummary:
        return NetRunSummary(
            windows_completed=stats.windows_completed,
            captured_total=self.captured_total,
            released_total=self.released_total,
            released_bytes=self.released_bytes,
            expired_total=self.expired_total,
            rejected_total=self.rejected_total
            + getattr(self._backend, "rejected_total", 0),
            late_cleared_total=self.late_cleared_total,
            held_at_end=self.held_count,
            pending_at_end=self.pending_count,
            ledger=self.ledger,
            stats=stats,
        )


class _EndDecoder:
    """Sync-peer driver: decodes the channel in the peer's END once, then
    runs the coordinator's window on it."""

    def __init__(self, coordinator: NetworkCoordinator):
        self._coordinator = coordinator

    def simulate(self, t: int, window_ns: int, peer_end) -> NetworkUpdate:
        channel = None
        if peer_end is not None and peer_end.channel_data:
            channel = wire.decode_channel_data(
                wire.decompress_channel_blob(peer_end.channel_data)
            )
        return self._coordinator.simulate(t, window_ns, channel)


def run_network_coordinator(
    config: NetCoordConfig,
    link: PeerLink,
    netsim: NetSim,
    backend,
    duration_ns: int,
    app_tick: Callable[[int], None] | None = None,
    on_channel: Callable[[int, wire.ChannelData], None] | None = None,
) -> NetRunSummary:
    """Drive the NETWORK_SIDE of the sync protocol for a fixed duration.

    Any failure, of the sync protocol, the simulator or the application,
    propagates with the partial run attached as `exc.partial_summary`.
    """
    if duration_ns <= 0 or duration_ns % config.window_ns:
        raise ValueError(
            f"duration {duration_ns} ns must be a positive multiple of the "
            f"{config.window_ns} ns window"
        )
    n_windows = duration_ns // config.window_ns
    coordinator = NetworkCoordinator(config, netsim, backend, app_tick, on_channel)
    driver = _EndDecoder(coordinator)
    peer = SyncPeer(Role.NETWORK_SIDE, config.window_ns)
    try:
        peer.start(link)
        for _ in range(n_windows):
            peer.run_window(link, driver)
        peer.shutdown(link)
    except Exception as exc:
        exc.partial_summary = coordinator.summary(peer.stats)
        raise
    return coordinator.summary(peer.stats)


# ---------------------------------------------------------------------------
# Optional TUN capture backend (Linux, needs CAP_NET_ADMIN)


def parse_ipv4_addresses(frame: bytes) -> tuple[str, str] | None:
    """Source and destination of a raw IPv4 frame, or None if not IPv4."""
    if len(frame) < 20 or frame[0] >> 4 != 4:
        return None
    return (
        socket.inet_ntoa(frame[12:16]),
        socket.inet_ntoa(frame[16:20]),
    )


class TunCaptureBackend:
    """Capture backend over Linux TUN devices, one per configured address.

    This is the adapter for running real, unmodified applications against
    the simulator: their IP traffic enters via the TUN devices and released
    packets are written back as raw frames.  Creating the devices needs
    /dev/net/tun and CAP_NET_ADMIN, and address/route setup on the
    interfaces is the operator's job; the deterministic in-process backend
    is what the test suite and the bundled scenarios use.
    """

    TUNSETIFF = 0x400454CA
    IFF_TUN = 0x0001
    IFF_NO_PI = 0x1000

    def __init__(self, addresses: Iterable[str], ifname_prefix: str = "cosim"):
        import fcntl
        import os
        import struct

        self._os = os
        self._fds: dict[str, int] = {}
        self._names: dict[str, str] = {}
        self._sink: CaptureSink | None = None
        self.rejected_total = 0
        self.non_ipv4_total = 0
        try:
            for idx, address in enumerate(addresses):
                fd = os.open("/dev/net/tun", os.O_RDWR | os.O_NONBLOCK)
                name = f"{ifname_prefix}{idx}"
                ifr = struct.pack("16sH", name.encode(), self.IFF_TUN | self.IFF_NO_PI)
                fcntl.ioctl(fd, self.TUNSETIFF, ifr)
                self._fds[str(address)] = fd
                self._names[str(address)] = name
        except OSError as exc:
            self.close()
            raise RuntimeError(
                "TUN backend unavailable (needs /dev/net/tun and CAP_NET_ADMIN): "
                f"{exc}"
            ) from exc

    def attach_sink(self, sink: CaptureSink) -> None:
        self._sink = sink

    def interface_name(self, address: str) -> str:
        return self._names[address]

    def pump(self) -> None:
        """Drain every TUN device into the capture sink (non-blocking)."""
        for address, fd in self._fds.items():
            while True:
                try:
                    frame = self._os.read(fd, 65536)
                except BlockingIOError:
                    break
                except OSError:
                    break
                if not frame:
                    break
                parsed = parse_ipv4_addresses(frame)
                if parsed is None:
                    self.non_ipv4_total += 1
                    continue
                src, dst = parsed
                if self._sink is None or self._sink.capture(src, dst, frame) is None:
                    self.rejected_total += 1

    def deliver(self, dst: str, payload: bytes) -> None:
        fd = self._fds.get(dst)
        if fd is None:
            self.rejected_total += 1
            return
        try:
            self._os.write(fd, payload)
        except OSError:
            self.rejected_total += 1

    def close(self) -> None:
        for fd in self._fds.values():
            try:
                self._os.close(fd)
            except OSError:
                pass
        self._fds.clear()
