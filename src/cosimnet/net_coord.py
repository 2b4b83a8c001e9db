"""Network-side coordinator: captures application packets, batches them
into per-window manifests, drives the network simulator, and releases
cleared packets back to their destinations with bit errors applied.

Pipeline for window t (`NetworkCoordinator.simulate`):

    apply the channel snapshot the physics side took at the end of t-W
    build manifest: every row captured since the previous manifest
    advance the network simulator over [t, t+W) with those rows
    release the rows it cleared (BER, deliver, ledger), expire stale packets
    tick the applications (their sends batch into the manifest for t+W)

A packet captured while window t is being processed is stamped
captured_at = t and can appear in the manifest for t+W at the earliest,
so every delivered packet has delay >= W.

A packet is one plain row from capture to release, and the netsim takes
and returns the same rows (`netsim.NetSim`).  `capture` checks a send once
and resolves its addresses to agent ids; `build_manifest` moves the rows
to the held set and hands them over as they are; `release` takes the
netsim's cleared rows and appends a row per delivery to the `Ledger`,
which reads back as `DeliveryRecord`s.  No message is built: the
coordinator and its netsim share a process in both deployments.

Bit errors come from a stdlib `random.Random` seeded with the run's seed:
`apply_ber` walks the flipped bits as geometric gaps, one uniform per flip
plus one, so this module needs no numpy.

In process, `scenario.run_scenario` passes each snapshot to `simulate` by
reference.  Across processes, the peer's END message of the sync
handshake carries it as an opaque blob, and `run_network_coordinator`
decodes it once, in the window that applies it; its own END is a bare
marker.
"""

from __future__ import annotations

import random
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import starmap
from math import log, log1p
from typing import Callable, Iterable, Protocol

from . import wire
from .netsim import NetSim
from .sync import ProtocolError, Role, RunStats, SocketLink, run_lockstep
from .wire import MsgType, NetworkUpdate

DEFAULT_EXPIRY_WINDOWS = 30_000


# A captured packet is one plain row from capture to release:
# (pkt_id, length, src, dst, src agent, dst agent, captured_at, payload),
# where captured_at is the window start of the capture, ns.  A netsim reads
# the first six fields (`netsim.NetSim`).
CAPTURED_AT = 6


@dataclass(frozen=True)
class DeliveryRecord:
    """Ledger record: one physical packet's trip through the simulator."""

    pkt_id: int
    src: str
    dst: str
    length: int
    captured_at: int
    released_at: int  # start of the window whose clearances included it
    ber: float


class Ledger(Sequence):
    """Every released packet, in release order, stored as rows of the
    `DeliveryRecord` fields.  Reading it builds a record for each row it
    reads and keeps none, so reading does not add to the memory it holds."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: list[tuple] = []

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [DeliveryRecord(*row) for row in self._rows[index]]
        return DeliveryRecord(*self._rows[index])

    def __iter__(self):
        return starmap(DeliveryRecord, self._rows)

    def __eq__(self, other):
        if isinstance(other, Ledger):
            return self._rows == other._rows
        if isinstance(other, list):
            return list(self) == other
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return f"Ledger({list(self)!r})"


@dataclass(frozen=True)
class NetCoordConfig:
    """The network side's settings.  `seed` seeds the `random.Random` that
    `apply_ber` draws every bit error from, so a seed fixes which released
    packets are corrupted and where."""

    window_ns: int
    agent_address_map: tuple[tuple[int, str], ...]
    expiry_windows: int = DEFAULT_EXPIRY_WINDOWS
    seed: int = 0

    def __post_init__(self):
        if self.window_ns <= 0:
            raise ValueError(f"window must be > 0 ns, got {self.window_ns}")
        if self.expiry_windows < 1:
            raise ValueError("expiry_windows must be >= 1")
        object.__setattr__(
            self, "agent_address_map", wire.checked_address_map(self.agent_address_map)
        )

    @property
    def addresses(self) -> tuple[str, ...]:
        return tuple(ip for _, ip in self.agent_address_map)


class CaptureSink(Protocol):
    """What a capture backend hands each send to.  A backend needs only
    `attach_sink(sink)` and `deliver(dst, payload)`; `capture` returns the
    packet's id, or None for a rejected send."""

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

    Sends are forwarded synchronously to the attached coordinator sink,
    whose `capture` is the one check of a send; a send before a sink is
    attached raises RuntimeError.  Deliveries land in per-address FIFO
    queues that one concurrent reader may drain.
    """

    def __init__(self, addresses: Iterable[str]):
        self._egress: dict[str, deque[bytes]] = {str(a): deque() for a in addresses}
        if not self._egress:
            raise ValueError("backend needs at least one address")
        self._sink: CaptureSink | None = None

    def attach_sink(self, sink: CaptureSink) -> None:
        self._sink = sink

    def endpoint(self, address: str) -> Endpoint:
        if address not in self._egress:
            raise KeyError(f"address {address} is not configured")
        return Endpoint(self, address)

    def send(self, src: str, dst: str, payload: bytes) -> bool:
        if self._sink is None:
            raise RuntimeError("send before a coordinator attached its capture sink")
        return self._sink.capture(src, dst, payload) is not None

    def deliver(self, dst: str, payload: bytes) -> None:
        self._egress[dst].append(payload)

    def receive(self, address: str) -> bytes | None:
        queue = self._egress[address]
        return queue.popleft() if queue else None


_COMPLEMENT = bytes(range(255, -1, -1))  # byte -> its bitwise complement


class UniformSource(Protocol):
    """What `apply_ber` draws from: `random()` returns a float in [0, 1),
    as `random.Random` and `numpy.random.Generator` both do."""

    def random(self) -> float: ...


def apply_ber(payload: bytes, ber: float, rng: UniformSource) -> bytes:
    """Flip each bit independently with probability ber.

    ber 0 and 1 take exact shortcuts (identity / complement), as does an
    empty payload, and consume no randomness.  A fractional rate walks the
    flipped positions as geometric gaps: the first flip is at
    floor(log(1 - U) / log1p(-ber)) for a uniform U, and each later one
    that many bits plus one past the last.  The gap between flips of
    i.i.d. Bernoulli(ber) bits is geometric, so this is exactly one flip
    chance per bit, at a cost of one uniform per flip plus one: a packet
    that keeps all its bits costs a single draw.  Draws come from the
    run-seeded generator, so delivery is reproducible per seed.
    """
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if ber == 0.0 or not payload:
        return bytes(payload)
    if ber == 1.0:
        return bytes(payload).translate(_COMPLEMENT)
    n_bits = len(payload) << 3
    log_q = log1p(-ber)
    uniform = rng.random
    # a gap is compared as a float before it is truncated: at a tiny ber
    # it can exceed any int, or overflow to inf
    gap = log(1.0 - uniform()) / log_q
    if gap >= n_bits:
        return bytes(payload)
    out = bytearray(payload)
    pos = int(gap)
    while True:
        out[pos >> 3] ^= 0x80 >> (pos & 7)
        gap = log(1.0 - uniform()) / log_q
        # the next flip, pos + 1 + floor(gap), is past the end iff this
        if gap >= n_bits - pos - 1:
            return bytes(out)
        pos += 1 + int(gap)


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
    ledger: Ledger = field(default_factory=Ledger)
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
        self._rng = random.Random(config.seed)
        self._agent_of = {ip: agent for agent, ip in config.agent_address_map}
        self._horizon = config.expiry_windows * config.window_ns
        # captured rows: not yet in a manifest, and in one by pkt_id
        self._pending: deque[tuple] = deque()
        self._held: dict[int, tuple] = {}
        self._expired_ids: set[int] = set()
        self._next_pkt_id = 0
        self.window_start = 0
        self.captured_total = 0
        self.released_total = 0
        self.released_bytes = 0
        self.expired_total = 0
        self.rejected_total = 0
        self.late_cleared_total = 0
        self.ledger = Ledger()
        backend.attach_sink(self)

    # -- capture ---------------------------------------------------------

    def capture(self, src: str, dst: str, payload: bytes) -> int | None:
        agent_of = self._agent_of
        src_agent = agent_of.get(src)
        dst_agent = agent_of.get(dst)
        if src_agent is None or dst_agent is None or src_agent == dst_agent or not payload:
            self.rejected_total += 1
            return None
        pkt_id = self._next_pkt_id
        self._next_pkt_id = pkt_id + 1
        self._pending.append((
            pkt_id, len(payload), src, dst, src_agent, dst_agent, self.window_start,
            bytes(payload),
        ))
        self.captured_total += 1
        return pkt_id

    def build_manifest(self, t: int) -> Sequence[tuple]:
        """The rows for window t: every packet captured before it, in
        capture order, moved to the held set."""
        # only packets captured before this window: a send during window t
        # must not ride the manifest for t, or its delay could undercut W
        pending = self._pending
        if pending and pending[-1][CAPTURED_AT] < t:
            batch = pending
            self._pending = deque()
        else:
            batch = []
            while pending and pending[0][CAPTURED_AT] < t:
                batch.append(pending.popleft())
        held = self._held
        for row in batch:
            held[row[0]] = row
        return batch

    # -- release ---------------------------------------------------------

    def release(self, t: int, cleared: Sequence[tuple[tuple, float]]) -> int:
        """Deliver the netsim's ``(row, ber)`` clearances for window t with
        their bit errors, and count those of packets already expired."""
        if not cleared:
            return 0
        held = self._held
        rng = self._rng
        deliver = self._backend.deliver
        rows = self.ledger._rows
        released = released_bytes = 0
        try:
            for row, ber in cleared:
                pkt_id = row[0]
                if held.pop(pkt_id, None) is None:
                    if pkt_id in self._expired_ids:
                        # the simulator finally served a packet we gave up
                        # on; nothing to deliver, but no protocol breach
                        self._expired_ids.discard(pkt_id)
                        self.late_cleared_total += 1
                        continue
                    raise ProtocolError(
                        f"simulator cleared pkt_id {pkt_id} that was never submitted"
                    )
                _, length, src, dst, _, _, captured_at, payload = row
                deliver(dst, apply_ber(payload, ber, rng))
                rows.append((pkt_id, src, dst, length, captured_at, t, ber))
                released += 1
                released_bytes += length
        finally:
            self.released_total += released
            self.released_bytes += released_bytes
        return released

    def _expire(self, t: int) -> None:
        # `_held` is in capture order (manifests move the pending FIFO in
        # order and only release removes from the middle), so the stale
        # packets are a prefix of it
        horizon = self._horizon
        stale = []
        for pkt_id, pkt in self._held.items():
            if t - pkt[CAPTURED_AT] <= horizon:
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
    ) -> list[tuple[tuple, float]]:
        """Run window t against `channel`, the physics snapshot taken at the
        end of window t-W (None in window zero: the links stay as they are).
        Returns the netsim's ``(row, ber)`` clearances for the window."""
        self.window_start = t
        if channel is not None:
            self._netsim.apply_channel(channel)
            if self._on_channel is not None:
                self._on_channel(t, channel)
        cleared = self._netsim.advance(t, window_ns, self.build_manifest(t))
        self.release(t, cleared)
        self._expire(t)
        if self._app_tick is not None:
            self._app_tick(t)
        return cleared

    def summary(self, stats: RunStats) -> NetRunSummary:
        return NetRunSummary(
            windows_completed=stats.windows_completed,
            captured_total=self.captured_total,
            released_total=self.released_total,
            released_bytes=self.released_bytes,
            expired_total=self.expired_total,
            rejected_total=self.rejected_total,
            late_cleared_total=self.late_cleared_total,
            held_at_end=self.held_count,
            pending_at_end=self.pending_count,
            ledger=self.ledger,
            stats=stats,
        )


def run_network_coordinator(
    config: NetCoordConfig,
    link: SocketLink,
    netsim: NetSim,
    backend,
    duration_ns: int,
    app_tick: Callable[[int], None] | None = None,
    on_channel: Callable[[int, wire.ChannelData], None] | None = None,
) -> NetRunSummary:
    """Drive the NETWORK_SIDE of the sync protocol for a fixed duration.

    Each window runs on the channel in the peer's previous END, which
    `wire.channel_of` decodes and checks in that window; the last END's
    blob, which no window applies, is never decoded.  This side's END is a
    bare marker.  Any failure, of the sync protocol, the simulator or the
    application, closes the link and propagates with the partial run
    attached as `exc.partial_summary`.
    """
    coordinator = NetworkCoordinator(config, netsim, backend, app_tick, on_channel)
    stats = RunStats()

    def simulate(t, peer_end):
        channel = None if peer_end is None else wire.channel_of(peer_end)
        coordinator.simulate(t, config.window_ns, channel)
        return NetworkUpdate(MsgType.END, t)

    try:
        run_lockstep(
            Role.NETWORK_SIDE, link, config.window_ns, duration_ns, simulate, stats
        )
    except Exception as exc:
        exc.partial_summary = coordinator.summary(stats)
        raise
    return coordinator.summary(stats)

