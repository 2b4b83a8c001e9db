"""Reference discrete-event network simulator.

Channel geometry arriving as ChannelData is reduced to per-link radio
state (path loss, SNR, MCS rate, BER) by a log-distance model with
wall-penetration terms.  Captured packets are serviced by a single
shared medium, one transmission at a time, FIFO by (enqueue window,
pkt_id) across all nodes; a packet whose link is down is skipped in
place and keeps waiting, it never blocks a later packet with a live
link.  Queued packets wait in one FIFO per directed agent link, each
kept in that key order, so the next transmission is the smallest head
among the links that are up.  Link state is evaluated once at
transmission start; a transmission spanning a window boundary finishes
under the conditions it started with.

The medium's busy horizon and the in-flight transmission persist across
windows, so advancing twice by W is equivalent to advancing once by 2W
when the channel does not change in between.
"""

from __future__ import annotations

import bisect
import ipaddress
import math
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Protocol

from . import wire
from .sync import PeerLink, ProtocolError, TransportError
from .wire import ChannelData, MsgType, NetworkUpdate, PhysicsUpdate

# Clamp floor for the BER model.  An exactly-zero base rate stays zero so
# corruption-free runs are expressible; otherwise the floor keeps the
# model away from denormals and log-scale plots finite.
BER_FLOOR = 1e-9
BER_CEILING = 0.5

_U32 = 2**32
_U64 = 2**64

DEFAULT_MCS_TABLE = (
    (5.0, 6.5e6),
    (8.0, 13.0e6),
    (11.0, 19.5e6),
    (14.0, 26.0e6),
    (17.0, 39.0e6),
    (20.0, 52.0e6),
    (23.0, 58.5e6),
    (26.0, 65.0e6),
)


class NetSimError(Exception):
    """Base for simulator rejections."""


class MalformedChannelError(NetSimError):
    """Channel update references missing nodes or violates wire invariants."""


class MalformedManifestError(NetSimError):
    """Manifest is not a well-formed BEGIN for the current window."""


@dataclass(frozen=True)
class RadioParams:
    """Radio stack configuration; defaults sketch an 802.11n-like link."""

    tx_power: float = 20.0            # dBm
    noise_floor: float = -90.0        # dBm
    pl0: float = 40.0                 # dB at ref_distance
    ref_distance: float = 1.0         # m
    path_loss_exponent: float = 2.4
    per_packet_overhead: int = 200_000  # ns
    mcs_table: tuple[tuple[float, float], ...] = DEFAULT_MCS_TABLE
    ber_at_threshold: float = 1e-2
    ber_decade_per_db: float = 3.0
    queue_capacity: int = 100

    def __post_init__(self):
        object.__setattr__(
            self,
            "mcs_table",
            tuple((float(t), float(r)) for t, r in self.mcs_table),
        )
        if not self.mcs_table:
            raise ValueError("mcs_table must not be empty")
        thresholds = [t for t, _ in self.mcs_table]
        rates = [r for _, r in self.mcs_table]
        if thresholds != sorted(set(thresholds)):
            raise ValueError("mcs_table thresholds must be strictly increasing")
        if rates != sorted(set(rates)):
            raise ValueError("mcs_table rates must be strictly increasing")
        if rates[0] <= 0:
            raise ValueError("mcs_table rates must be > 0")
        if self.ref_distance <= 0:
            raise ValueError(f"ref_distance must be > 0, got {self.ref_distance}")
        if self.per_packet_overhead < 0:
            raise ValueError("per_packet_overhead must be >= 0")
        if not 0.0 <= self.ber_at_threshold <= BER_CEILING:
            raise ValueError(
                f"ber_at_threshold must be in [0, {BER_CEILING}], "
                f"got {self.ber_at_threshold}"
            )
        if self.ber_decade_per_db <= 0:
            raise ValueError("ber_decade_per_db must be > 0")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")


@dataclass(frozen=True)
class LinkState:
    """Radio state of one unordered agent pair.  phy_rate None means the
    link is down (SNR below the lowest MCS threshold)."""

    pair: tuple[int, int]
    distance: float
    wall_loss: float
    path_loss: float
    snr: float
    phy_rate: float | None
    ber: float

    @property
    def is_down(self) -> bool:
        return self.phy_rate is None


class MediumEventKind(Enum):
    TX_START = "tx_start"
    TX_END = "tx_end"


@dataclass(frozen=True)
class MediumEvent:
    time: int
    kind: MediumEventKind
    pkt_id: int
    src: str
    dst: str


def compute_link_state(
    params: RadioParams, pair: tuple[int, int], distance: float, wall_loss: float
) -> LinkState:
    """Log-distance path loss plus wall terms, then MCS and BER selection.

    Distances inside the reference distance saturate at pl0: the model has
    no near-field behaviour.
    """
    d = max(distance, params.ref_distance)
    path_loss = (
        params.pl0
        + 10.0 * params.path_loss_exponent * math.log10(d / params.ref_distance)
        + wall_loss
    )
    snr = params.tx_power - path_loss - params.noise_floor
    selected = None
    for threshold, rate in params.mcs_table:
        if snr >= threshold:
            selected = (threshold, rate)
        else:
            break
    if selected is None:
        return LinkState(pair, distance, wall_loss, path_loss, snr, None, BER_CEILING)
    threshold, rate = selected
    raw = params.ber_at_threshold * 10.0 ** (-(snr - threshold) / params.ber_decade_per_db)
    ber = 0.0 if raw == 0.0 else min(max(raw, BER_FLOOR), BER_CEILING)
    return LinkState(pair, distance, wall_loss, path_loss, snr, rate, ber)


@dataclass
class _Queued:
    enqueued_at: int  # window start, ns
    pkt_id: int
    length: int
    src_agent: int
    dst_agent: int
    src_ip: str
    dst_ip: str


def _key(entry: _Queued) -> tuple[int, int]:
    return entry.enqueued_at, entry.pkt_id


@dataclass
class _InFlight:
    entry: _Queued
    ber: float
    tx_start: int
    tx_end: int


class NetSim(Protocol):
    """What the network coordinator needs from any network simulator."""

    def apply_channel(self, cd: ChannelData) -> None: ...

    def advance(
        self, window_start: int, window_ns: int, manifest: NetworkUpdate
    ) -> NetworkUpdate: ...


class ReferenceNetSim:
    """Single-collision-domain queueing simulator over the radio model.

    `address_map` ties agent ids to the IPv4 addresses used in manifests;
    it is checked once here, so a manifest address that is in the map is
    a valid IPv4 string.  Until the first channel update every link is
    down and packets simply wait in their queues.
    """

    def __init__(
        self,
        params: RadioParams,
        address_map: Mapping[int, str],
        trace_events: bool = False,
    ):
        self.params = params
        self._agent_of_ip: dict[str, int] = {}
        for agent_id, ip in address_map.items():
            ip = str(ip)
            try:
                ipaddress.IPv4Address(ip)
            except ValueError:
                raise ValueError(f"bad IPv4 address {ip!r} in address_map") from None
            if ip in self._agent_of_ip:
                raise ValueError(f"address {ip} mapped to two agents")
            self._agent_of_ip[ip] = int(agent_id)
        self._links: dict[tuple[int, int], LinkState] = {}
        # (src, dst) -> packets in (enqueued_at, pkt_id) order; no empty FIFOs
        self._fifos: dict[tuple[int, int], deque[_Queued]] = {}
        self._depth: dict[int, int] = {}
        self._inflight: _InFlight | None = None
        self._busy_until = 0
        self._clock = 0
        self._seen_ids: set[int] = set()
        self.dropped_total = 0
        self.dropped_ids: list[int] = []
        self.cleared_total = 0
        self.events: list[MediumEvent] | None = [] if trace_events else None

    # -- channel ---------------------------------------------------------

    def apply_channel(self, cd: ChannelData) -> None:
        try:
            wire.validate_channel_data(cd)
        except wire.InvariantViolation as exc:
            raise MalformedChannelError(str(exc)) from exc
        positions = [pose.position for pose in cd.node_list]
        links: dict[tuple[int, int], LinkState] = {}
        for pd in cd.path_details:
            i, j = pd.ids
            distance = math.dist(positions[i], positions[j])
            if pd.los:
                wall_loss = 0.0
            else:
                first_path_hops = pd.num_hops[0] if pd.num_hops else 0
                wall_loss = sum(h[3] for h in pd.hop_points[:first_path_hops])
            links[(i, j)] = compute_link_state(self.params, (i, j), distance, wall_loss)
        self._links = links

    def link_state(self, a: int, b: int) -> LinkState | None:
        return self._links.get((min(a, b), max(a, b)))

    # -- event loop --------------------------------------------------------

    def advance(
        self, window_start: int, window_ns: int, manifest: NetworkUpdate
    ) -> NetworkUpdate:
        self._validate_manifest(manifest, window_start, window_ns)
        window_end = window_start + window_ns
        for pkt_id, length, src_ip, dst_ip in zip(
            manifest.pkt_id, manifest.pkt_lengths, manifest.src_ip, manifest.dst_ip
        ):
            self._seen_ids.add(pkt_id)
            src_agent = self._agent_of_ip[src_ip]
            dst_agent = self._agent_of_ip[dst_ip]
            if self._depth.get(src_agent, 0) >= self.params.queue_capacity:
                self.dropped_total += 1
                self.dropped_ids.append(pkt_id)
                continue
            entry = _Queued(window_start, pkt_id, length, src_agent, dst_agent, src_ip, dst_ip)
            fifo = self._fifos.setdefault((src_agent, dst_agent), deque())
            if fifo and _key(fifo[-1]) > _key(entry):
                # ids out of order within one window: keep the FIFO sorted
                fifo.insert(bisect.bisect(fifo, _key(entry), key=_key), entry)
            else:
                fifo.append(entry)
            self._depth[src_agent] = self._depth.get(src_agent, 0) + 1

        cleared: list[_InFlight] = []
        while True:
            if self._inflight is not None:
                if self._inflight.tx_end <= window_end:
                    done = self._inflight
                    self._inflight = None
                    cleared.append(done)
                    self.cleared_total += 1
                    self._trace(done.tx_end, MediumEventKind.TX_END, done.entry)
                else:
                    break
            tx_start = max(self._busy_until, window_start)
            if tx_start >= window_end:
                break
            entry = self._next_eligible()
            if entry is None:
                break
            link = self.link_state(entry.src_agent, entry.dst_agent)
            service_ns = self.params.per_packet_overhead + int(
                round(entry.length * 8e9 / link.phy_rate)
            )
            fifo = self._fifos[(entry.src_agent, entry.dst_agent)]
            fifo.popleft()
            if not fifo:
                del self._fifos[(entry.src_agent, entry.dst_agent)]
            self._depth[entry.src_agent] -= 1
            self._trace(tx_start, MediumEventKind.TX_START, entry)
            self._inflight = _InFlight(entry, link.ber, tx_start, tx_start + service_ns)
            self._busy_until = tx_start + service_ns
        self._clock = window_end

        return NetworkUpdate(
            MsgType.END,
            window_start,
            clear_pkt_id=tuple(f.entry.pkt_id for f in cleared),
            clear_src_ip=tuple(f.entry.src_ip for f in cleared),
            clear_dst_ip=tuple(f.entry.dst_ip for f in cleared),
            ber=tuple(f.ber for f in cleared),
        )

    @property
    def queued_count(self) -> int:
        return sum(self._depth.values()) + (1 if self._inflight else 0)

    def _next_eligible(self) -> _Queued | None:
        """The smallest (enqueued_at, pkt_id) among the heads of the FIFOs
        whose link is up."""
        best = None
        for (src, dst), fifo in self._fifos.items():
            head = fifo[0]
            if best is not None and _key(head) > _key(best):
                continue
            link = self._links.get((src, dst) if src < dst else (dst, src))
            if link is None or link.is_down:
                continue
            best = head
        return best

    def _trace(self, time: int, kind: MediumEventKind, entry: _Queued) -> None:
        if self.events is not None:
            self.events.append(
                MediumEvent(time, kind, entry.pkt_id, entry.src_ip, entry.dst_ip)
            )

    def _validate_manifest(
        self, manifest: NetworkUpdate, window_start: int, window_ns: int
    ) -> None:
        if not isinstance(manifest, NetworkUpdate):
            raise MalformedManifestError(f"manifest must be a NetworkUpdate, got {manifest!r}")
        if manifest.msg_type is not MsgType.BEGIN:
            raise MalformedManifestError("manifest must be a BEGIN message")
        if manifest.time_val != window_start:
            raise MalformedManifestError(
                f"manifest is for t={manifest.time_val}, window starts at {window_start}"
            )
        if window_ns < 0:
            raise MalformedManifestError(f"window length must be >= 0, got {window_ns}")
        if window_start < self._clock:
            raise MalformedManifestError(
                f"window at {window_start} overlaps already-simulated time {self._clock}"
            )
        if manifest.clear_pkt_id or manifest.clear_src_ip or manifest.clear_dst_ip or manifest.ber:
            raise MalformedManifestError("manifest must not carry clearance fields")
        # the wire decoder is the trust boundary for manifests from outside;
        # this loop adds only what `wire.validate_network_update` checks
        # beyond it.  Map membership implies a valid IPv4 string.
        ids = manifest.pkt_id
        if not len(ids) == len(manifest.pkt_lengths) == len(manifest.src_ip) == len(manifest.dst_ip):
            raise MalformedManifestError("manifest lists must share one length")
        if not 0 <= manifest.time_val < _U64:
            raise MalformedManifestError(f"time {manifest.time_val} out of u64 range")
        if len(set(ids)) != len(ids):
            raise MalformedManifestError("duplicate packet id in manifest")
        agent_of_ip = self._agent_of_ip
        for pkt_id, length, src_ip, dst_ip in zip(
            ids, manifest.pkt_lengths, manifest.src_ip, manifest.dst_ip
        ):
            if not 0 <= pkt_id < _U64:
                raise MalformedManifestError(f"pkt_id {pkt_id} out of u64 range")
            if pkt_id in self._seen_ids:
                raise MalformedManifestError(f"pkt_id {pkt_id} was already submitted")
            if length < 1:
                raise MalformedManifestError(f"pkt_id {pkt_id} has empty payload")
            if length >= _U32:
                raise MalformedManifestError(f"pkt_id {pkt_id} length {length} out of u32 range")
            for ip in (src_ip, dst_ip):
                if ip not in agent_of_ip:
                    raise MalformedManifestError(f"address {ip} is not a configured agent")
            if agent_of_ip[src_ip] == agent_of_ip[dst_ip]:
                raise MalformedManifestError(f"pkt_id {pkt_id} is self-addressed")


class SocketNetSim:
    """Client half of the external network-simulator protocol.

    Channel updates travel as PhysicsUpdate frames carrying compressed
    channel data; each advance forwards the manifest BEGIN and expects the
    END reply.  The window length is fixed when the server starts, so
    `advance` must always be called with that same length.
    """

    def __init__(self, link: PeerLink, window_ns: int):
        self._link = link
        self._window_ns = window_ns

    def apply_channel(self, cd: ChannelData) -> None:
        blob = wire.compress_channel_blob(wire.encode_channel_data(cd))
        self._link.send(PhysicsUpdate(MsgType.BEGIN, 0, blob))

    def advance(
        self, window_start: int, window_ns: int, manifest: NetworkUpdate
    ) -> NetworkUpdate:
        if window_ns != self._window_ns:
            raise ProtocolError(
                f"external simulator serves {self._window_ns} ns windows, "
                f"advance asked for {window_ns}"
            )
        self._link.send(manifest)
        reply = self._link.recv()
        if not isinstance(reply, NetworkUpdate) or reply.msg_type is not MsgType.END:
            raise ProtocolError(f"expected clearance END, got {reply!r}")
        if reply.time_val != window_start:
            raise ProtocolError(
                f"clearance is for t={reply.time_val}, expected {window_start}"
            )
        return reply

    def close(self) -> None:
        self._link.close()


def serve_netsim_link(link: PeerLink, sim: NetSim, window_ns: int) -> int:
    """Expose a simulator to a remote SocketNetSim until the peer
    disconnects.  Returns the number of windows served."""
    windows = 0
    while True:
        try:
            msg = link.recv()
        except TransportError:
            return windows
        if isinstance(msg, PhysicsUpdate):
            if msg.channel_data:
                cd = wire.decode_channel_data(
                    wire.decompress_channel_blob(msg.channel_data)
                )
                sim.apply_channel(cd)
        elif isinstance(msg, NetworkUpdate) and msg.msg_type is MsgType.BEGIN:
            link.send(sim.advance(msg.time_val, window_ns, msg))
            windows += 1
        else:
            raise ProtocolError(f"unexpected message {msg!r}")
