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

A packet is one plain tuple in the medium, queued and on the air, and the
END lists the cleared ones' columns.  Who checks a manifest: one that a
`net_coord.NetworkCoordinator` built carries its packets' agent ids,
resolved at capture, and the address map they came from.  When that map
is the simulator's own, decided once per map, `advance` checks only the
window (a BEGIN for this window start, not behind the clock) and queues
the packets under those ids.  Every other manifest gets the wire's
structural check and then the checks that need the simulator's state:
ids already submitted, empty payloads, map membership and self-addressed
packets.

A pair's link comes from its distance and its first path's hop losses
(`ChannelData.first_path_losses`), so a physics snapshot that defers its
pair columns answers for the pairs that carry packets and is never built
here.  A channel update that is the last one's snapshot object, as a
parked world hands back, keeps the link rows computed under it.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from itertools import repeat
from typing import Mapping, Protocol

from . import wire
from .wire import ChannelData, MsgType, NetworkUpdate

# Clamp floor for the BER model.  An exactly-zero base rate stays zero so
# corruption-free runs are expressible; otherwise the floor keeps the
# model away from denormals and log-scale plots finite.
BER_FLOOR = 1e-9
BER_CEILING = 0.5

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
        # json.loads reads NaN and Infinity, and no later check catches them all
        named = [(f.name, getattr(self, f.name)) for f in fields(self) if f.name != "mcs_table"]
        named += [(f"mcs_table[{i}]", v) for i, row in enumerate(self.mcs_table) for v in row]
        for name, value in named:
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
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


_TX_START = MediumEventKind.TX_START
_TX_END = MediumEventKind.TX_END


@dataclass(frozen=True)
class MediumEvent:
    time: int
    kind: MediumEventKind
    pkt_id: int
    src: str
    dst: str


def _link_budget(params: RadioParams):
    """The radio model of `params` as a function of one pair's distance and
    wall loss, with the constants read once.

    It returns ``(phy_rate, ber, distance, wall_loss, path_loss, snr)``.
    Every value comes from the same float operations in the same order as
    the plain formulas, so it is bit-identical to them: ``max`` is written
    as the comparison ``max`` makes, and the MCS is the last threshold at
    or below the SNR.  Distances inside the reference distance saturate at
    pl0: the model has no near-field behaviour.
    """
    ref = params.ref_distance
    pl0 = params.pl0
    slope = 10.0 * params.path_loss_exponent
    tx_power = params.tx_power
    noise_floor = params.noise_floor
    thresholds = tuple(t for t, _ in params.mcs_table)
    rates = tuple(r for _, r in params.mcs_table)
    lowest = thresholds[0]
    ber_at_threshold = params.ber_at_threshold
    decade = params.ber_decade_per_db
    log10 = math.log10
    bisect_right = bisect.bisect_right

    def budget(distance: float, wall_loss: float) -> tuple:
        d = ref if ref > distance else distance
        path_loss = pl0 + slope * log10(d / ref) + wall_loss
        snr = tx_power - path_loss - noise_floor
        if not snr >= lowest:  # a NaN SNR is down too
            return None, BER_CEILING, distance, wall_loss, path_loss, snr
        k = bisect_right(thresholds, snr) - 1
        raw = ber_at_threshold * 10.0 ** (-(snr - thresholds[k]) / decade)
        if raw == 0.0:
            ber = 0.0
        elif BER_FLOOR > raw:
            ber = BER_FLOOR
        elif raw > BER_CEILING:
            ber = BER_CEILING
        else:
            ber = raw
        return rates[k], ber, distance, wall_loss, path_loss, snr

    return budget


def _as_link_state(pair: tuple[int, int], budget: tuple) -> LinkState:
    rate, ber, distance, wall_loss, path_loss, snr = budget
    return LinkState(pair, distance, wall_loss, path_loss, snr, rate, ber)


class NetSim(Protocol):
    """What the network coordinator needs from any network simulator."""

    def apply_channel(self, cd: ChannelData) -> None: ...

    def advance(
        self, window_start: int, window_ns: int, manifest: NetworkUpdate
    ) -> NetworkUpdate: ...


class ReferenceNetSim:
    """Single-collision-domain queueing simulator over the radio model.

    `address_map` ties agent ids to the IPv4 addresses used in manifests;
    `wire.checked_address_map` checks it once here, so a manifest address
    that is in the map is a valid IPv4 string.  A manifest's structure is
    checked by `wire.validate_network_update`; the simulator adds only the
    checks that need its own state.  A manifest that a `NetworkCoordinator`
    built carries its packets' agent ids; if the coordinator's address map
    is this simulator's, decided once per map, the simulator takes the ids
    as they are and checks only the window.  Until the first channel update
    every link is down and packets simply wait in their queues.

    A queued packet is one tuple, ``(enqueued_at, pkt_id, length, src
    agent, dst agent, src_ip, dst_ip)``, so tuple order is the medium's
    (enqueued_at, pkt_id) order: a submitted id is never submitted again.
    """

    def __init__(
        self,
        params: RadioParams,
        address_map: Mapping[int, str],
        trace_events: bool = False,
    ):
        self.params = params
        self._agent_of_ip: dict[str, int] = {
            ip: agent_id for agent_id, ip in wire.checked_address_map(address_map.items())
        }
        # the last address map a coordinator's mark named, and whether it
        # is this simulator's
        self._mark_map: tuple | None = None
        self._mark_trusted = False
        self._budget = _link_budget(params)
        # the last channel update and its listed pairs (i < j) -> row
        self._channel: ChannelData | None = None
        self._rows: Mapping[tuple[int, int], int] = {}
        # (i, j), i < j -> (phy_rate, ber, distance, wall_loss, path_loss, snr),
        # for the rows computed so far
        self._links: dict[tuple[int, int], tuple] = {}
        # LinkState objects handed out since the last channel update
        self._states: dict[tuple[int, int], LinkState] = {}
        # (src, dst) -> queued packets in order; no empty FIFOs
        self._fifos: dict[tuple[int, int], deque[tuple]] = {}
        self._depth: dict[int, int] = {}
        # (tx_end, ber, queued packet) of the transmission on the air
        self._inflight: tuple | None = None
        self._busy_until = 0
        self._clock = 0
        self._seen_ids: set[int] = set()
        self.dropped_total = 0
        self.dropped_ids: list[int] = []
        self.cleared_total = 0
        self.events: list[MediumEvent] | None = [] if trace_events else None

    # -- channel ---------------------------------------------------------

    def apply_channel(self, cd: ChannelData) -> None:
        """Take `cd` as the channel from now on.  Only its check runs here,
        and only if `cd` has not passed it (a decoded snapshot and a physics
        simulator's have): a pair's link is computed the first time it is
        asked for.  When `cd` is the last update's snapshot, as a parked
        world hands back, the rows computed for it are kept.  `link_state`
        objects are not kept."""
        try:
            wire.validate_channel_data(cd)
        except wire.InvariantViolation as exc:
            raise MalformedChannelError(str(exc)) from exc
        self._states = {}
        if cd is self._channel:
            return
        self._channel = cd
        self._rows = cd.pair_rows
        self._links = {}

    def _link(self, pair: tuple[int, int]) -> tuple | None:
        """The budget tuple of the ordered pair (i < j) under the last
        channel update, computed on first use; None if it is not listed."""
        link = self._links.get(pair)
        if link is None:
            k = self._rows.get(pair)
            if k is None:
                return None
            cd = self._channel
            # the first path's walls, summed left to right as `sum` does: no
            # walls at all sum to the int 0
            losses = cd.first_path_losses(k)
            wall_loss = 0.0 if losses is None else sum(losses)
            i, j = pair  # the distance is the same in either order
            link = self._links[pair] = self._budget(
                math.dist(cd.poses[i][:3], cd.poses[j][:3]), wall_loss
            )
        return link

    @property
    def link_table(self) -> Mapping[tuple[int, int], tuple]:
        """The last channel update's links, in the order it listed them:
        ordered pair (i < j) -> ``(phy_rate, ber, distance, wall_loss,
        path_loss, snr)``.  The update rejects a pair listed twice, so the
        table has one row per listed pair.  Reading it computes every row
        not yet asked for; a row computed before, for this update or for
        an earlier one of the same snapshot, is the same object."""
        self._links = {pair: self._link(pair) for pair in self._rows}
        return self._links

    def link_state(self, a: int, b: int) -> LinkState | None:
        """Radio state of the unordered pair (a, b) under the last channel
        update, or None if that update did not list the pair.  Both orders
        give the same object until the next update."""
        pair = (a, b) if a < b else (b, a)
        state = self._states.get(pair)
        if state is None:
            budget = self._link(pair)
            if budget is None:
                return None
            state = self._states[pair] = _as_link_state(pair, budget)
        return state

    # -- event loop --------------------------------------------------------

    def advance(
        self, window_start: int, window_ns: int, manifest: NetworkUpdate
    ) -> NetworkUpdate:
        mark = getattr(manifest, "_agents", None)
        if mark is not None and self._trusts(mark[0]):
            self._check_window(manifest, window_start, window_ns)
            src_agents, dst_agents = mark[1], mark[2]
        else:
            src_agents, dst_agents = self._validate_manifest(manifest, window_start, window_ns)
        window_end = window_start + window_ns
        fifos = self._fifos
        depth = self._depth
        ids = manifest.pkt_id
        if ids:
            self._seen_ids.update(ids)
            capacity = self.params.queue_capacity
            for entry in zip(
                repeat(window_start), ids, manifest.pkt_lengths, src_agents, dst_agents,
                manifest.src_ip, manifest.dst_ip,
            ):
                src = entry[3]
                queued = depth.get(src, 0)
                if queued >= capacity:
                    self.dropped_total += 1
                    self.dropped_ids.append(entry[1])
                    continue
                key = (src, entry[4])
                fifo = fifos.get(key)
                if fifo is None:
                    fifos[key] = deque((entry,))
                elif fifo[-1] > entry:
                    # ids out of order within one window: keep the FIFO sorted
                    bisect.insort(fifo, entry)
                else:
                    fifo.append(entry)
                depth[src] = queued + 1

        links = self._links
        events = self.events
        overhead = self.params.per_packet_overhead
        inflight = self._inflight
        busy_until = self._busy_until
        cleared = []
        bers = []
        while True:
            if inflight is not None:
                tx_end, ber, entry = inflight
                if tx_end > window_end:
                    break
                inflight = None
                cleared.append(entry)
                bers.append(ber)
                if events is not None:
                    events.append(MediumEvent(tx_end, _TX_END, entry[1], entry[5], entry[6]))
            tx_start = busy_until if busy_until > window_start else window_start
            if tx_start >= window_end:
                break
            # the smallest head among the FIFOs whose link is up
            best = None
            for key, fifo in fifos.items():
                head = fifo[0]
                if best is not None and head > best:
                    continue
                src, dst = key
                pair = key if src < dst else (dst, src)
                link = links.get(pair) or self._link(pair)
                if link is None or link[0] is None:
                    continue
                best, best_key, best_link = head, key, link
            if best is None:
                break
            fifo = fifos[best_key]
            fifo.popleft()
            if not fifo:
                del fifos[best_key]
            depth[best[3]] -= 1
            if events is not None:
                events.append(MediumEvent(tx_start, _TX_START, best[1], best[5], best[6]))
            busy_until = tx_start + overhead + round(best[2] * 8e9 / best_link[0])
            inflight = (busy_until, best_link[1], best)
        self._inflight = inflight
        self._busy_until = busy_until
        self._clock = window_end

        if not cleared:
            return NetworkUpdate(MsgType.END, window_start)
        self.cleared_total += len(cleared)
        _, clear_ids, _, _, _, src_ips, dst_ips = zip(*cleared)
        return NetworkUpdate(
            MsgType.END, window_start, (), (), (), (), clear_ids, src_ips, dst_ips, tuple(bers)
        )

    @property
    def queued_count(self) -> int:
        return sum(self._depth.values()) + (1 if self._inflight else 0)

    def _trusts(self, address_map: tuple) -> bool:
        """Whether agent ids resolved over `address_map`, a coordinator's
        checked map, are this simulator's.  Decided once per map object."""
        if address_map is not self._mark_map:
            self._mark_map = address_map
            self._mark_trusted = {ip: a for a, ip in address_map} == self._agent_of_ip
        return self._mark_trusted

    def _check_window(
        self, manifest: NetworkUpdate, window_start: int, window_ns: int
    ) -> None:
        """The checks of a manifest that need this simulator's clock."""
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

    def _validate_manifest(
        self, manifest: NetworkUpdate, window_start: int, window_ns: int
    ) -> tuple[list[int], list[int]]:
        """Raise MalformedManifestError unless `manifest` is a well-formed
        BEGIN for this window; return its packets' src and dst agents."""
        if not isinstance(manifest, NetworkUpdate):
            raise MalformedManifestError(f"manifest must be a NetworkUpdate, got {manifest!r}")
        self._check_window(manifest, window_start, window_ns)
        if manifest.clear_pkt_id or manifest.clear_src_ip or manifest.clear_dst_ip or manifest.ber:
            raise MalformedManifestError("manifest must not carry clearance fields")
        # the manifest's structure (aligned lists, u64/u32 ranges, unique
        # ids) is the wire check's; what follows needs this simulator's
        # state.  Map membership implies a valid IPv4 string.
        try:
            wire.validate_network_update(manifest)
        except wire.InvariantViolation as exc:
            raise MalformedManifestError(str(exc)) from exc
        seen = self._seen_ids
        agent_of_ip = self._agent_of_ip
        src_agents, dst_agents = [], []
        for pkt_id, length, src_ip, dst_ip in zip(
            manifest.pkt_id, manifest.pkt_lengths, manifest.src_ip, manifest.dst_ip
        ):
            if pkt_id in seen:
                raise MalformedManifestError(f"pkt_id {pkt_id} was already submitted")
            if length < 1:
                raise MalformedManifestError(f"pkt_id {pkt_id} has empty payload")
            src = agent_of_ip.get(src_ip)
            dst = agent_of_ip.get(dst_ip)
            if src is None or dst is None:
                ip = src_ip if src is None else dst_ip
                raise MalformedManifestError(f"address {ip} is not a configured agent")
            if src == dst:
                raise MalformedManifestError(f"pkt_id {pkt_id} is self-addressed")
            src_agents.append(src)
            dst_agents.append(dst)
        return src_agents, dst_agents

