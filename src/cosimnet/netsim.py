"""Reference discrete-event network simulator.

Channel geometry arriving as ChannelData is reduced to per-link radio
state (path loss, SNR, MCS rate, BER) by a log-distance model with
wall-penetration terms.  Captured packets are serviced by a single
shared medium, one transmission at a time, FIFO by (enqueue window,
pkt_id) across all nodes; a packet whose link is down is skipped in
place and keeps waiting, it never blocks a later packet with a live
link.  Queued packets wait in one FIFO per directed agent link, each
kept in that key order, so the next transmission is the smallest head
among the links that are up.  The FIFOs' heads sit in a heap that lasts
across windows, and a transmission pops heads in the medium order until
one has a live link.  A pair's link is computed only when its head is
popped, so no link is computed that a scan of every head in order would
not need.  The channel is fixed within a window, so a head whose link is
down is set aside and goes back on the heap when the window ends.  Link
state is evaluated once at transmission start; a transmission spanning a
window boundary finishes under the conditions it started with.

The medium's busy horizon and the in-flight transmission persist across
windows, so advancing twice by W is equivalent to advancing once by 2W
when the channel does not change in between.

A packet is the network coordinator's row, which `advance` takes as it
comes, checked and with its agent ids resolved at capture (`NetSim`).  It
queues each row with its enqueue window and hands back the cleared rows
with their bit error rates; it builds no message.  The only checks left
here are the ones that need the simulator's own clock: a window behind it,
or of negative length.

A pair's link comes from its distance and its first path's hop losses
(`ChannelData.first_path_losses`), so a physics snapshot that defers its
pair columns answers for the pairs that carry packets and is never built
here.  A channel update that is the last one's snapshot object, as a
parked world hands back, keeps the link rows computed under it.
"""

from __future__ import annotations

import bisect
import heapq
import math
from collections import deque
from dataclasses import dataclass, fields
from enum import Enum
from typing import Mapping, Protocol, Sequence

from . import wire
from .wire import ChannelData

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


class MalformedManifestError(NetSimError):
    """A window's packets came for a window behind the simulator's clock,
    or of negative length."""


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
    """What the network coordinator needs from any network simulator.

    A packet is the coordinator's row, ``(pkt_id, length, src address, dst
    address, src agent, dst agent, ...)``; a simulator reads those six
    fields and hands the row back as it is.  `advance` takes the rows
    captured for the window, each checked at capture, with fresh
    increasing ids and known, distinct agents.  It returns ``(row, ber)``
    for each packet cleared in the window, in clearance order, with the
    bit error rate it saw on the air.
    """

    def apply_channel(self, cd: ChannelData) -> None: ...

    def advance(
        self, window_start: int, window_ns: int, packets: Sequence[tuple]
    ) -> list[tuple[tuple, float]]: ...


class ReferenceNetSim:
    """Single-collision-domain queueing simulator over the radio model.

    `address_map` ties agent ids to IPv4 addresses.  It is checked by
    `wire.checked_address_map` and otherwise unread: a packet row carries
    its agent ids, resolved by the coordinator at capture.  Until the first
    channel update every link is down and packets simply wait in their
    queues.

    A queued packet is ``(enqueued_at, row)``, so tuple order is the
    medium's (enqueued_at, pkt_id) order: ids are unique, so a comparison
    never reaches past a row's id, nor a heap entry past its head.
    """

    def __init__(
        self,
        params: RadioParams,
        address_map: Mapping[int, str],
        trace_events: bool = False,
    ):
        self.params = params
        wire.checked_address_map(address_map.items())
        self._budget = _link_budget(params)
        # the last channel update and its listed pairs (i < j) -> row
        self._channel: ChannelData | None = None
        self._rows: Mapping[tuple[int, int], int] = {}
        # (i, j), i < j -> (phy_rate, ber, distance, wall_loss, path_loss, snr),
        # for the rows computed so far
        self._links: dict[tuple[int, int], tuple] = {}
        # (src, dst) -> queued packets in order; no empty FIFOs
        self._fifos: dict[tuple[int, int], deque[tuple]] = {}
        # a heap of (head, (src, dst)), one entry per FIFO, on its head
        self._heads: list[tuple] = []
        self._depth: dict[int, int] = {}
        # (tx_end, ber, row) of the transmission on the air
        self._inflight: tuple | None = None
        self._busy_until = 0
        self._clock = 0
        self.dropped_total = 0
        self.dropped_ids: list[int] = []
        self.cleared_total = 0
        self.events: list[MediumEvent] | None = [] if trace_events else None

    # -- channel ---------------------------------------------------------

    def apply_channel(self, cd: ChannelData) -> None:
        """Take `cd` as the channel from now on.  Nothing is checked here
        (a snapshot that crossed the wire was checked by its decoder), and a
        pair's link is computed the first time it is asked for.  When `cd`
        is the last update's snapshot, as a parked world hands back, the
        rows computed for it are kept."""
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
        path_loss, snr)``.  Reading it computes every row not yet asked
        for; a row computed before, for this update or for an earlier one
        of the same snapshot, is the same object."""
        self._links = {pair: self._link(pair) for pair in self._rows}
        return self._links

    def link_state(self, a: int, b: int) -> LinkState | None:
        """Radio state of the unordered pair (a, b) under the last channel
        update, or None if that update did not list the pair.  Both orders
        give equal states, built from the pair's kept budget row."""
        pair = (a, b) if a < b else (b, a)
        budget = self._link(pair)
        return None if budget is None else _as_link_state(pair, budget)

    # -- event loop --------------------------------------------------------

    def advance(
        self, window_start: int, window_ns: int, packets: Sequence[tuple]
    ) -> list[tuple[tuple, float]]:
        """Queue `packets` for window [window_start, window_start +
        window_ns) and run the medium over it; return ``(row, ber)`` for
        each packet cleared, in clearance order (`NetSim`)."""
        if window_ns < 0:
            raise MalformedManifestError(f"window length must be >= 0, got {window_ns}")
        if window_start < self._clock:
            raise MalformedManifestError(
                f"window at {window_start} overlaps already-simulated time {self._clock}"
            )
        window_end = window_start + window_ns
        fifos = self._fifos
        depth = self._depth
        heads = self._heads
        heappush = heapq.heappush
        capacity = self.params.queue_capacity
        for row in packets:
            src = row[4]
            queued = depth.get(src, 0)
            if queued >= capacity:
                self.dropped_total += 1
                self.dropped_ids.append(row[0])
                continue
            entry = (window_start, row)
            key = (src, row[5])
            fifo = fifos.get(key)
            if fifo is None:
                fifos[key] = deque((entry,))
                heappush(heads, (entry, key))
            elif fifo[-1] > entry:
                # ids out of order within one window: keep the FIFO sorted,
                # and its heap entry on its head
                bisect.insort(fifo, entry)
                if fifo[0] is entry:
                    heads[heads.index((fifo[1], key))] = (entry, key)
                    heapq.heapify(heads)
            else:
                fifo.append(entry)
            depth[src] = queued + 1

        links = self._links
        events = self.events
        overhead = self.params.per_packet_overhead
        heappop = heapq.heappop
        inflight = self._inflight
        busy_until = self._busy_until
        cleared = []
        down = []  # heads whose link is down for the rest of the window
        while True:
            if inflight is not None:
                tx_end, ber, row = inflight
                if tx_end > window_end:
                    break
                inflight = None
                cleared.append((row, ber))
                if events is not None:
                    events.append(MediumEvent(tx_end, _TX_END, row[0], row[2], row[3]))
            tx_start = busy_until if busy_until > window_start else window_start
            if tx_start >= window_end:
                break
            # the smallest head whose link is up
            while heads:
                item = heappop(heads)
                head, key = item
                src, dst = key
                pair = key if src < dst else (dst, src)
                link = links.get(pair) or self._link(pair)
                if link is not None and link[0] is not None:
                    break
                down.append(item)
            else:  # no queued head has a live link this window
                break
            fifo = fifos[key]
            fifo.popleft()
            if fifo:
                heappush(heads, (fifo[0], key))
            else:
                del fifos[key]
            row = head[1]
            depth[row[4]] -= 1
            if events is not None:
                events.append(MediumEvent(tx_start, _TX_START, row[0], row[2], row[3]))
            busy_until = tx_start + overhead + round(row[1] * 8e9 / link[0])
            inflight = (busy_until, link[1], row)
        for item in down:
            heappush(heads, item)
        self._inflight = inflight
        self._busy_until = busy_until
        self._clock = window_end
        self.cleared_total += len(cleared)
        return cleared

    @property
    def queued_count(self) -> int:
        return sum(self._depth.values()) + (1 if self._inflight else 0)
