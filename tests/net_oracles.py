"""The network side's object path, kept as the oracle of the row path.

Before packets became plain rows, a captured packet was a frozen
`CapturedPacket`, the netsim queued a `_Queued` record per packet and kept a
`_InFlight` record on the air, and release appended a `DeliveryRecord` to a
list.  `ObjectNetSim` and `ObjectCoordinator` are that path over the same
radio model and link rows, speaking the netsim's row interface: the
coordinator builds each packet's row from its record when it hands the
window's packets over, and the netsim hands the row back, as it was, with
its BER.  `ObjectNetSim.apply_channel` also recomputes every row on every
update, where `ReferenceNetSim` keeps them across equal columns.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass

from cosimnet.net_coord import DeliveryRecord, NetworkCoordinator, apply_ber
from cosimnet.netsim import MediumEvent, MediumEventKind, ReferenceNetSim
from cosimnet.sync import ProtocolError


@dataclass(frozen=True)
class CapturedPacket:
    pkt_id: int
    payload: bytes
    src: str
    dst: str
    captured_at: int  # window start of the capture, ns


@dataclass
class _Queued:
    enqueued_at: int  # window start, ns
    pkt_id: int
    length: int
    src_agent: int
    dst_agent: int
    src_ip: str
    dst_ip: str
    row: tuple  # the row as handed in, handed back when cleared


def _key(entry: _Queued) -> tuple[int, int]:
    return entry.enqueued_at, entry.pkt_id


@dataclass
class _InFlight:
    entry: _Queued
    ber: float
    tx_start: int
    tx_end: int


class ObjectNetSim(ReferenceNetSim):
    """`ReferenceNetSim` with a record per queued and in-flight packet and
    fresh link rows on every update."""

    def apply_channel(self, cd):
        self._channel = cd
        self._rows = cd.pair_rows
        self._links = {}

    def advance(self, window_start, window_ns, packets):
        window_end = window_start + window_ns
        for row in packets:
            pkt_id, length, src_ip, dst_ip, src_agent, dst_agent = row[:6]
            if self._depth.get(src_agent, 0) >= self.params.queue_capacity:
                self.dropped_total += 1
                self.dropped_ids.append(pkt_id)
                continue
            entry = _Queued(
                window_start, pkt_id, length, src_agent, dst_agent, src_ip, dst_ip, row
            )
            fifo = self._fifos.setdefault((src_agent, dst_agent), deque())
            if fifo and _key(fifo[-1]) > _key(entry):
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
            src, dst = entry.src_agent, entry.dst_agent
            phy_rate, ber = self._links[(src, dst) if src < dst else (dst, src)][:2]
            service_ns = self.params.per_packet_overhead + int(
                round(entry.length * 8e9 / phy_rate)
            )
            fifo = self._fifos[(src, dst)]
            fifo.popleft()
            if not fifo:
                del self._fifos[(src, dst)]
            self._depth[src] -= 1
            self._trace(tx_start, MediumEventKind.TX_START, entry)
            self._inflight = _InFlight(entry, ber, tx_start, tx_start + service_ns)
            self._busy_until = tx_start + service_ns
        self._clock = window_end
        return [(f.entry.row, f.ber) for f in cleared]

    def _next_eligible(self):
        best = None
        links = self._links
        for (src, dst), fifo in self._fifos.items():
            head = fifo[0]
            if best is not None and _key(head) > _key(best):
                continue
            pair = (src, dst) if src < dst else (dst, src)
            link = links.get(pair) or self._link(pair)
            if link is None or link[0] is None:
                continue
            best = head
        return best

    def _trace(self, time, kind, entry):
        if self.events is not None:
            self.events.append(
                MediumEvent(time, kind, entry.pkt_id, entry.src_ip, entry.dst_ip)
            )


class ObjectCoordinator(NetworkCoordinator):
    """`NetworkCoordinator` with a `CapturedPacket` per capture, a row built
    from it for the netsim, and a list of `DeliveryRecord`s for its ledger."""

    def __init__(self, config, netsim, backend, app_tick=None, on_channel=None):
        super().__init__(config, netsim, backend, app_tick, on_channel)
        self._addresses = set(config.addresses)
        self._agent = {ip: agent for agent, ip in config.agent_address_map}
        self.ledger = []

    def capture(self, src, dst, payload):
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

    def build_manifest(self, t):
        batch = []
        while self._pending and self._pending[0].captured_at < t:
            batch.append(self._pending.popleft())
        for pkt in batch:
            self._held[pkt.pkt_id] = pkt
        return [
            (
                p.pkt_id, len(p.payload), p.src, p.dst, self._agent[p.src], self._agent[p.dst],
                p.captured_at, p.payload,
            )
            for p in batch
        ]

    def release(self, t, cleared):
        released = 0
        for row, ber in cleared:
            pkt_id = row[0]
            pkt = self._held.pop(pkt_id, None)
            if pkt is None:
                if pkt_id in self._expired_ids:
                    self._expired_ids.discard(pkt_id)
                    self.late_cleared_total += 1
                    continue
                raise ProtocolError(
                    f"simulator cleared pkt_id {pkt_id} that was never submitted"
                )
            assert row[:4] == (pkt_id, len(pkt.payload), pkt.src, pkt.dst), row
            payload = apply_ber(pkt.payload, ber, self._rng)
            self._backend.deliver(pkt.dst, payload)
            self.ledger.append(
                DeliveryRecord(
                    pkt_id, pkt.src, pkt.dst, len(pkt.payload),
                    pkt.captured_at, t, ber,
                )
            )
            self.released_total += 1
            self.released_bytes += len(pkt.payload)
            released += 1
        return released

    def _expire(self, t):
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
