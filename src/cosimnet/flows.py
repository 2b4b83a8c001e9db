"""Application traffic for the co-simulation: greedy ARQ data flows.

A flow pushes fixed-size data packets from one address to another as
fast as its retransmission window allows.  The receiver delivers every
packet whose CRC-32 verifies (corrupted ones are dropped silently),
deduplicates by sequence number, and answers each arrival with a small
cumulative acknowledgment carrying the next in-order sequence it is
waiting for.  The sender clears everything below that mark and
retransmits any packet that stays unacknowledged past the timeout, so
one corrupted packet shows up as a burst of duplicate traffic and a
bubble in goodput rather than a protocol failure.  Like a real ARQ send
buffer, the sender keeps each unacknowledged packet's bytes from its
first send and retransmits those, encoding a seq only once.

Packets are raw bytes on the capture backend:

    data: kind u8 | flow u8 | seq u64 | crc u32 | body
    ack:  same header with the cumulative mark in the seq field,
          padded to ACK_SIZE

Flows never touch the clock or the simulators; `FlowHost.tick` runs once
per window from the network coordinator's app hook, which keeps runs
deterministic.
"""

from __future__ import annotations

import struct
import zlib
from typing import NamedTuple

from .wire import Record

DATA_KIND = 1
ACK_KIND = 2
DATA_HEADER = 14  # kind + flow id + seq + crc
ACK_SIZE = 32
MAX_FLOWS = 256  # a flow id is one byte

_HEAD = struct.Struct("<BBQI")
_KEY = struct.Struct("<BBQ")  # the header up to the crc, which the crc covers
_FILLER = bytes(range(256)) * 40  # sliced per seq for varied bodies


def _packet(kind: int, flow_id: int, seq: int, body: bytes) -> bytes:
    # the crc runs over the key, then on over the body: the crc of their
    # concatenation, without building it
    crc = zlib.crc32(body, zlib.crc32(_KEY.pack(kind, flow_id, seq)))
    return _HEAD.pack(kind, flow_id, seq, crc) + body


def encode_data(flow_id: int, seq: int, payload_size: int) -> bytes:
    offset = seq % 256
    return _packet(
        DATA_KIND, flow_id, seq, _FILLER[offset : offset + payload_size - DATA_HEADER]
    )


def encode_ack(flow_id: int, next_expected: int) -> bytes:
    offset = next_expected % 256
    return _packet(
        ACK_KIND, flow_id, next_expected, _FILLER[offset : offset + ACK_SIZE - DATA_HEADER]
    )


def decode_packet(raw: bytes) -> tuple[int, int, int] | None:
    """(kind, flow_id, seq) for an intact packet, None for anything else."""
    if len(raw) < DATA_HEADER:
        return None
    kind, flow_id, seq, crc = _HEAD.unpack_from(raw)
    if kind not in (DATA_KIND, ACK_KIND):
        return None
    if zlib.crc32(raw[DATA_HEADER:], zlib.crc32(raw[:10])) != crc:
        return None
    return kind, flow_id, seq


class FlowConfig(Record):
    __slots__ = _fields = ("src", "dst", "payload_size", "arq_window", "retransmit_timeout_ns")

    def __init__(
        self, src: str, dst: str, payload_size: int = 1000, arq_window: int = 16,
        retransmit_timeout_ns: int = 200_000_000,
    ):
        self._fill(src, dst, payload_size, arq_window, retransmit_timeout_ns)
        if src == dst:
            raise ValueError("flow source and destination must differ")
        self._require_ints(
            payload_size=payload_size, arq_window=arq_window,
            retransmit_timeout_ns=retransmit_timeout_ns,
        )
        if not DATA_HEADER <= self.payload_size <= 8192:
            raise ValueError(
                f"payload_size must be in [{DATA_HEADER}, 8192] bytes"
            )
        if self.arq_window < 1:
            raise ValueError("arq_window must be >= 1")
        if self.retransmit_timeout_ns <= 0:
            raise ValueError("retransmit_timeout_ns must be > 0")

    @property
    def payload_bits(self) -> int:
        """Bits of goodput one delivered packet is worth."""
        return self.payload_size * 8


class FlowDelivery(NamedTuple):
    seq: int
    first_sent_at: int
    delivered_at: int


class DataFlow:
    """Sender and receiver state for one unidirectional flow."""

    def __init__(self, flow_id: int, config: FlowConfig, src_ep, dst_ep):
        self.flow_id = flow_id
        self.config = config
        self._src_ep = src_ep
        self._dst_ep = dst_ep
        self.next_seq = 0
        self.unacked: dict[int, int] = {}  # seq -> last sent, ns
        self.first_sent: dict[int, int] = {}
        self.rcv_next = 0  # receiver's next in-order seq
        self.seen: set[int] = set()  # out-of-order seqs above rcv_next
        self.deliveries: list[FlowDelivery] = []
        self.sent_total = 0
        self.retransmit_total = 0
        self.delivered_total = 0
        self.duplicate_total = 0
        self.acked_total = 0
        self.acks_sent = 0
        # a lower bound on the earliest retransmit deadline, min(last sent) +
        # timeout: an ack only raises the minimum, and a send at t, the latest
        # time yet, never lowers it below the bound
        self._due = 0
        # seq -> the packet as first sent, for each unacked seq: a retransmit
        # sends these bytes again rather than encoding them anew
        self._packets: dict[int, bytes] = {}

    def on_data(self, seq: int, t: int) -> None:
        # everything below rcv_next has arrived, so `seen` keeps only the
        # seqs that arrived out of order, fewer than arq_window of them
        if seq < self.rcv_next or seq in self.seen:
            self.duplicate_total += 1
        else:
            self.seen.add(seq)
            self.delivered_total += 1
            first = self.first_sent.pop(seq, t)
            self.deliveries.append(FlowDelivery(seq, first, t))
            while self.rcv_next in self.seen:
                self.seen.discard(self.rcv_next)
                self.rcv_next += 1
        # acknowledge duplicates too: the previous ack may have corrupted
        self._dst_ep.send(self.config.src, encode_ack(self.flow_id, self.rcv_next))
        self.acks_sent += 1

    def on_ack(self, next_expected: int) -> None:
        # `unacked` is in seq order: sends append increasing seqs, a
        # retransmit only updates a value, and acks delete a prefix; so the
        # acked seqs are the prefix below the mark
        unacked = self.unacked
        while unacked:
            seq = next(iter(unacked))
            if seq >= next_expected:
                break
            del unacked[seq]
            del self._packets[seq]
            self.acked_total += 1

    def pump(self, t: int) -> None:
        unacked = self.unacked
        timeout = self.config.retransmit_timeout_ns
        if t >= self._due:  # below it, no unacked seq has timed out
            for seq, last_sent in unacked.items():
                if t - last_sent >= timeout:
                    self._send(seq)
                    unacked[seq] = t
                    self.retransmit_total += 1
            if unacked:
                self._due = min(unacked.values()) + timeout
        while len(unacked) < self.config.arq_window:
            seq = self.next_seq
            self.next_seq += 1
            self.first_sent[seq] = t
            unacked[seq] = t
            self._send(seq)

    def _send(self, seq: int) -> None:
        packet = self._packets.get(seq)
        if packet is None:
            packet = self._packets[seq] = encode_data(self.flow_id, seq, self.config.payload_size)
        self._src_ep.send(self.config.dst, packet)
        self.sent_total += 1


class FlowHost:
    """Runs every flow against one capture backend.

    Incoming packets are drained centrally and routed by flow id, so
    flows can share addresses (a forward flow and its reverse both live
    on the same two endpoints).  Call `tick` once per window.
    """

    def __init__(self, backend):
        self._backend = backend
        self._endpoints: dict[str, object] = {}
        self.flows: list[DataFlow] = []
        self.corrupt_total = 0
        self.stray_total = 0

    def _endpoint(self, address: str):
        if address not in self._endpoints:
            self._endpoints[address] = self._backend.endpoint(address)
        return self._endpoints[address]

    def add_flow(self, config: FlowConfig) -> DataFlow:
        if len(self.flows) >= MAX_FLOWS:
            raise ValueError(f"at most {MAX_FLOWS} flows per run")
        flow = DataFlow(
            len(self.flows), config,
            self._endpoint(config.src), self._endpoint(config.dst),
        )
        self.flows.append(flow)
        return flow

    def tick(self, t: int) -> None:
        for address, endpoint in self._endpoints.items():
            while (raw := endpoint.receive()) is not None:
                decoded = decode_packet(raw)
                if decoded is None:
                    self.corrupt_total += 1
                    continue
                kind, flow_id, seq = decoded
                flow = self.flows[flow_id] if flow_id < len(self.flows) else None
                if kind == DATA_KIND and flow and flow.config.dst == address:
                    flow.on_data(seq, t)
                elif kind == ACK_KIND and flow and flow.config.src == address:
                    flow.on_ack(seq)
                else:
                    self.stray_total += 1
        for flow in self.flows:
            flow.pump(t)

    @property
    def deliveries(self) -> list[FlowDelivery]:
        out = [d for flow in self.flows for d in flow.deliveries]
        out.sort(key=lambda d: (d.delivered_at, d.seq))
        return out
