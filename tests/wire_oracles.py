"""The `NetworkUpdate` check and frame codec as they were when the check
parsed every address, kept as oracles of the codec-side address check.

`validate_network_update` is the old wire check: every structural rule
plus `_check_ipv4` on each of the four address lists.  `encode_frame` and
`decode_frame` are the old `NetworkUpdate` frame codec, which parsed each
address with `ipaddress` on both sides and ran that check on both sides.
"""

from __future__ import annotations

import ipaddress
import struct

from cosimnet import wire
from cosimnet.wire import InvariantViolation, MsgType, NetworkUpdate

_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _check_u32(value, what):
    if not 0 <= value < 2**32:
        raise InvariantViolation(f"{what}: {value} out of u32 range")


def _check_u64(value, what):
    if not 0 <= value < 2**64:
        raise InvariantViolation(f"{what}: {value} out of u64 range")


def _check_ipv4(addr, what):
    try:
        ipaddress.IPv4Address(addr)
    except (ipaddress.AddressValueError, ValueError):
        raise InvariantViolation(f"{what}: {addr!r} is not an IPv4 address") from None


def validate_network_update(msg: NetworkUpdate) -> None:
    if msg.msg_type not in (MsgType.BEGIN, MsgType.END):
        raise InvariantViolation(f"NetworkUpdate.msg_type: unknown value {msg.msg_type}")
    _check_u64(msg.time_val, "NetworkUpdate.time_val")
    manifest_lens = {
        "pkt_id": len(msg.pkt_id),
        "pkt_lengths": len(msg.pkt_lengths),
        "src_ip": len(msg.src_ip),
        "dst_ip": len(msg.dst_ip),
    }
    if len(set(manifest_lens.values())) != 1:
        raise InvariantViolation(
            f"NetworkUpdate manifest lists must share one length, got {manifest_lens}"
        )
    clear_lens = {
        "clear_pkt_id": len(msg.clear_pkt_id),
        "clear_src_ip": len(msg.clear_src_ip),
        "clear_dst_ip": len(msg.clear_dst_ip),
        "ber": len(msg.ber),
    }
    if len(set(clear_lens.values())) != 1:
        raise InvariantViolation(
            f"NetworkUpdate clearance lists must share one length, got {clear_lens}"
        )
    for pid in msg.pkt_id:
        _check_u64(pid, "NetworkUpdate.pkt_id")
    if len(set(msg.pkt_id)) != len(msg.pkt_id):
        raise InvariantViolation("NetworkUpdate.pkt_id: duplicate packet id in manifest")
    for length in msg.pkt_lengths:
        _check_u32(length, "NetworkUpdate.pkt_lengths")
    for pid in msg.clear_pkt_id:
        _check_u64(pid, "NetworkUpdate.clear_pkt_id")
    if len(set(msg.clear_pkt_id)) != len(msg.clear_pkt_id):
        raise InvariantViolation(
            "NetworkUpdate.clear_pkt_id: duplicate packet id in clearances"
        )
    for addr in msg.src_ip:
        _check_ipv4(addr, "NetworkUpdate.src_ip")
    for addr in msg.dst_ip:
        _check_ipv4(addr, "NetworkUpdate.dst_ip")
    for addr in msg.clear_src_ip:
        _check_ipv4(addr, "NetworkUpdate.clear_src_ip")
    for addr in msg.clear_dst_ip:
        _check_ipv4(addr, "NetworkUpdate.clear_dst_ip")
    for b in msg.ber:
        if not (0.0 <= b <= 1.0):
            raise InvariantViolation(f"NetworkUpdate.ber: {b!r} outside [0, 1]")


def _encode_ip_list(addrs) -> bytes:
    parts = [_U32.pack(len(addrs))]
    for addr in addrs:
        parts.append(ipaddress.IPv4Address(addr).packed)
    return b"".join(parts)


def encode_frame(msg: NetworkUpdate) -> bytes:
    validate_network_update(msg)
    parts = [bytes([int(msg.msg_type)]), _U64.pack(msg.time_val)]
    parts.append(_U32.pack(len(msg.pkt_id)))
    for v in msg.pkt_id:
        parts.append(_U64.pack(v))
    parts.append(_U32.pack(len(msg.pkt_lengths)))
    for v in msg.pkt_lengths:
        parts.append(_U32.pack(v))
    parts.append(_encode_ip_list(msg.src_ip))
    parts.append(_encode_ip_list(msg.dst_ip))
    parts.append(_U32.pack(len(msg.clear_pkt_id)))
    for v in msg.clear_pkt_id:
        parts.append(_U64.pack(v))
    parts.append(_encode_ip_list(msg.clear_src_ip))
    parts.append(_encode_ip_list(msg.clear_dst_ip))
    parts.append(_U32.pack(len(msg.ber)))
    for v in msg.ber:
        parts.append(_F64.pack(v))
    payload = b"".join(parts)
    return wire.MAGIC + bytes([wire.TAG_NETWORK_UPDATE]) + _U32.pack(len(payload)) + payload


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        assert self.pos + n <= len(self.data), "truncated"
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def list(self, unpack, size):
        count = _U32.unpack(self.take(4))[0]
        return tuple(unpack(self.take(size)) for _ in range(count))


def decode_frame(frame: bytes) -> NetworkUpdate:
    """The one complete `NetworkUpdate` frame `frame`, decoded."""
    assert frame[:5] == wire.MAGIC + bytes([wire.TAG_NETWORK_UPDATE])
    r = _Reader(frame[9:])
    msg_type = MsgType(r.take(1)[0])
    time_val = _U64.unpack(r.take(8))[0]

    def u64(raw):
        return _U64.unpack(raw)[0]

    def ipv4(raw):
        return str(ipaddress.IPv4Address(raw))

    pkt_id = r.list(u64, 8)
    pkt_lengths = r.list(lambda raw: _U32.unpack(raw)[0], 4)
    src_ip = r.list(ipv4, 4)
    dst_ip = r.list(ipv4, 4)
    clear_pkt_id = r.list(u64, 8)
    clear_src_ip = r.list(ipv4, 4)
    clear_dst_ip = r.list(ipv4, 4)
    ber = r.list(lambda raw: _F64.unpack(raw)[0], 8)
    assert r.pos == len(r.data), "trailing bytes"
    msg = NetworkUpdate(
        msg_type, time_val, pkt_id, pkt_lengths, src_ip, dst_ip,
        clear_pkt_id, clear_src_ip, clear_dst_ip, ber,
    )
    validate_network_update(msg)
    return msg
