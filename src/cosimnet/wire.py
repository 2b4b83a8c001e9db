"""Binary wire protocol spoken between the two simulation coordinators.

Every message travels in a self-delimiting frame:

    +-----------+---------+--------------+------------------+
    | magic 4B  | tag 1B  | length u32LE | payload bytes    |
    | "RNS1"    | 0x00/01 |              |                  |
    +-----------+---------+--------------+------------------+

Tag 0x00 carries a PhysicsUpdate, tag 0x01 a NetworkUpdate.  Payload fields
are packed in declaration order: enums as one byte, integers little-endian
fixed width, floats as IEEE-754 doubles (little-endian), IPv4 addresses as
four bytes in network order.  Every list is prefixed with a u32 element
count and byte strings with a u32 length.  Address syntax is checked where
an address is encoded, once; four decoded bytes are always an address.

The message records store their fields as given, with one constructor
each and no conversion.  Their producers pass the declared types (tuples
of ints, floats and strings, a bool, `MsgType` members): the physics side
computes from what the scenario parser typed, and the decoders build
records from `struct` and `inet_ntoa` values.  The one conversion left is
`PhysicsUpdate.channel_data` to bytes.

Channel descriptions (ChannelData) have their own flat encoding and are
carried inside PhysicsUpdate frames as a raw-DEFLATE-compressed byte string:

    u32 agent count
    per agent: 7 doubles (position x, y, z; orientation x, y, z, w)
    u32 path entry count
    per path entry:
        u32 id[0], u32 id[1], u8 los,
        u32 path count, u32 hop count per path...,
        sum(num_hops) * 4 doubles (hop x, y, z, penetration loss dB)

Decoding is streaming-safe: ``decode_frame`` reports "need more bytes" for
an incomplete frame instead of raising, so callers can accumulate socket
reads in a buffer and peel off complete frames as they arrive.
"""

from __future__ import annotations

import ipaddress
import math
import struct
import zlib
from dataclasses import dataclass
from enum import IntEnum
from socket import inet_ntoa

MAGIC = b"RNS1"
TAG_PHYSICS_UPDATE = 0x00
TAG_NETWORK_UPDATE = 0x01

MAX_FRAME_PAYLOAD = 16 * 1024 * 1024
MAX_DECOMPRESSED_CHANNEL = 64 * 1024 * 1024

QUATERNION_NORM_TOL = 1e-6

_HEADER = struct.Struct("<4sBI")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_POSE = struct.Struct("<7d")
_HOP = struct.Struct("<4d")


class MsgType(IntEnum):
    BEGIN = 0x00
    END = 0x01


_MSG_TYPES = (MsgType.BEGIN, MsgType.END)


class WireError(Exception):
    """Base class for encode/decode failures."""


class FrameError(WireError):
    """Structurally malformed frame or payload; names the failing field."""


class InvariantViolation(WireError):
    """Message content violates a declared type invariant."""


class CompressionError(WireError):
    """Corrupt DEFLATE stream or decompressed size over the cap."""


@dataclass(frozen=True)
class Pose:
    """Agent position (meters) and orientation as a unit quaternion, as
    tuples of floats."""

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)


@dataclass(frozen=True)
class PathDetails:
    """Propagation summary for one unordered agent pair.

    ``num_hops`` holds one entry per reported path; ``hop_points`` holds the
    concatenated hop tuples (x, y, z, penetration loss in dB) for all paths
    in order.  A direct line-of-sight path is a single entry with zero hops.

    The fields are stored as given, so producers pass Python ints, a bool
    and 4-tuples of floats: a record of ints compares equal to one of
    floats but has a different `repr`, which the timeline oracle compares.
    """

    ids: tuple[int, int]
    los: bool
    num_hops: tuple[int, ...] = ()
    hop_points: tuple[tuple[float, float, float, float], ...] = ()


@dataclass(frozen=True)
class ChannelData:
    """Poses of all agents plus per-pair propagation paths."""

    node_list: tuple[Pose, ...] = ()
    path_details: tuple[PathDetails, ...] = ()


@dataclass(frozen=True)
class PhysicsUpdate:
    """Window marker from the physics side; END frames carry channel data.

    `channel_data` is always `bytes`: `channel_of` keeps the decoded
    channel on the message, which is sound only while the blob cannot
    change, and a frame decoded from a `bytearray` buffer would otherwise
    hold a mutable slice of it.
    """

    msg_type: MsgType
    time_val: int
    channel_data: bytes = b""

    def __post_init__(self):
        object.__setattr__(self, "channel_data", bytes(self.channel_data))


@dataclass(frozen=True)
class NetworkUpdate:
    """Window marker from the network side.

    BEGIN frames list newly captured packets (the manifest); END frames list
    packets cleared during the window together with the bit error rate each
    one saw on the air.
    """

    msg_type: MsgType
    time_val: int
    pkt_id: tuple[int, ...] = ()
    pkt_lengths: tuple[int, ...] = ()
    src_ip: tuple[str, ...] = ()
    dst_ip: tuple[str, ...] = ()
    clear_pkt_id: tuple[int, ...] = ()
    clear_src_ip: tuple[str, ...] = ()
    clear_dst_ip: tuple[str, ...] = ()
    ber: tuple[float, ...] = ()


# ---------------------------------------------------------------------------
# validation

def _check_u32(value: int, what: str) -> None:
    if not 0 <= value < 2**32:
        raise InvariantViolation(f"{what}: {value} out of u32 range")


def _check_u64(value: int, what: str) -> None:
    if not 0 <= value < 2**64:
        raise InvariantViolation(f"{what}: {value} out of u64 range")


def checked_address_map(entries) -> tuple[tuple[int, str], ...]:
    """`(agent id, IPv4 address)` pairs as ints and strings; raises
    ValueError on a repeated id or address or a malformed address."""
    amap = tuple((int(a), str(ip)) for a, ip in entries)
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
    return amap


def validate_pose(pose: Pose, what: str = "Pose") -> None:
    for v in pose.position:
        if not math.isfinite(v):
            raise InvariantViolation(f"{what}.position: component {v!r} not finite")
    for v in pose.orientation:
        if not math.isfinite(v):
            raise InvariantViolation(f"{what}.orientation: component {v!r} not finite")
    norm = math.sqrt(sum(v * v for v in pose.orientation))
    if abs(norm - 1.0) > QUATERNION_NORM_TOL:
        raise InvariantViolation(
            f"{what}.orientation: quaternion norm {norm!r} not within "
            f"{QUATERNION_NORM_TOL} of 1"
        )


# A squared quaternion norm in this range puts the norm within 5e-7 of 1,
# inside QUATERNION_NORM_TOL whatever the rounding of the sum of squares.
_NORM2_SURE = (1.0 - QUATERNION_NORM_TOL, 1.0 + QUATERNION_NORM_TOL)


def validate_channel_data(cd: ChannelData) -> None:
    """Raise InvariantViolation, naming the first bad field, unless `cd` is
    well formed.

    One pass over the data with no string work on valid input; a pose that
    the quick test does not pass goes to `validate_pose` for the verdict.
    A finite sum of components means every component is finite.
    """
    isfinite = math.isfinite
    norm2_lo, norm2_hi = _NORM2_SURE
    nodes = cd.node_list
    for i, pose in enumerate(nodes):
        x, y, z = pose.position
        qx, qy, qz, qw = pose.orientation
        norm2 = qx * qx + qy * qy + qz * qz + qw * qw
        if not (isfinite(x + y + z) and norm2_lo <= norm2 <= norm2_hi):
            validate_pose(pose, f"ChannelData.node_list[{i}]")
    n = len(nodes)
    if n < 2 and cd.path_details:
        raise InvariantViolation(
            "ChannelData.path_details: must be empty with fewer than two agents"
        )
    seen_pairs = set()
    add_pair = seen_pairs.add
    for k, pd in enumerate(cd.path_details):
        a, b = pd.ids
        if a == b:
            raise InvariantViolation(
                f"ChannelData.path_details[{k}].ids: pair ({a}, {b}) must be distinct"
            )
        if not (0 <= a < n and 0 <= b < n):
            raise InvariantViolation(
                f"ChannelData.path_details[{k}].ids: {a if not 0 <= a < n else b} "
                f"does not index the node_list (size {n})"
            )
        pair = (a, b) if a < b else (b, a)
        if pair in seen_pairs:
            raise InvariantViolation(
                f"ChannelData.path_details[{k}].ids: duplicate entry for pair {pair}"
            )
        add_pair(pair)
        total = 0
        for h in pd.num_hops:
            if not 0 <= h < 2**32:
                if h < 0:
                    raise InvariantViolation(
                        f"ChannelData.path_details[{k}].num_hops: negative count {h}"
                    )
                _check_u32(h, f"ChannelData.path_details[{k}].num_hops")
            total += h
        hops = pd.hop_points
        if total != len(hops):
            raise InvariantViolation(
                f"ChannelData.path_details[{k}]: sum(num_hops)={total} does not match "
                f"{len(hops)} hop points"
            )
        for x, y, z, loss in hops:
            if not (isfinite(x + y + z + loss) and loss >= 0):
                _check_hops(hops, f"ChannelData.path_details[{k}]")


def _check_hops(hops, what: str) -> None:
    """Raise for the first hop that is not finite or has a negative loss."""
    for j, (x, y, z, loss) in enumerate(hops):
        for v in (x, y, z, loss):
            if not math.isfinite(v):
                raise InvariantViolation(f"{what}.hop_points[{j}]: component {v!r} not finite")
        if loss < 0:
            raise InvariantViolation(
                f"{what}.hop_points[{j}]: penetration loss {loss!r} negative"
            )


def validate_physics_update(msg: PhysicsUpdate) -> None:
    if msg.msg_type not in _MSG_TYPES:
        raise InvariantViolation(f"PhysicsUpdate.msg_type: unknown value {msg.msg_type}")
    _check_u64(msg.time_val, "PhysicsUpdate.time_val")
    if msg.channel_data:
        try:
            channel_of(msg)
        except WireError as exc:
            raise InvariantViolation(
                f"PhysicsUpdate.channel_data: does not hold a valid compressed "
                f"channel description ({exc})"
            ) from exc


def _ragged(msg: NetworkUpdate, lists: str, names) -> InvariantViolation:
    lens = {name: len(getattr(msg, name)) for name in names}
    return InvariantViolation(f"NetworkUpdate {lists} lists must share one length, got {lens}")


def validate_network_update(msg: NetworkUpdate) -> None:
    """Raise InvariantViolation, naming the first bad field, unless `msg` is
    well formed: aligned lists, ids in u64 range and unique within their
    list, lengths in u32 range, bit error rates in [0, 1].

    No string work on valid input.  Address syntax is the codec's:
    `encode_frame` parses each address once, and a decoded address is
    valid by construction.
    """
    if msg.msg_type not in _MSG_TYPES:
        raise InvariantViolation(f"NetworkUpdate.msg_type: unknown value {msg.msg_type}")
    if not 0 <= msg.time_val < 2**64:
        _check_u64(msg.time_val, "NetworkUpdate.time_val")
    ids, lengths, clear_ids, ber = msg.pkt_id, msg.pkt_lengths, msg.clear_pkt_id, msg.ber
    n = len(ids)
    if not n == len(lengths) == len(msg.src_ip) == len(msg.dst_ip):
        raise _ragged(msg, "manifest", ("pkt_id", "pkt_lengths", "src_ip", "dst_ip"))
    m = len(clear_ids)
    if not m == len(msg.clear_src_ip) == len(msg.clear_dst_ip) == len(ber):
        raise _ragged(msg, "clearance", ("clear_pkt_id", "clear_src_ip", "clear_dst_ip", "ber"))
    for pid in ids:
        if not 0 <= pid < 2**64:
            _check_u64(pid, "NetworkUpdate.pkt_id")
    if n > 1 and len(set(ids)) != n:
        raise InvariantViolation("NetworkUpdate.pkt_id: duplicate packet id in manifest")
    for length in lengths:
        if not 0 <= length < 2**32:
            _check_u32(length, "NetworkUpdate.pkt_lengths")
    for pid in clear_ids:
        if not 0 <= pid < 2**64:
            _check_u64(pid, "NetworkUpdate.clear_pkt_id")
    if m > 1 and len(set(clear_ids)) != m:
        raise InvariantViolation(
            "NetworkUpdate.clear_pkt_id: duplicate packet id in clearances"
        )
    for b in ber:
        if not (0.0 <= b <= 1.0):
            raise InvariantViolation(f"NetworkUpdate.ber: {b!r} outside [0, 1]")


# ---------------------------------------------------------------------------
# compression (raw DEFLATE, RFC 1951)

def compress_channel_blob(data: bytes) -> bytes:
    co = zlib.compressobj(level=6, wbits=-zlib.MAX_WBITS)
    return co.compress(data) + co.flush()


def decompress_channel_blob(blob: bytes) -> bytes:
    do = zlib.decompressobj(wbits=-zlib.MAX_WBITS)
    try:
        out = do.decompress(blob, MAX_DECOMPRESSED_CHANNEL)
    except zlib.error as exc:
        raise CompressionError(f"corrupt DEFLATE stream: {exc}") from exc
    if do.unconsumed_tail:
        raise CompressionError(
            f"decompressed channel data exceeds {MAX_DECOMPRESSED_CHANNEL} byte cap"
        )
    if not do.eof:
        raise CompressionError("truncated DEFLATE stream")
    if do.unused_data:
        raise CompressionError("trailing bytes after DEFLATE stream")
    return out


# ---------------------------------------------------------------------------
# reading helper

class _Reader:
    """Cursor over a payload that raises FrameError on underrun."""

    def __init__(self, data: bytes, what: str):
        self.data = data
        self.pos = 0
        self.what = what

    def _take(self, n: int, fieldname: str) -> bytes:
        if self.pos + n > len(self.data):
            raise FrameError(f"{self.what}.{fieldname}: payload truncated")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u8(self, fieldname: str) -> int:
        return self._take(1, fieldname)[0]

    def u32(self, fieldname: str) -> int:
        return _U32.unpack(self._take(4, fieldname))[0]

    def u64(self, fieldname: str) -> int:
        return _U64.unpack(self._take(8, fieldname))[0]

    def raw(self, n: int, fieldname: str) -> bytes:
        return self._take(n, fieldname)

    def _items(self, size: int, fieldname: str) -> tuple[int, bytes]:
        """A u32 count, then the bytes of that many `size`-byte items.  A
        truncated list names the first item that does not fit."""
        count = self.u32(f"{fieldname}.count")
        if self.pos + count * size > len(self.data):
            first = (len(self.data) - self.pos) // size
            raise FrameError(f"{self.what}.{fieldname}[{first}]: payload truncated")
        return count, self._take(count * size, fieldname)

    def array(self, code: str, fieldname: str) -> tuple:
        """A counted list of little-endian values of struct code `code`."""
        count, raw = self._items(struct.calcsize(code), fieldname)
        return struct.unpack(f"<{count}{code}", raw)

    def ipv4_list(self, fieldname: str) -> tuple[str, ...]:
        """A counted list of IPv4 addresses, four bytes each in network
        order; any four bytes are a valid address."""
        _, raw = self._items(4, fieldname)
        return tuple(inet_ntoa(raw[i : i + 4]) for i in range(0, len(raw), 4))

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise FrameError(
                f"{self.what}: {len(self.data) - self.pos} trailing bytes in payload"
            )


# ---------------------------------------------------------------------------
# channel data codec

def encode_channel_data(cd: ChannelData) -> bytes:
    validate_channel_data(cd)
    parts = [_U32.pack(len(cd.node_list))]
    for pose in cd.node_list:
        parts.append(_POSE.pack(*pose.position, *pose.orientation))
    parts.append(_U32.pack(len(cd.path_details)))
    for pd in cd.path_details:
        parts.append(_U32.pack(pd.ids[0]))
        parts.append(_U32.pack(pd.ids[1]))
        parts.append(bytes([1 if pd.los else 0]))
        parts.append(_U32.pack(len(pd.num_hops)))
        for h in pd.num_hops:
            parts.append(_U32.pack(h))
        for hop in pd.hop_points:
            parts.append(_HOP.pack(*hop))
    return b"".join(parts)


def decode_channel_data(data: bytes) -> ChannelData:
    r = _Reader(data, "ChannelData")
    n_agents = r.u32("agent_count")
    nodes = []
    for i in range(n_agents):
        vals = _POSE.unpack(r.raw(_POSE.size, f"node_list[{i}]"))
        nodes.append(Pose(position=vals[:3], orientation=vals[3:]))
    n_paths = r.u32("path_count")
    paths = []
    for k in range(n_paths):
        what = f"path_details[{k}]"
        id0 = r.u32(f"{what}.ids[0]")
        id1 = r.u32(f"{what}.ids[1]")
        los_raw = r.u8(f"{what}.los")
        if los_raw not in (0, 1):
            raise FrameError(f"ChannelData.{what}.los: invalid boolean byte {los_raw}")
        n_sub = r.u32(f"{what}.path_count")
        num_hops = tuple(r.u32(f"{what}.num_hops[{j}]") for j in range(n_sub))
        total_hops = sum(num_hops)
        hops = tuple(
            _HOP.unpack(r.raw(_HOP.size, f"{what}.hop_points[{j}]"))
            for j in range(total_hops)
        )
        paths.append(
            PathDetails(ids=(id0, id1), los=bool(los_raw), num_hops=num_hops, hop_points=hops)
        )
    r.finish()
    cd = ChannelData(node_list=tuple(nodes), path_details=tuple(paths))
    validate_channel_data(cd)
    return cd


def channel_update(t: int, cd: ChannelData) -> PhysicsUpdate:
    """The END message for window `t` carrying `cd`, encoded (which
    validates it) and compressed once.  The message keeps `cd` as its
    decoded channel for `channel_of`."""
    msg = PhysicsUpdate(MsgType.END, t, compress_channel_blob(encode_channel_data(cd)))
    object.__setattr__(msg, "_channel", cd)
    return msg


def channel_of(msg: PhysicsUpdate) -> ChannelData | None:
    """The channel that `msg` carries, or None if it carries no blob.

    The blob is decompressed and decoded at most once per message, and the
    result kept on it; the message and its bytes are immutable, so the
    kept value cannot go stale.  Raises WireError for a blob that does not
    hold a valid compressed channel description.
    """
    cd = msg.__dict__.get("_channel")
    if cd is None and msg.channel_data:
        cd = decode_channel_data(decompress_channel_blob(msg.channel_data))
        object.__setattr__(msg, "_channel", cd)
    return cd


# ---------------------------------------------------------------------------
# frame codec

def _encode_physics_payload(msg: PhysicsUpdate) -> bytes:
    return b"".join(
        [
            bytes([int(msg.msg_type)]),
            _U64.pack(msg.time_val),
            _U32.pack(len(msg.channel_data)),
            msg.channel_data,
        ]
    )


def _encode_array(code: str, values) -> bytes:
    return _U32.pack(len(values)) + struct.pack(f"<{len(values)}{code}", *values)


def _encode_ip_list(addrs, what: str) -> bytes:
    """A counted list of IPv4 addresses.  This is the one check of address
    syntax on the wire: each address is parsed once, here."""
    parts = [_U32.pack(len(addrs))]
    for addr in addrs:
        try:
            parts.append(ipaddress.IPv4Address(addr).packed)
        except ValueError:
            raise InvariantViolation(f"{what}: {addr!r} is not an IPv4 address") from None
    return b"".join(parts)


def _encode_network_payload(msg: NetworkUpdate) -> bytes:
    return b"".join(
        [
            bytes([int(msg.msg_type)]),
            _U64.pack(msg.time_val),
            _encode_array("Q", msg.pkt_id),
            _encode_array("I", msg.pkt_lengths),
            _encode_ip_list(msg.src_ip, "NetworkUpdate.src_ip"),
            _encode_ip_list(msg.dst_ip, "NetworkUpdate.dst_ip"),
            _encode_array("Q", msg.clear_pkt_id),
            _encode_ip_list(msg.clear_src_ip, "NetworkUpdate.clear_src_ip"),
            _encode_ip_list(msg.clear_dst_ip, "NetworkUpdate.clear_dst_ip"),
            _encode_array("d", msg.ber),
        ]
    )


def encode_frame(msg: PhysicsUpdate | NetworkUpdate) -> bytes:
    if isinstance(msg, PhysicsUpdate):
        validate_physics_update(msg)
        tag = TAG_PHYSICS_UPDATE
        payload = _encode_physics_payload(msg)
    elif isinstance(msg, NetworkUpdate):
        validate_network_update(msg)
        tag = TAG_NETWORK_UPDATE
        payload = _encode_network_payload(msg)
    else:
        raise TypeError(f"cannot encode {type(msg).__name__} as a frame")
    if len(payload) > MAX_FRAME_PAYLOAD:
        raise FrameError(
            f"payload of {len(payload)} bytes exceeds the {MAX_FRAME_PAYLOAD} byte cap"
        )
    return _HEADER.pack(MAGIC, tag, len(payload)) + payload


def _decode_msg_type(r: _Reader, what: str) -> MsgType:
    raw = r.u8("msg_type")
    if raw not in (int(MsgType.BEGIN), int(MsgType.END)):
        raise FrameError(f"{what}.msg_type: unknown enum byte {raw:#04x}")
    return MsgType(raw)


def _decode_physics_payload(payload: bytes) -> PhysicsUpdate:
    r = _Reader(payload, "PhysicsUpdate")
    msg_type = _decode_msg_type(r, "PhysicsUpdate")
    time_val = r.u64("time_val")
    blob_len = r.u32("channel_data.length")
    blob = r.raw(blob_len, "channel_data")
    r.finish()
    msg = PhysicsUpdate(msg_type=msg_type, time_val=time_val, channel_data=blob)
    validate_physics_update(msg)
    return msg


def _decode_network_payload(payload: bytes) -> NetworkUpdate:
    r = _Reader(payload, "NetworkUpdate")
    msg_type = _decode_msg_type(r, "NetworkUpdate")
    time_val = r.u64("time_val")
    pkt_id = r.array("Q", "pkt_id")
    pkt_lengths = r.array("I", "pkt_lengths")
    src_ip = r.ipv4_list("src_ip")
    dst_ip = r.ipv4_list("dst_ip")
    clear_pkt_id = r.array("Q", "clear_pkt_id")
    clear_src_ip = r.ipv4_list("clear_src_ip")
    clear_dst_ip = r.ipv4_list("clear_dst_ip")
    ber = r.array("d", "ber")
    r.finish()
    msg = NetworkUpdate(
        msg_type=msg_type,
        time_val=time_val,
        pkt_id=pkt_id,
        pkt_lengths=pkt_lengths,
        src_ip=src_ip,
        dst_ip=dst_ip,
        clear_pkt_id=clear_pkt_id,
        clear_src_ip=clear_src_ip,
        clear_dst_ip=clear_dst_ip,
        ber=ber,
    )
    validate_network_update(msg)
    return msg


def frame_size(buf: bytes | bytearray) -> int | None:
    """Total size of the frame at the start of ``buf``, from its header.

    Returns None while the header is incomplete.  A header that can no
    longer become valid (bad magic, even partial; oversized payload;
    unknown tag) raises FrameError.
    """
    probe = min(len(buf), len(MAGIC))
    if buf[:probe] != MAGIC[:probe]:
        raise FrameError(f"bad magic {bytes(buf[:4])!r}, expected {MAGIC!r}")
    if len(buf) < _HEADER.size:
        return None
    _, tag, length = _HEADER.unpack_from(buf)
    if length > MAX_FRAME_PAYLOAD:
        raise FrameError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_FRAME_PAYLOAD} byte cap"
        )
    if tag not in (TAG_PHYSICS_UPDATE, TAG_NETWORK_UPDATE):
        raise FrameError(f"unknown frame tag {tag:#04x}")
    return _HEADER.size + length


def decode_frame(buf: bytes) -> tuple[PhysicsUpdate | NetworkUpdate | None, bytes]:
    """Peel one frame off ``buf``.

    Returns ``(message, remaining_bytes)``.  When the buffer does not yet
    hold a complete frame the result is ``(None, buf)`` so the caller can
    read more input and retry; structural problems raise FrameError and
    content problems raise InvariantViolation.
    """
    end = frame_size(buf)
    if end is None or len(buf) < end:
        return None, buf
    payload = buf[_HEADER.size : end]
    if buf[len(MAGIC)] == TAG_PHYSICS_UPDATE:
        msg = _decode_physics_payload(payload)
    else:
        msg = _decode_network_payload(payload)
    return msg, buf[end:]
