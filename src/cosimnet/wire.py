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

A channel snapshot (ChannelData) is held as columns: a tuple of pose rows,
the listed pairs, their LOS flags, and their paths' hop counts and hop rows
in CSR form.  The physics kernels, the channel decoder and the netsim work
on the columns; the `Pose` and `PathDetails` records are built from them
only when read.  Snapshots have their own flat encoding and are carried
inside PhysicsUpdate frames as a raw-DEFLATE-compressed byte string:

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
from dataclasses import FrozenInstanceError, dataclass
from enum import IntEnum
from functools import lru_cache
from itertools import accumulate, starmap
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


@lru_cache(maxsize=4)
def all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every unordered pair i < j of `n` agents in row-major order: the
    pair column of every snapshot the physics kernels take, built once for
    the agent count of a run."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


class _Fields:
    """A channel snapshot's fields, assignable only while
    `ChannelData.from_columns` fills them."""

    __slots__ = (
        "poses", "ids", "los", "path_start", "num_hops", "hop_start", "hops",
        "_node_list", "_path_details", "_rows", "_checked",
    )


class ChannelData(_Fields):
    """Poses of all agents plus per-pair propagation paths, held as columns.

    The columns are tuples, each of one kind of field:

    - ``poses``: one (x, y, z, qx, qy, qz, qw) row per agent, the position
      and the orientation quaternion;
    - ``ids``: each listed pair, in the order listed;
    - ``los``: each pair's line-of-sight flag;
    - ``path_start`` (m + 1 offsets): pair k's paths are
      ``num_hops[path_start[k]:path_start[k + 1]]``;
    - ``num_hops``: the hop count of each path;
    - ``hop_start`` (m + 1 offsets): pair k's hops are
      ``hops[hop_start[k]:hop_start[k + 1]]``;
    - ``hops``: one (x, y, z, penetration loss in dB) row per hop.

    `ChannelData(node_list, path_details)` builds the columns from records;
    `ChannelData.from_columns` takes them as they are.  The columns are the
    one source of truth: ``node_list`` and ``path_details`` are records
    built from them when first read, with the field types `Pose` and
    `PathDetails` document.  Equality, hashing and `repr` go by the
    records.  A snapshot is immutable, like the frozen records: assigning
    a field raises `dataclasses.FrozenInstanceError`, so the records, pair
    index and check verdict kept for it cannot go stale.
    """

    __slots__ = ()

    def __new__(cls, node_list: tuple = (), path_details: tuple = ()):
        return cls.from_columns(
            tuple((*pose.position, *pose.orientation) for pose in node_list),
            tuple(tuple(pd.ids) for pd in path_details),
            tuple(pd.los for pd in path_details),
            tuple(accumulate((len(pd.num_hops) for pd in path_details), initial=0)),
            tuple(h for pd in path_details for h in pd.num_hops),
            tuple(accumulate((len(pd.hop_points) for pd in path_details), initial=0)),
            tuple(tuple(hop) for pd in path_details for hop in pd.hop_points),
        )

    @classmethod
    def from_columns(cls, poses, ids, los, path_start, num_hops, hop_start, hops):
        """A snapshot over the given column tuples, shaped as the class
        documents."""
        # Filled as plain slots, then given this class, whose fields cannot
        # be assigned.  Filling through object.__setattr__, as frozen
        # dataclasses do, took 1.9 us a snapshot against 0.45 us, which
        # slowed the two-agent workloads' windows.
        cd = _Fields()
        cd.poses = poses
        cd.ids = ids
        cd.los = los
        cd.path_start = path_start
        cd.num_hops = num_hops
        cd.hop_start = hop_start
        cd.hops = hops
        cd._node_list = cd._path_details = cd._rows = None
        cd._checked = False
        cd.__class__ = cls
        return cd

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return ChannelData.from_columns, (
            self.poses, self.ids, self.los, self.path_start, self.num_hops,
            self.hop_start, self.hops,
        )

    @property
    def node_list(self) -> tuple[Pose, ...]:
        nodes = self._node_list
        if nodes is None:
            nodes = tuple(Pose(row[:3], row[3:]) for row in self.poses)
            object.__setattr__(self, "_node_list", nodes)
        return nodes

    @property
    def path_details(self) -> tuple[PathDetails, ...]:
        paths = self._path_details
        if paths is None:
            num_hops, hops = self.num_hops, self.hops
            paths = tuple(
                PathDetails(pair, los, num_hops[p0:p1], hops[h0:h1])
                for pair, los, p0, p1, h0, h1 in zip(
                    self.ids, self.los,
                    self.path_start, self.path_start[1:],
                    self.hop_start, self.hop_start[1:],
                )
            )
            object.__setattr__(self, "_path_details", paths)
        return paths

    @property
    def pair_rows(self) -> dict[tuple[int, int], int]:
        """Each listed pair, smaller id first, -> its row, in listed order;
        read only."""
        rows = self._rows
        if rows is None:
            rows = {}
            for k, (a, b) in enumerate(self.ids):
                rows[(a, b) if a < b else (b, a)] = k
            object.__setattr__(self, "_rows", rows)
        return rows

    def __eq__(self, other):
        if not isinstance(other, ChannelData):
            return NotImplemented
        return (self.node_list, self.path_details) == (other.node_list, other.path_details)

    def __hash__(self):
        return hash((self.node_list, self.path_details))

    def __repr__(self):
        return f"ChannelData(node_list={self.node_list!r}, path_details={self.path_details!r})"


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


def validate_channel_data(cd: ChannelData) -> None:
    """Raise InvariantViolation, naming the first bad field, unless `cd` is
    well formed.  A snapshot that passes is not checked again.

    The columns are checked one pass each, with no string work, in time
    linear in their size.  Only when a quick test fails are the records
    scanned one by one (`_scan_channel_data`), to name the first bad field;
    a pose near the quaternion norm tolerance goes to that scan for the
    exact verdict.
    """
    if cd._checked:
        return
    if not _columns_pass(cd):
        _scan_channel_data(cd)
    object.__setattr__(cd, "_checked", True)


def _columns_pass(cd: ChannelData) -> bool:
    """Whether every invariant certainly holds.  A finite sum of values
    means each one is finite."""
    isfinite = math.isfinite
    norm2_lo, norm2_hi = _NORM2_SURE
    for x, y, z, qx, qy, qz, qw in cd.poses:
        norm2 = qx * qx + qy * qy + qz * qz + qw * qw
        if not (isfinite(x + y + z) and norm2_lo <= norm2 <= norm2_hi):
            return False
    n, m = len(cd.poses), len(cd.ids)
    if not m:
        return True
    if n < 2:
        return False
    # the pair index the netsim reads: one row per pair, unless one repeats
    rows = cd.pair_rows
    if len(rows) != m:
        return False
    for a, b in rows:  # smaller id first
        if not 0 <= a < b < n:
            return False
    num_hops, hops = cd.num_hops, cd.hops
    if not hops:
        # no pair has a hop: every count and every offset is zero
        return not (any(num_hops) or any(cd.hop_start))
    if num_hops and not (min(num_hops) >= 0 and max(num_hops) < 2**32):
        return False
    # each pair's hops end where the running count of its paths' hops does
    ends = tuple(accumulate(num_hops, initial=0))
    if tuple(map(ends.__getitem__, cd.path_start)) != cd.hop_start:
        return False
    for x, y, z, loss in hops:
        if not (isfinite(x + y + z + loss) and loss >= 0):
            return False
    return True


# A squared quaternion norm in this range puts the norm within 5e-7 of 1,
# inside QUATERNION_NORM_TOL whatever the rounding of the sum of squares.
_NORM2_SURE = (1.0 - QUATERNION_NORM_TOL, 1.0 + QUATERNION_NORM_TOL)


def _scan_channel_data(cd: ChannelData) -> None:
    """The record-by-record check: raise InvariantViolation for the first
    bad field, in the order poses, then per path entry its ids, counts and
    hops."""
    for i, pose in enumerate(cd.node_list):
        validate_pose(pose, f"ChannelData.node_list[{i}]")
    n = len(cd.node_list)
    if n < 2 and cd.path_details:
        raise InvariantViolation(
            "ChannelData.path_details: must be empty with fewer than two agents"
        )
    seen_pairs = set()
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
        seen_pairs.add(pair)
        for h in pd.num_hops:
            if h < 0:
                raise InvariantViolation(
                    f"ChannelData.path_details[{k}].num_hops: negative count {h}"
                )
            _check_u32(h, f"ChannelData.path_details[{k}].num_hops")
        total = sum(pd.num_hops)
        if total != len(pd.hop_points):
            raise InvariantViolation(
                f"ChannelData.path_details[{k}]: sum(num_hops)={total} does not match "
                f"{len(pd.hop_points)} hop points"
            )
        _check_hops(pd.hop_points, f"ChannelData.path_details[{k}]")


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
        return count, self.rows(count, size, fieldname)

    def rows(self, count: int, size: int, fieldname: str) -> bytes:
        """The bytes of `count` items of `size` bytes each.  A truncated
        list names the first item that does not fit."""
        if self.pos + count * size > len(self.data):
            first = (len(self.data) - self.pos) // size
            raise FrameError(f"{self.what}.{fieldname}[{first}]: payload truncated")
        return self._take(count * size, fieldname)

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
    num_hops = cd.num_hops
    hops = b"".join(starmap(_HOP.pack, cd.hops))
    parts = [
        _U32.pack(len(cd.poses)), *starmap(_POSE.pack, cd.poses), _U32.pack(len(cd.ids))
    ]
    for (a, b), los, p0, p1, h0, h1 in zip(
        cd.ids, cd.los, cd.path_start, cd.path_start[1:], cd.hop_start, cd.hop_start[1:]
    ):
        parts.append(_path_head(p1 - p0).pack(a, b, los, p1 - p0, *num_hops[p0:p1]))
        parts.append(hops[_HOP.size * h0 : _HOP.size * h1])
    return b"".join(parts)


@lru_cache(maxsize=64)
def _path_head(paths: int) -> struct.Struct:
    """A path entry's ids, LOS byte, path count and per-path hop counts."""
    return struct.Struct(f"<II?I{paths}I")


def decode_channel_data(data: bytes) -> ChannelData:
    r = _Reader(data, "ChannelData")
    n_agents = r.u32("agent_count")
    poses = tuple(_POSE.iter_unpack(r.rows(n_agents, _POSE.size, "node_list")))
    n_paths = r.u32("path_count")
    ids, los, path_start, num_hops, hop_start, hops = [], [], [0], [], [0], []
    for k in range(n_paths):
        what = f"path_details[{k}]"
        ids.append((r.u32(f"{what}.ids[0]"), r.u32(f"{what}.ids[1]")))
        los_raw = r.u8(f"{what}.los")
        if los_raw not in (0, 1):
            raise FrameError(f"ChannelData.{what}.los: invalid boolean byte {los_raw}")
        los.append(los_raw == 1)
        n_sub = r.u32(f"{what}.path_count")
        counts = [r.u32(f"{what}.num_hops[{j}]") for j in range(n_sub)]
        num_hops += counts
        path_start.append(len(num_hops))
        hops.append(r.rows(sum(counts), _HOP.size, f"{what}.hop_points"))
        hop_start.append(hop_start[-1] + sum(counts))
    r.finish()
    cd = ChannelData.from_columns(
        poses,
        tuple(ids),
        tuple(los),
        tuple(path_start),
        tuple(num_hops),
        tuple(hop_start),
        tuple(_HOP.iter_unpack(b"".join(hops))),
    )
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
