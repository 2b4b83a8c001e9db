"""Binary wire protocol spoken between the two simulation coordinators.

Every message travels in a self-delimiting frame:

    +-----------+---------+--------------+------------------+
    | magic 4B  | tag 1B  | length u32LE | payload bytes    |
    | "RNS1"    | 0x00/01 |              |                  |
    +-----------+---------+--------------+------------------+

Tag 0x00 carries a PhysicsUpdate, tag 0x01 a NetworkUpdate.  Payload fields
are packed in declaration order: enums as one byte, integers little-endian
fixed width, floats as IEEE-754 doubles (little-endian).  Every list is
prefixed with a u32 element count and byte strings with a u32 length.  A
NetworkUpdate is a bare window marker, one enum byte and a u64 time, so
its frame is 18 bytes: the network side's packets never cross the wire,
because the coordinator and its netsim share a process.

The message records store their fields as given, with one constructor
each and no conversion.  Their producers pass the declared types (ints,
floats, a bool, `MsgType` members): the physics side computes from what
the scenario parser typed, and the decoders build records from `struct`
values.  The frame codec carries `PhysicsUpdate.channel_data` as opaque
bytes; only `channel_of` reads them.

A channel snapshot (the paper's ChannelData: ``node_list``,
``path_details``) is held as columns only: a tuple of pose rows, the
listed pairs, their LOS flags, and their paths' hop counts and hop rows in
CSR form.  The physics kernels, the channel codec and the netsim read and
write the columns, and a simulator's snapshot may defer its pair columns
until one is read.  The message's field names survive in the check's
error messages.  Snapshots have their own flat encoding and are carried
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
from enum import IntEnum
from functools import lru_cache
from itertools import accumulate, starmap
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

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
_HOP_LOSS = itemgetter(3)  # penetration loss of an (x, y, z, loss) hop


class MsgType(IntEnum):
    BEGIN = 0x00
    END = 0x01


class WireError(Exception):
    """Base class for encode/decode failures."""


class FrameError(WireError):
    """Structurally malformed frame or payload; names the failing field."""


class InvariantViolation(WireError):
    """Message content violates a declared type invariant."""


class CompressionError(WireError):
    """Corrupt DEFLATE stream or decompressed size over the cap."""


class Record:
    """Base of the immutable records that check their input.  `_fields`
    names a record's fields in order, and its `__init__` fills them once
    through `_fill`.  Equality, `hash`, `repr` and pickling go by the
    fields, as for a frozen dataclass, and assigning or deleting an
    attribute raises `dataclasses.FrozenInstanceError`.  Unlike a
    NamedTuple's `_replace`, nothing builds one without its checks."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    @staticmethod
    def _require_ints(**values) -> None:
        """Raise ValueError naming the first of `values` that is not an
        int: a float ns or count would reach the run, and a bool is no
        count."""
        for name, value in values.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


@lru_cache(maxsize=4)
def all_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Every unordered pair i < j of `n` agents in row-major order: the
    pair column of every snapshot the physics kernels take, built once for
    the agent count of a run."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=4)
def _all_pairs_rows(n: int) -> Mapping[tuple[int, int], int]:
    """The pair index (`ChannelData.pair_rows`) of `all_pairs(n)`, read
    only, built once for the agent count of a run."""
    return MappingProxyType({pair: k for k, pair in enumerate(all_pairs(n))})


class _Fields:
    """A channel snapshot's fields, assignable only while
    `ChannelData._filled` fills them, or a deferred snapshot its source and
    pair columns."""

    __slots__ = (
        "poses", "ids", "los", "path_start", "num_hops", "hop_start", "hops", "_rows", "_source",
    )


class ChannelData(_Fields, Record):
    """The paper's ChannelData message (``node_list``, ``path_details``):
    poses of all agents plus per-pair propagation paths, held as columns.

    The columns are tuples, each of one kind of field:

    - ``poses``: one (x, y, z, qx, qy, qz, qw) row per agent, the position
      and the orientation quaternion (the message's ``node_list``);
    - ``ids``: each listed pair, in the order listed;
    - ``los``: each pair's line-of-sight flag;
    - ``path_start`` (m + 1 offsets): pair k's paths are
      ``num_hops[path_start[k]:path_start[k + 1]]``;
    - ``num_hops``: the hop count of each path;
    - ``hop_start`` (m + 1 offsets): pair k's hops are
      ``hops[hop_start[k]:hop_start[k + 1]]``;
    - ``hops``: one (x, y, z, penetration loss in dB) row per hop.

    The producers pass Python ints, bools and floats, as the codec reads
    them: a column of ints compares equal to one of floats but has a
    different `repr`, which the timeline oracle compares.  Equality,
    hashing, `repr` and pickling go by the seven columns.  A snapshot is
    immutable, like a `Record`, whose refusal of assignment it takes, so the
    pair index kept for it cannot go stale.
    """

    __slots__ = ()
    _fields = ("poses", "ids", "los", "path_start", "num_hops", "hop_start", "hops")

    def __new__(cls, poses, ids, los, path_start, num_hops, hop_start, hops):
        return cls._filled(poses, ids, None, los, path_start, num_hops, hop_start, hops)

    @classmethod
    def of_all_pairs(cls, poses, los, path_start, num_hops, hop_start, hops):
        """The snapshot over `poses` that lists `all_pairs(len(poses))`,
        with that list's cached, read-only pair index."""
        n = len(poses)
        return cls._filled(
            poses, all_pairs(n), _all_pairs_rows(n), los, path_start, num_hops, hop_start, hops
        )

    @classmethod
    def deferred(cls, poses, source):
        """The snapshot over `poses` and all pairs whose five pair columns
        are taken from ``source.columns(poses)`` when one is first read;
        until then ``source.first_path_losses(poses, i, j)`` answers
        `first_path_losses`."""
        n = len(poses)
        cd = _Deferred._filled(poses, all_pairs(n), _all_pairs_rows(n))
        object.__setattr__(cd, "_source", source)
        return cd

    @classmethod
    def _filled(cls, poses, ids, rows, *columns):
        # Filled as plain slots, then given this class, whose fields cannot
        # be assigned.  Filling through object.__setattr__, as
        # `Record._fill` does, took 1.9 us a snapshot against 0.45 us, which
        # slowed the two-agent workloads' windows.
        cd = _Fields()
        cd.poses = poses
        cd.ids = ids
        if columns:
            cd.los, cd.path_start, cd.num_hops, cd.hop_start, cd.hops = columns
        cd._rows = rows
        cd.__class__ = cls
        return cd

    def first_path_losses(self, k: int) -> tuple | None:
        """None if pair `k` is LOS, else its first path's hop losses in
        hop order (empty if it has no path)."""
        if self.los[k]:
            return None
        p0 = self.path_start[k]
        walls = self.num_hops[p0] if self.path_start[k + 1] > p0 else 0
        h0 = self.hop_start[k]
        return tuple(map(_HOP_LOSS, self.hops[h0:h0 + walls]))

    @property
    def pair_rows(self) -> Mapping[tuple[int, int], int]:
        """Each listed pair, smaller id first, -> its row, in listed order;
        read only."""
        rows = self._rows
        if rows is None:
            rows = {}
            for k, (a, b) in enumerate(self.ids):
                rows[(a, b) if a < b else (b, a)] = k
            object.__setattr__(self, "_rows", rows)
        return rows

    # a deferred snapshot equals, and pickles as, the plain one it builds
    def __eq__(self, other):
        if not isinstance(other, ChannelData):
            return NotImplemented
        return self._values() == other._values()

    __hash__ = Record.__hash__

    def __reduce__(self):
        return ChannelData, self._values()


# the columns a deferred snapshot builds when one of them is first read
_PAIR_COLUMNS = ("los", "path_start", "num_hops", "hop_start", "hops")


def _build_on_read(column: str) -> property:
    def read(cd):
        # the first read of any pair column: take all five from the source,
        # then become a plain ChannelData, whose slots answer from now on
        built = cd._source.columns(cd.poses)
        object.__setattr__(cd, "__class__", ChannelData)
        for name in _PAIR_COLUMNS:
            object.__setattr__(cd, name, getattr(built, name))
        return getattr(cd, column)

    return property(read)


class _Deferred(ChannelData):
    """A `ChannelData.deferred` snapshot not yet built: the pair columns
    are properties here, so other fields keep their plain slot reads."""

    __slots__ = ()

    los, path_start, num_hops, hop_start, hops = map(_build_on_read, _PAIR_COLUMNS)

    def first_path_losses(self, k: int) -> tuple | None:
        i, j = self.ids[k]
        return self._source.first_path_losses(self.poses, i, j)


class PhysicsUpdate(NamedTuple):
    """Window marker from the physics side; END frames carry channel data.

    `channel_data` is the compressed channel blob as the frame carried it,
    unread; `channel_of` decodes it.
    """

    msg_type: MsgType
    time_val: int
    channel_data: bytes = b""


class NetworkUpdate(NamedTuple):
    """Window marker from the network side: a BEGIN or an END and the
    window's start time, nothing more.  Its packets stay in the network
    side's process, as rows passed between the coordinator and its netsim.
    """

    msg_type: MsgType
    time_val: int


# ---------------------------------------------------------------------------
# validation

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


def validate_channel_data(cd: ChannelData) -> None:
    """Raise InvariantViolation, naming the first bad field, unless `cd` is
    well formed.  `decode_channel_data` calls it on every snapshot it
    decodes, at the trust boundary between the two sides.

    The columns are checked one pass each, with no string work, in time
    linear in their size.  Only when a quick test fails are the fields
    scanned one by one (`_scan_channel_data`), to name the first bad one;
    a pose near the quaternion norm tolerance goes to that scan for the
    exact verdict.
    """
    if not _columns_pass(cd):
        _scan_channel_data(cd)


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
    """The field-by-field check: raise InvariantViolation for the first bad
    field, in the order poses, then per path entry its ids, counts and
    hops, named as the paper's ChannelData fields."""
    isfinite = math.isfinite
    for i, row in enumerate(cd.poses):
        for name, values in (("position", row[:3]), ("orientation", row[3:])):
            for v in values:
                if not isfinite(v):
                    raise InvariantViolation(
                        f"ChannelData.node_list[{i}].{name}: component {v!r} not finite"
                    )
        norm = math.sqrt(sum(v * v for v in row[3:]))
        if abs(norm - 1.0) > QUATERNION_NORM_TOL:
            raise InvariantViolation(
                f"ChannelData.node_list[{i}].orientation: quaternion norm {norm!r} not "
                f"within {QUATERNION_NORM_TOL} of 1"
            )
    n = len(cd.poses)
    if n < 2 and cd.ids:
        raise InvariantViolation(
            "ChannelData.path_details: must be empty with fewer than two agents"
        )
    seen_pairs = set()
    for k, ((a, b), p0, p1, h0, h1) in enumerate(zip(
        cd.ids, cd.path_start, cd.path_start[1:], cd.hop_start, cd.hop_start[1:]
    )):
        what = f"ChannelData.path_details[{k}]"
        if a == b:
            raise InvariantViolation(f"{what}.ids: pair ({a}, {b}) must be distinct")
        if not (0 <= a < n and 0 <= b < n):
            raise InvariantViolation(
                f"{what}.ids: {a if not 0 <= a < n else b} does not index the node_list "
                f"(size {n})"
            )
        pair = (a, b) if a < b else (b, a)
        if pair in seen_pairs:
            raise InvariantViolation(f"{what}.ids: duplicate entry for pair {pair}")
        seen_pairs.add(pair)
        counts = cd.num_hops[p0:p1]
        for h in counts:
            if h < 0:
                raise InvariantViolation(f"{what}.num_hops: negative count {h}")
            if h >= 2**32:
                raise InvariantViolation(f"{what}.num_hops: {h} out of u32 range")
        hops = cd.hops[h0:h1]
        if sum(counts) != len(hops):
            raise InvariantViolation(
                f"{what}: sum(num_hops)={sum(counts)} does not match {len(hops)} hop points"
            )
        for j, (x, y, z, loss) in enumerate(hops):
            for v in (x, y, z, loss):
                if not isfinite(v):
                    raise InvariantViolation(
                        f"{what}.hop_points[{j}]: component {v!r} not finite"
                    )
            if loss < 0:
                raise InvariantViolation(
                    f"{what}.hop_points[{j}]: penetration loss {loss!r} negative"
                )


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

    def rows(self, count: int, size: int, fieldname: str) -> bytes:
        """The bytes of `count` items of `size` bytes each.  A truncated
        list names the first item that does not fit."""
        if self.pos + count * size > len(self.data):
            first = (len(self.data) - self.pos) // size
            raise FrameError(f"{self.what}.{fieldname}[{first}]: payload truncated")
        return self._take(count * size, fieldname)

    def finish(self) -> None:
        if self.pos != len(self.data):
            raise FrameError(
                f"{self.what}: {len(self.data) - self.pos} trailing bytes in payload"
            )


# ---------------------------------------------------------------------------
# channel data codec

def encode_channel_data(cd: ChannelData) -> bytes:
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
    n_agents = r.u32("node_count")
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
    cd = ChannelData(
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
    """The END message for window `t` carrying `cd`, encoded and
    compressed once."""
    return PhysicsUpdate(MsgType.END, t, compress_channel_blob(encode_channel_data(cd)))


def channel_of(msg: PhysicsUpdate) -> ChannelData | None:
    """The channel in `msg`'s blob, decompressed, decoded and checked on
    each call, or None if it carries no blob.  A bad blob raises the
    codec's `CompressionError`, `FrameError` or `InvariantViolation`."""
    if not msg.channel_data:
        return None
    return decode_channel_data(decompress_channel_blob(msg.channel_data))


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


def _encode_network_payload(msg: NetworkUpdate) -> bytes:
    return bytes([int(msg.msg_type)]) + _U64.pack(msg.time_val)


def encode_frame(msg: PhysicsUpdate | NetworkUpdate) -> bytes:
    if isinstance(msg, PhysicsUpdate):
        tag = TAG_PHYSICS_UPDATE
        payload = _encode_physics_payload(msg)
    elif isinstance(msg, NetworkUpdate):
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
    return PhysicsUpdate(msg_type=msg_type, time_val=time_val, channel_data=blob)


def _decode_network_payload(payload: bytes) -> NetworkUpdate:
    r = _Reader(payload, "NetworkUpdate")
    msg_type = _decode_msg_type(r, "NetworkUpdate")
    time_val = r.u64("time_val")
    r.finish()
    return NetworkUpdate(msg_type, time_val)


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
    read more input and retry; a malformed frame raises FrameError.  The
    channel blob is returned unread.
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
