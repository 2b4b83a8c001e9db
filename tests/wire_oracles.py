"""The paper's ChannelData message as records, and the channel codec as it
was when snapshots were built from them, kept as the oracle of the column
codec.

`Pose` and `PathDetails` are the message's ``node_list`` and
``path_details`` entries.  `channel_data` builds a snapshot's columns from
them, and `node_list` and `path_details` read them back from a snapshot.
"""

from __future__ import annotations

import struct
from itertools import accumulate
from typing import NamedTuple

from cosimnet.wire import ChannelData

_U32 = struct.Struct("<I")
_POSE = struct.Struct("<7d")
_HOP = struct.Struct("<4d")


class Pose(NamedTuple):
    """Agent position (meters) and orientation as a unit quaternion."""

    position: tuple[float, float, float]
    orientation: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 1.0)


class PathDetails(NamedTuple):
    """One pair's paths: a hop count per path, then every path's hops
    (x, y, z, penetration loss in dB) in order."""

    ids: tuple[int, int]
    los: bool
    num_hops: tuple[int, ...] = ()
    hop_points: tuple[tuple[float, float, float, float], ...] = ()


def channel_data(nodes=(), paths=()) -> ChannelData:
    """The snapshot whose columns hold the fields of `Pose` records `nodes`
    and `PathDetails` records `paths`, as tuples."""
    return ChannelData(
        tuple((*pose.position, *pose.orientation) for pose in nodes),
        tuple(tuple(pd.ids) for pd in paths),
        tuple(pd.los for pd in paths),
        tuple(accumulate((len(pd.num_hops) for pd in paths), initial=0)),
        tuple(h for pd in paths for h in pd.num_hops),
        tuple(accumulate((len(pd.hop_points) for pd in paths), initial=0)),
        tuple(tuple(hop) for pd in paths for hop in pd.hop_points),
    )


def node_list(cd: ChannelData) -> tuple[Pose, ...]:
    return tuple(Pose(row[:3], row[3:]) for row in cd.poses)


def path_details(cd: ChannelData) -> tuple[PathDetails, ...]:
    return tuple(
        PathDetails(pair, los, cd.num_hops[p0:p1], cd.hops[h0:h1])
        for pair, los, p0, p1, h0, h1 in zip(
            cd.ids, cd.los, cd.path_start, cd.path_start[1:], cd.hop_start, cd.hop_start[1:]
        )
    )


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        assert self.pos + n <= len(self.data), "truncated"
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk


def encode_channel_data(cd: ChannelData) -> bytes:
    """The channel blob, one record field at a time."""
    nodes, paths = node_list(cd), path_details(cd)
    parts = [_U32.pack(len(nodes))]
    for pose in nodes:
        parts.append(_POSE.pack(*pose.position, *pose.orientation))
    parts.append(_U32.pack(len(paths)))
    for pd in paths:
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
    """The records of a well-formed channel blob."""
    r = _Reader(data)
    nodes = []
    for _ in range(_U32.unpack(r.take(4))[0]):
        vals = _POSE.unpack(r.take(_POSE.size))
        nodes.append(Pose(vals[:3], vals[3:]))
    paths = []
    for _ in range(_U32.unpack(r.take(4))[0]):
        ids = (_U32.unpack(r.take(4))[0], _U32.unpack(r.take(4))[0])
        los = r.take(1)[0] == 1
        num_hops = tuple(_U32.unpack(r.take(4))[0] for _ in range(_U32.unpack(r.take(4))[0]))
        hops = tuple(_HOP.unpack(r.take(_HOP.size)) for _ in range(sum(num_hops)))
        paths.append(PathDetails(ids, los, num_hops, hops))
    assert r.pos == len(r.data), "trailing bytes"
    return channel_data(nodes, paths)
