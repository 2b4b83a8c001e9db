"""The channel codec as it was when channel data were records, kept as
the oracle of the column codec."""

from __future__ import annotations

import struct

from cosimnet.wire import ChannelData, PathDetails, Pose

_U32 = struct.Struct("<I")
_POSE = struct.Struct("<7d")
_HOP = struct.Struct("<4d")


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
    return ChannelData(tuple(nodes), tuple(paths))
