"""Wire protocol: framing, channel data codec, compression, validation."""

from __future__ import annotations

import collections
import dataclasses
import math
import random
import re
import struct
import zlib

import pytest

from cosimnet import wire
from tests import msggen, wire_oracles
from tests.wire_oracles import PathDetails, Pose, channel_data, node_list, path_details


def _pose(x, y, z):
    return Pose(position=(x, y, z))


def test_begin_frame_known_bytes():
    frame = wire.encode_frame(wire.PhysicsUpdate(wire.MsgType.BEGIN, 0))
    expected = b"RNS1" + b"\x00" + struct.pack("<I", 13) + b"\x00" + b"\x00" * 8 + b"\x00" * 4
    assert frame == expected
    assert len(frame) == 22


def test_empty_network_update_payload_length():
    frame = wire.encode_frame(wire.NetworkUpdate(wire.MsgType.BEGIN, 1_000_000))
    # 1 enum byte + 8 time bytes: a network frame is a bare marker
    assert frame == b"RNS1\x01" + struct.pack("<IBQ", 9, 0, 1_000_000)
    assert len(frame) == 18
    msg, rest = wire.decode_frame(frame)
    assert rest == b""
    assert msg == wire.NetworkUpdate(wire.MsgType.BEGIN, 1_000_000)


def test_empty_channel_data_is_eight_zero_bytes():
    assert wire.encode_channel_data(channel_data()) == b"\x00" * 8


def test_two_agent_single_path_channel_size():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(30, 0, 0)),
        (PathDetails(ids=(0, 1), los=True, num_hops=(0,)),),
    )
    enc = wire.encode_channel_data(cd)
    # u32 agent count + 2 poses of 7 doubles + u32 path count
    # + (id0 + id1 + los byte + path count + one num_hops entry)
    assert len(enc) == 4 + 2 * 56 + 4 + (4 + 4 + 1 + 4 + 4)
    assert wire.decode_channel_data(enc) == cd


def test_frame_roundtrip_corpus():
    rng = random.Random(0xC0DE)
    for _ in range(300):
        msg = msggen.random_message(rng)
        frame = wire.encode_frame(msg)
        decoded, rest = wire.decode_frame(frame)
        assert rest == b""
        assert decoded == msg
        assert wire.encode_frame(decoded) == frame


def test_channel_data_roundtrip_corpus():
    rng = random.Random(1234)
    for _ in range(200):
        cd = msggen.random_channel_data(rng)
        enc = wire.encode_channel_data(cd)
        assert wire.decode_channel_data(enc) == cd
        assert wire.encode_channel_data(wire.decode_channel_data(enc)) == enc


def test_framing_self_synchronization():
    rng = random.Random(77)
    msgs = [msggen.random_message(rng) for _ in range(25)]
    buf = b"".join(wire.encode_frame(m) for m in msgs)
    out = []
    while buf:
        msg, buf = wire.decode_frame(buf)
        assert msg is not None
        out.append(msg)
    assert out == msgs


def test_partial_frame_needs_more_bytes():
    frame = wire.encode_frame(
        wire.PhysicsUpdate(wire.MsgType.END, 5, wire.compress_channel_blob(b"\x00" * 8))
    )
    for cut in (0, 1, 4, 8, 9, len(frame) - 1):
        msg, rest = wire.decode_frame(frame[:cut])
        assert msg is None
        assert rest == frame[:cut]
    msg, rest = wire.decode_frame(frame)
    assert msg is not None and rest == b""


def test_partial_frame_with_trailing_data():
    frame = wire.encode_frame(wire.NetworkUpdate(wire.MsgType.END, 9))
    msg, rest = wire.decode_frame(frame + b"RN")
    assert msg is not None
    assert rest == b"RN"


def test_bad_magic_rejected():
    with pytest.raises(wire.FrameError, match="magic"):
        wire.decode_frame(b"RNS2" + b"\x00" * 18)
    # detectable before a full header arrives
    with pytest.raises(wire.FrameError, match="magic"):
        wire.decode_frame(b"XY")


def test_unknown_tag_rejected():
    frame = bytearray(wire.encode_frame(wire.PhysicsUpdate(wire.MsgType.BEGIN, 0)))
    frame[4] = 0x7F
    with pytest.raises(wire.FrameError, match="tag"):
        wire.decode_frame(bytes(frame))


def test_over_cap_length_rejected():
    header = b"RNS1" + b"\x00" + struct.pack("<I", wire.MAX_FRAME_PAYLOAD + 1)
    with pytest.raises(wire.FrameError, match="cap"):
        wire.decode_frame(header)


def test_truncated_payload_field_named():
    frame = wire.encode_frame(wire.NetworkUpdate(wire.MsgType.END, 3))
    # chop the payload but fix up the declared length so the frame "completes"
    payload = frame[9:]
    cut = payload[:-6]
    forged = b"RNS1" + b"\x01" + struct.pack("<I", len(cut)) + cut
    with pytest.raises(wire.FrameError, match=re.escape("NetworkUpdate.time_val: payload truncated")):
        wire.decode_frame(forged)


def test_network_update_rejects_a_bad_marker():
    frame = bytearray(wire.encode_frame(wire.NetworkUpdate(wire.MsgType.END, 0)))
    frame[9] = 2
    with pytest.raises(wire.FrameError, match="NetworkUpdate.msg_type"):
        wire.decode_frame(bytes(frame))


def test_trailing_payload_bytes_rejected():
    frame = wire.encode_frame(wire.PhysicsUpdate(wire.MsgType.BEGIN, 0))
    payload = frame[9:] + b"\x00"
    forged = b"RNS1" + b"\x00" + struct.pack("<I", len(payload)) + payload
    with pytest.raises(wire.FrameError, match="trailing"):
        wire.decode_frame(forged)


def rejected_on_decode(cd, match):
    """The encoder writes `cd` unchecked; the decoder, the one check, names
    its fault."""
    data = wire.encode_channel_data(cd)
    with pytest.raises(wire.InvariantViolation, match=match):
        wire.decode_channel_data(data)


def test_encode_rejects_unnormalized_quaternion():
    cd = channel_data(
        (Pose((0, 0, 0), (0.0, 0.0, 0.0, 1.01)), _pose(1, 1, 1)),
    )
    rejected_on_decode(cd, "orientation")


def test_encode_rejects_nonfinite_position():
    cd = channel_data((_pose(float("nan"), 0, 0),))
    rejected_on_decode(cd, "finite")


def test_encode_rejects_self_pair():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(1, 0, 0)),
        (PathDetails(ids=(1, 1), los=True, num_hops=(0,)),),
    )
    rejected_on_decode(cd, "distinct")


def test_encode_rejects_out_of_range_pair():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(1, 0, 0)),
        (PathDetails(ids=(0, 2), los=True, num_hops=(0,)),),
    )
    rejected_on_decode(cd, "index")


def test_encode_rejects_duplicate_unordered_pair():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(1, 0, 0)),
        (
            PathDetails(ids=(0, 1), los=True, num_hops=(0,)),
            PathDetails(ids=(1, 0), los=True, num_hops=(0,)),
        ),
    )
    rejected_on_decode(cd, "duplicate")


def test_encode_rejects_hop_count_mismatch():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(1, 0, 0)),
        (
            PathDetails(ids=(0, 1), los=False, num_hops=(2,), hop_points=((0, 0, 0, 1),)),
        ),
    )
    # the bytes cannot carry the mismatch: decoding them finds the list truncated
    with pytest.raises(wire.FrameError, match="truncated"):
        wire.decode_channel_data(wire.encode_channel_data(cd))
    with pytest.raises(wire.InvariantViolation, match="hop points"):
        wire.validate_channel_data(cd)


def test_encode_rejects_negative_penetration_loss():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(1, 0, 0)),
        (
            PathDetails(ids=(0, 1), los=False, num_hops=(1,), hop_points=((0, 0, 0, -1.0),)),
        ),
    )
    rejected_on_decode(cd, "negative")


def test_encode_rejects_paths_without_enough_agents():
    cd = channel_data(
        (_pose(0, 0, 0),),
        (PathDetails(ids=(0, 1), los=True, num_hops=(0,)),),
    )
    rejected_on_decode(cd, "fewer than two")


def oracle_validate_pose(pose, what="Pose"):
    for v in pose.position:
        if not math.isfinite(v):
            raise wire.InvariantViolation(f"{what}.position: component {v!r} not finite")
    for v in pose.orientation:
        if not math.isfinite(v):
            raise wire.InvariantViolation(f"{what}.orientation: component {v!r} not finite")
    norm = math.sqrt(sum(v * v for v in pose.orientation))
    if abs(norm - 1.0) > wire.QUATERNION_NORM_TOL:
        raise wire.InvariantViolation(
            f"{what}.orientation: quaternion norm {norm!r} not within "
            f"{wire.QUATERNION_NORM_TOL} of 1"
        )


def oracle_validate_channel_data(cd):
    """`wire.validate_channel_data` as it was before its single pass: a
    message string built for every agent and pair.  Kept as the oracle of
    what the check accepts and of every message it raises."""
    nodes, paths = node_list(cd), path_details(cd)
    for i, pose in enumerate(nodes):
        oracle_validate_pose(pose, f"ChannelData.node_list[{i}]")
    if len(nodes) < 2 and paths:
        raise wire.InvariantViolation(
            "ChannelData.path_details: must be empty with fewer than two agents"
        )
    seen_pairs = set()
    n = len(nodes)
    for k, pd in enumerate(paths):
        what = f"ChannelData.path_details[{k}]"
        a, b = pd.ids
        if a == b:
            raise wire.InvariantViolation(f"{what}.ids: pair ({a}, {b}) must be distinct")
        for v in (a, b):
            if not 0 <= v < n:
                raise wire.InvariantViolation(
                    f"{what}.ids: {v} does not index the node_list (size {n})"
                )
        pair = (min(a, b), max(a, b))
        if pair in seen_pairs:
            raise wire.InvariantViolation(f"{what}.ids: duplicate entry for pair {pair}")
        seen_pairs.add(pair)
        for h in pd.num_hops:
            if h < 0:
                raise wire.InvariantViolation(f"{what}.num_hops: negative count {h}")
            if not 0 <= h < 2**32:
                raise wire.InvariantViolation(f"{what}.num_hops: {h} out of u32 range")
        if sum(pd.num_hops) != len(pd.hop_points):
            raise wire.InvariantViolation(
                f"{what}: sum(num_hops)={sum(pd.num_hops)} does not match "
                f"{len(pd.hop_points)} hop points"
            )
        for j, (x, y, z, loss) in enumerate(pd.hop_points):
            for v in (x, y, z, loss):
                if not math.isfinite(v):
                    raise wire.InvariantViolation(
                        f"{what}.hop_points[{j}]: component {v!r} not finite"
                    )
            if loss < 0:
                raise wire.InvariantViolation(
                    f"{what}.hop_points[{j}]: penetration loss {loss!r} negative"
                )


def _validation_outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type and the message are compared
        return type(exc), str(exc)


def _validator_corpus():
    """A valid three-agent channel, then that channel with one invariant
    broken at a time (a few with two), then random valid channels."""
    q = (0.5, -0.5, 0.5, 0.5)
    nodes = (
        Pose((0.0, 0.0, 1.0), q),
        Pose((30.0, -4.0, 2.0)),
        Pose((12.5, 40.0, 0.0), (0.0, 0.0, math.sin(0.3), math.cos(0.3))),
    )
    paths = (
        PathDetails((0, 1), True, (0,), ()),
        PathDetails((0, 2), False, (2,), ((3.0, 9.0, 0.5, 4.0), (6.0, 18.0, 0.7, 2.5))),
        PathDetails((2, 1), False, (1, 1), ((20.0, 10.0, 1.0, 6.0), (22.0, 9.0, 1.0, 0.0))),
    )
    base = channel_data(nodes, paths)
    yield base

    def with_node(i, pose):
        return channel_data(nodes[:i] + (pose,) + nodes[i + 1:], paths)

    def with_path(k, pd):
        return channel_data(nodes, paths[:k] + (pd,) + paths[k + 1:])

    def with_hop(k, j, hop):
        pd = paths[k]
        hops = pd.hop_points[:j] + (hop,) + pd.hop_points[j + 1:]
        return with_path(k, PathDetails(pd.ids, pd.los, pd.num_hops, hops))

    nan, inf = float("nan"), float("inf")
    for i in range(3):
        for axis in range(3):
            for v in (nan, inf, -inf):
                position = list(nodes[i].position)
                position[axis] = v
                yield with_node(i, Pose(position, nodes[i].orientation))
        for axis in range(4):
            for v in (nan, inf, -inf):
                orientation = list(nodes[i].orientation)
                orientation[axis] = v
                yield with_node(i, Pose(nodes[i].position, orientation))
    # quaternion norms on both sides of 1 +- tol, down to single ulps
    tol = wire.QUATERNION_NORM_TOL
    for edge in (1.0 + tol, 1.0 - tol):
        for offset in (-1e-12, 1e-12):
            scale = edge + offset
            yield with_node(0, Pose((0, 0, 1), tuple(scale * v for v in q)))
        w = edge
        for _ in range(4):
            w = math.nextafter(w, 0.0)
        for _ in range(8):
            yield with_node(1, Pose((30, -4, 2), (0.0, 0.0, 0.0, w)))
            w = math.nextafter(w, 2.0)
    yield with_node(2, Pose((0, 0, 0), (0.0, 0.0, 0.0, 1.01)))
    # finite but large enough that a sum of components overflows
    yield with_node(1, Pose((1e308, 1e308, -1e308)))
    yield with_hop(1, 0, (1e308, 1e308, 1e308, 1e308))
    yield with_path(0, PathDetails((1, 1), True, (0,), ()))
    for ids in ((-1, 1), (0, -1), (0, 3), (3, 0), (-1, 3)):
        yield with_path(0, PathDetails(ids, True, (0,), ()))
    for ids in ((0, 2), (2, 0), (1, 2)):
        yield with_path(0, PathDetails(ids, True, (0,), ()))  # duplicate pair
    yield channel_data(nodes, paths + (PathDetails((1, 0), True, (0,), ()),))
    yield channel_data(nodes, paths + (PathDetails((0, 1), True, (0,), ()),))
    for num_hops in ((-1,), (2**32,), (2**32 - 1,), (1, -1), (3, 2**32), (-5, 2**40)):
        yield with_path(1, PathDetails((0, 2), False, num_hops, ()))
    for num_hops in ((1,), (3,), (1, 0), (0, 0, 1), (0, 3)):
        yield with_path(1, PathDetails((0, 2), False, num_hops, paths[1].hop_points))
    for loss in (-1.0, -1e-300, -0.0, 0.0, -inf, inf, nan):
        yield with_hop(2, 1, (22.0, 9.0, 1.0, loss))
    for axis in range(3):
        for v in (nan, inf, -inf):
            hop = [3.0, 9.0, 0.5, 4.0]
            hop[axis] = v
            yield with_hop(1, 1, tuple(hop))
    yield with_hop(1, 1, (nan, 0.0, 0.0, -1.0))  # non-finite before negative
    for n_nodes in (0, 1):
        yield channel_data(nodes[:n_nodes], paths[:1])
        yield channel_data(nodes[:n_nodes], ())
    # two faults: the first in check order is the one reported
    yield channel_data(
        (Pose((nan, 0, 0)),) + nodes[1:], (PathDetails((1, 1), True, (0,), ()),)
    )
    yield channel_data(nodes, (paths[0], paths[0], PathDetails((2, 2), True)))
    rng = random.Random(1219)
    for _ in range(300):
        yield msggen.random_channel_data(rng)


def test_channel_check_matches_the_oracle():
    accepted = rejected = 0
    for cd in _validator_corpus():
        expected = _validation_outcome(oracle_validate_channel_data, cd)
        assert _validation_outcome(wire.validate_channel_data, cd) == expected, cd
        accepted += expected is None
        rejected += expected is not None
    assert accepted > 300 and rejected > 80


def columns(cd):
    return (cd.poses, cd.ids, cd.los, cd.path_start, cd.num_hops, cd.hop_start, cd.hops)


def test_channel_check_matches_the_oracle_on_columns():
    """The same corpus, each snapshot built again from its columns: the
    check names the same field."""
    for cd in _validator_corpus():
        expected = _validation_outcome(oracle_validate_channel_data, cd)
        again = wire.ChannelData(*columns(cd))
        assert _validation_outcome(wire.validate_channel_data, again) == expected, cd


def snapshot_corpus():
    """Random channels, then physics snapshots of all three kinds: disk,
    and LOS/NLOS from the scalar and the vector kernel."""
    from cosimnet.physics import ChannelFidelity, ReferencePhysicsSim
    from cosimnet.scenario import parse_scenario
    from tests.test_lockstep_oracle import swarm_document

    rng = random.Random(0xC011)
    for _ in range(200):
        yield msggen.random_channel_data(rng)
    for agents, boxes in ((2, 3), (6, 8)):
        config = parse_scenario(swarm_document(agents=agents, boxes=boxes))
        physics = ReferencePhysicsSim(config.world, config.tracks)
        for k in range(60):
            physics.step(7 * config.window_ns)
            fidelity = ChannelFidelity.disk(40.0) if k % 3 == 0 else config.fidelity
            yield physics.channel_snapshot(fidelity)


def test_channel_codec_matches_the_record_codec():
    """The codec over columns writes the bytes the record codec wrote, and
    decodes them to the records it decoded."""
    nlos = 0
    for cd in snapshot_corpus():
        data = wire.encode_channel_data(cd)
        assert data == wire_oracles.encode_channel_data(cd)
        decoded = wire.decode_channel_data(data)
        assert repr(decoded) == repr(wire_oracles.decode_channel_data(data))
        assert columns(decoded) == columns(cd)
        nlos += sum(not los for los in cd.los)
    assert nlos > 100


def test_records_and_columns_build_one_snapshot():
    for cd in snapshot_corpus():
        again = wire.ChannelData(*columns(cd))
        assert repr(again) == repr(cd) and again == cd and hash(again) == hash(cd)
        rebuilt = channel_data(node_list(cd), path_details(cd))
        assert columns(rebuilt) == columns(cd)
        # the pair index lists each pair once, in order, smaller id first
        assert list(cd.pair_rows.items()) == [
            ((min(pair), max(pair)), k) for k, pair in enumerate(cd.ids)
        ]


def test_snapshot_fields_cannot_be_reassigned():
    cd = msggen.random_channel_data(random.Random(11))
    rows = cd.pair_rows
    bad_poses = ((float("nan"),) * 7,) * len(cd.poses)
    for name, value in (("poses", bad_poses), ("ids", ()), ("_rows", {}), ("extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cd, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del cd.hops
    assert cd.pair_rows is rows
    # copies and pickles are snapshots over the same columns
    import copy
    import pickle

    for again in (copy.copy(cd), pickle.loads(pickle.dumps(cd))):
        assert columns(again) == columns(cd) and repr(again) == repr(cd)


def test_decode_of_many_poses_and_no_paths_is_linear():
    """A small blob can declare many agents and list no pairs.  Decoding
    and checking it costs memory in proportion to the blob, not to the
    n(n-1)/2 pairs its agents could form."""
    import tracemalloc

    n = 3000
    row = struct.pack("<7d", 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0)
    data = struct.pack("<I", n) + row * n + struct.pack("<I", 0)
    blob = wire.compress_channel_blob(data)
    assert len(blob) < len(data) // 100
    tracemalloc.start()
    try:
        cd = wire.channel_of(wire.PhysicsUpdate(wire.MsgType.END, 0, blob))
        assert cd.pair_rows == {}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cd.poses) == n and cd.ids == ()
    # the raw bytes and one 7-tuple of floats per pose: about 7 times the data
    assert peak < 10 * len(data), peak


def test_physics_update_requires_valid_compressed_channel():
    """The frame codec carries a blob unread, garbage or not; `channel_of`,
    which reads it, rejects it."""
    payload = b"\x01" + struct.pack("<Q", 0) + struct.pack("<I", 3) + b"abc"
    forged = b"RNS1" + b"\x00" + struct.pack("<I", len(payload)) + payload
    for frame in (
        wire.encode_frame(wire.PhysicsUpdate(wire.MsgType.END, 0, b"not deflate")),
        forged,
    ):
        msg, rest = wire.decode_frame(frame)
        assert rest == b"" and msg.msg_type is wire.MsgType.END
        with pytest.raises(wire.CompressionError):
            wire.channel_of(msg)


def _count_decodes(monkeypatch) -> list:
    calls = []
    decode = wire.decode_channel_data

    def counted(data):
        calls.append(len(data))
        return decode(data)

    monkeypatch.setattr(wire, "decode_channel_data", counted)
    return calls


def test_channel_update_is_the_hand_built_end_and_never_decodes(monkeypatch):
    calls = _count_decodes(monkeypatch)
    rng = random.Random(0xE11D)
    for k in range(100):
        cd = msggen.random_channel_data(rng)
        blob = wire.compress_channel_blob(wire.encode_channel_data(cd))
        hand_built = wire.PhysicsUpdate(wire.MsgType.END, k, blob)
        msg = wire.channel_update(k, cd)
        assert calls == []
        assert msg == hand_built and repr(msg) == repr(hand_built)
        assert wire.encode_frame(msg) == wire.encode_frame(hand_built)
        assert wire.channel_of(msg) == cd
        del calls[:]


def test_channel_of_decodes_a_received_blob_once(monkeypatch):
    """Once per call: nothing is kept on the message, and decoding a frame
    leaves its blob unread."""
    calls = _count_decodes(monkeypatch)
    rng = random.Random(0xD1CE)
    for _ in range(100):
        cd = msggen.random_channel_data(rng)
        blob = wire.compress_channel_blob(wire.encode_channel_data(cd))
        msg = wire.PhysicsUpdate(wire.MsgType.END, 3, blob)
        del calls[:]
        assert wire.channel_of(msg) == cd
        assert len(calls) == 1
        assert wire.channel_of(msg) == cd
        assert len(calls) == 2
        received, _ = wire.decode_frame(wire.encode_frame(msg))
        assert len(calls) == 2
        assert wire.channel_of(received) == cd
        assert len(calls) == 3
    del calls[:]
    assert wire.channel_of(wire.PhysicsUpdate(wire.MsgType.END, 3)) is None
    assert calls == []


def test_decode_rejects_invalid_los_byte():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(1, 0, 0)),
        (PathDetails(ids=(0, 1), los=True, num_hops=(0,)),),
    )
    enc = bytearray(wire.encode_channel_data(cd))
    enc[4 + 112 + 4 + 8] = 2  # the los byte of the only path entry
    with pytest.raises(wire.FrameError, match="los"):
        wire.decode_channel_data(bytes(enc))


def test_compression_roundtrip_and_format():
    rng = random.Random(5)
    for _ in range(50):
        data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 4096)))
        blob = wire.compress_channel_blob(data)
        assert wire.decompress_channel_blob(blob) == data
        # raw DEFLATE stream: a plain zlib inflater with negative wbits reads it
        assert zlib.decompress(blob, wbits=-15) == data


def test_decompress_rejects_corrupt_stream():
    blob = wire.compress_channel_blob(b"hello world" * 100)
    with pytest.raises(wire.CompressionError):
        wire.decompress_channel_blob(blob[:-3])
    with pytest.raises(wire.CompressionError):
        wire.decompress_channel_blob(b"\xff\xff\xff\xff")


def test_decompress_enforces_size_cap(monkeypatch):
    monkeypatch.setattr(wire, "MAX_DECOMPRESSED_CHANNEL", 1024)
    blob = wire.compress_channel_blob(b"\x00" * 2048)
    with pytest.raises(wire.CompressionError, match="cap"):
        wire.decompress_channel_blob(blob)


def test_identical_messages_encode_identically():
    rng_a = random.Random(42)
    rng_b = random.Random(42)
    for _ in range(50):
        a = msggen.random_message(rng_a)
        b = msggen.random_message(rng_b)
        assert a == b
        assert wire.encode_frame(a) == wire.encode_frame(b)


def test_truncated_list_names_the_first_missing_item():
    cd = channel_data(
        (_pose(0, 0, 0), _pose(10, 0, 0), _pose(20, 0, 0)),
        (PathDetails((0, 2), False, (3,), tuple((5.0 * k, 0.0, 0.0, 1.0) for k in range(3))),),
    )
    data = wire.encode_channel_data(cd)
    # 4 + 3 * 56 = 172 bytes end the poses; the path entry's head is 4 + 17
    for cut, what in ((4 + 2 * 56 + 30, "node_list[2]"), (172 + 21 + 32 + 8, "path_details[0].hop_points[1]")):
        message = f"ChannelData.{what}: payload truncated"
        with pytest.raises(wire.FrameError, match=re.escape(message)):
            wire.decode_channel_data(data[:cut])


# -- the decoder's trust boundary under mutation -----------------------------


def field_offsets(cd):
    """The byte offsets of every double and every u32 count in `cd`'s
    encoding, walked as `encode_channel_data` writes it."""
    doubles = [4 + 8 * k for k in range(7 * len(cd.poses))]
    counts = [0]
    pos = 4 + 56 * len(cd.poses)
    counts.append(pos)
    pos += 4
    for p0, p1, h0, h1 in zip(cd.path_start, cd.path_start[1:], cd.hop_start, cd.hop_start[1:]):
        counts += [pos + 9, *(pos + 13 + 4 * j for j in range(p1 - p0))]  # path, hop counts
        pos += 13 + 4 * (p1 - p0)
        doubles += [pos + 8 * k for k in range(4 * (h1 - h0))]
        pos += 32 * (h1 - h0)
    return doubles, counts


SPECIAL_DOUBLES = (float("nan"), float("inf"), -float("inf"), 1e308, -1e308, -1.0)


def mutate(rng, data, doubles, counts):
    """`data` with one seeded fault: bit flips, a special double or a
    bad count written over a field, a truncation or an insertion."""
    out = bytearray(data)
    kind = rng.randrange(5)
    if kind == 0:
        for _ in range(rng.randint(1, 4)):
            out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    elif kind == 1:
        at = rng.choice(doubles)
        out[at:at + 8] = struct.pack("<d", rng.choice(SPECIAL_DOUBLES))
    elif kind == 2:
        at = rng.choice(counts)
        old = struct.unpack_from("<I", out, at)[0]
        new = rng.choice((0, 1, old - 1, old + 1, 2**31, 2**32 - 1, rng.randrange(2**32)))
        out[at:at + 4] = struct.pack("<I", new % 2**32)
    elif kind == 3:
        del out[rng.randrange(len(out)):]
    else:
        at = rng.randrange(len(out) + 1)
        out[at:at] = bytes(rng.randrange(256) for _ in range(rng.randint(1, 16)))
    return bytes(out)


def test_seeded_mutants_are_rejected_or_applied():
    """About 20,000 mutants of a 6-agent, 12-box world's channel blobs, one
    in ten made in the compressed blob: the decoder raises only its own
    three errors, and every snapshot it accepts goes through the netsim."""
    from cosimnet.netsim import RadioParams, ReferenceNetSim
    from cosimnet.physics import ReferencePhysicsSim
    from cosimnet.scenario import parse_scenario
    from tests.test_lockstep_oracle import swarm_document

    config = parse_scenario(swarm_document(agents=6, boxes=12))
    physics = ReferencePhysicsSim(config.world, config.tracks)
    sources = []
    for _ in range(40):
        physics.step(25 * config.window_ns)
        cd = physics.channel_snapshot(config.fidelity)
        data = wire.encode_channel_data(cd)
        sources.append((data, wire.compress_channel_blob(data), *field_offsets(cd)))
    rng = random.Random(2026)
    amap = dict(config.agent_address_map)
    outcomes = collections.Counter()
    for _ in range(20_000):
        data, blob, doubles, counts = rng.choice(sources)
        if rng.random() < 0.1:
            blob = mutate(rng, blob, range(len(blob) - 7), range(len(blob) - 3))
        else:
            blob = wire.compress_channel_blob(mutate(rng, data, doubles, counts))
        try:
            cd = wire.channel_of(wire.PhysicsUpdate(wire.MsgType.END, 0, blob))
        except (wire.FrameError, wire.CompressionError, wire.InvariantViolation) as exc:
            outcomes[type(exc).__name__] += 1
            # a content fault is named by the message's field
            assert not isinstance(exc, wire.InvariantViolation) or str(exc).startswith(
                "ChannelData."
            ), exc
            continue
        netsim = ReferenceNetSim(RadioParams(), amap)
        netsim.apply_channel(cd)
        assert len(netsim.link_table) == len(cd.ids)
        outcomes["accepted"] += 1
    # pinned: a changed count means the decoder accepts or rejects another set
    assert dict(outcomes) == {
        "FrameError": 11_734, "InvariantViolation": 3_556, "CompressionError": 1_613,
        "accepted": 3_097,
    }
