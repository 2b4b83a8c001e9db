"""Wire protocol: framing, channel data codec, compression, validation."""

from __future__ import annotations

import dataclasses
import ipaddress
import math
import random
import re
import struct
import zlib

import pytest

from cosimnet import wire
from tests import msggen, wire_oracles


def _pose(x, y, z):
    return wire.Pose(position=(x, y, z))


def test_begin_frame_known_bytes():
    frame = wire.encode_frame(wire.PhysicsUpdate(wire.MsgType.BEGIN, 0))
    expected = b"RNS1" + b"\x00" + struct.pack("<I", 13) + b"\x00" + b"\x00" * 8 + b"\x00" * 4
    assert frame == expected
    assert len(frame) == 22


def test_empty_network_update_payload_length():
    frame = wire.encode_frame(wire.NetworkUpdate(wire.MsgType.BEGIN, 1_000_000))
    # 1 enum byte + 8 time bytes + 8 list counts of 4 bytes each
    assert len(frame) == 9 + 1 + 8 + 8 * 4
    msg, rest = wire.decode_frame(frame)
    assert rest == b""
    assert msg.time_val == 1_000_000
    assert msg.pkt_id == ()


def test_empty_channel_data_is_eight_zero_bytes():
    assert wire.encode_channel_data(wire.ChannelData()) == b"\x00" * 8


def test_two_agent_single_path_channel_size():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0), _pose(30, 0, 0)),
        path_details=(wire.PathDetails(ids=(0, 1), los=True, num_hops=(0,)),),
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
    frame = wire.encode_frame(
        wire.NetworkUpdate(
            wire.MsgType.BEGIN, 0, pkt_id=(1, 2), pkt_lengths=(10, 20),
            src_ip=("10.0.0.1", "10.0.0.1"), dst_ip=("10.0.0.2", "10.0.0.2"),
        )
    )
    # chop the payload but fix up the declared length so the frame "completes"
    payload = frame[9:]
    cut = payload[:-6]
    forged = b"RNS1" + b"\x01" + struct.pack("<I", len(cut)) + cut
    with pytest.raises(wire.FrameError):
        wire.decode_frame(forged)


def test_trailing_payload_bytes_rejected():
    frame = wire.encode_frame(wire.PhysicsUpdate(wire.MsgType.BEGIN, 0))
    payload = frame[9:] + b"\x00"
    forged = b"RNS1" + b"\x00" + struct.pack("<I", len(payload)) + payload
    with pytest.raises(wire.FrameError, match="trailing"):
        wire.decode_frame(forged)


def test_encode_rejects_unnormalized_quaternion():
    cd = wire.ChannelData(
        node_list=(wire.Pose((0, 0, 0), (0.0, 0.0, 0.0, 1.01)), _pose(1, 1, 1)),
    )
    with pytest.raises(wire.InvariantViolation, match="orientation"):
        wire.encode_channel_data(cd)


def test_encode_rejects_nonfinite_position():
    cd = wire.ChannelData(node_list=(_pose(float("nan"), 0, 0),))
    with pytest.raises(wire.InvariantViolation, match="finite"):
        wire.encode_channel_data(cd)


def test_encode_rejects_self_pair():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0), _pose(1, 0, 0)),
        path_details=(wire.PathDetails(ids=(1, 1), los=True, num_hops=(0,)),),
    )
    with pytest.raises(wire.InvariantViolation, match="distinct"):
        wire.encode_channel_data(cd)


def test_encode_rejects_out_of_range_pair():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0), _pose(1, 0, 0)),
        path_details=(wire.PathDetails(ids=(0, 2), los=True, num_hops=(0,)),),
    )
    with pytest.raises(wire.InvariantViolation, match="index"):
        wire.encode_channel_data(cd)


def test_encode_rejects_duplicate_unordered_pair():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0), _pose(1, 0, 0)),
        path_details=(
            wire.PathDetails(ids=(0, 1), los=True, num_hops=(0,)),
            wire.PathDetails(ids=(1, 0), los=True, num_hops=(0,)),
        ),
    )
    with pytest.raises(wire.InvariantViolation, match="duplicate"):
        wire.encode_channel_data(cd)


def test_encode_rejects_hop_count_mismatch():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0), _pose(1, 0, 0)),
        path_details=(
            wire.PathDetails(ids=(0, 1), los=False, num_hops=(2,), hop_points=((0, 0, 0, 1),)),
        ),
    )
    with pytest.raises(wire.InvariantViolation, match="hop points"):
        wire.encode_channel_data(cd)


def test_encode_rejects_negative_penetration_loss():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0), _pose(1, 0, 0)),
        path_details=(
            wire.PathDetails(ids=(0, 1), los=False, num_hops=(1,), hop_points=((0, 0, 0, -1.0),)),
        ),
    )
    with pytest.raises(wire.InvariantViolation, match="negative"):
        wire.encode_channel_data(cd)


def test_encode_rejects_paths_without_enough_agents():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0),),
        path_details=(wire.PathDetails(ids=(0, 1), los=True, num_hops=(0,)),),
    )
    with pytest.raises(wire.InvariantViolation, match="fewer than two"):
        wire.encode_channel_data(cd)


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
    for i, pose in enumerate(cd.node_list):
        oracle_validate_pose(pose, f"ChannelData.node_list[{i}]")
    if len(cd.node_list) < 2 and cd.path_details:
        raise wire.InvariantViolation(
            "ChannelData.path_details: must be empty with fewer than two agents"
        )
    seen_pairs = set()
    n = len(cd.node_list)
    for k, pd in enumerate(cd.path_details):
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
        wire.Pose((0.0, 0.0, 1.0), q),
        wire.Pose((30.0, -4.0, 2.0)),
        wire.Pose((12.5, 40.0, 0.0), (0.0, 0.0, math.sin(0.3), math.cos(0.3))),
    )
    paths = (
        wire.PathDetails((0, 1), True, (0,), ()),
        wire.PathDetails((0, 2), False, (2,), ((3.0, 9.0, 0.5, 4.0), (6.0, 18.0, 0.7, 2.5))),
        wire.PathDetails((2, 1), False, (1, 1), ((20.0, 10.0, 1.0, 6.0), (22.0, 9.0, 1.0, 0.0))),
    )
    base = wire.ChannelData(nodes, paths)
    yield base

    def with_node(i, pose):
        return wire.ChannelData(nodes[:i] + (pose,) + nodes[i + 1:], paths)

    def with_path(k, pd):
        return wire.ChannelData(nodes, paths[:k] + (pd,) + paths[k + 1:])

    def with_hop(k, j, hop):
        pd = paths[k]
        hops = pd.hop_points[:j] + (hop,) + pd.hop_points[j + 1:]
        return with_path(k, wire.PathDetails(pd.ids, pd.los, pd.num_hops, hops))

    nan, inf = float("nan"), float("inf")
    for i in range(3):
        for axis in range(3):
            for v in (nan, inf, -inf):
                position = list(nodes[i].position)
                position[axis] = v
                yield with_node(i, wire.Pose(position, nodes[i].orientation))
        for axis in range(4):
            for v in (nan, inf, -inf):
                orientation = list(nodes[i].orientation)
                orientation[axis] = v
                yield with_node(i, wire.Pose(nodes[i].position, orientation))
    # quaternion norms on both sides of 1 +- tol, down to single ulps
    tol = wire.QUATERNION_NORM_TOL
    for edge in (1.0 + tol, 1.0 - tol):
        for offset in (-1e-12, 1e-12):
            scale = edge + offset
            yield with_node(0, wire.Pose((0, 0, 1), tuple(scale * v for v in q)))
        w = edge
        for _ in range(4):
            w = math.nextafter(w, 0.0)
        for _ in range(8):
            yield with_node(1, wire.Pose((30, -4, 2), (0.0, 0.0, 0.0, w)))
            w = math.nextafter(w, 2.0)
    yield with_node(2, wire.Pose((0, 0, 0), (0.0, 0.0, 0.0, 1.01)))
    # finite but large enough that a sum of components overflows
    yield with_node(1, wire.Pose((1e308, 1e308, -1e308)))
    yield with_hop(1, 0, (1e308, 1e308, 1e308, 1e308))
    yield with_path(0, wire.PathDetails((1, 1), True, (0,), ()))
    for ids in ((-1, 1), (0, -1), (0, 3), (3, 0), (-1, 3)):
        yield with_path(0, wire.PathDetails(ids, True, (0,), ()))
    for ids in ((0, 2), (2, 0), (1, 2)):
        yield with_path(0, wire.PathDetails(ids, True, (0,), ()))  # duplicate pair
    yield wire.ChannelData(nodes, paths + (wire.PathDetails((1, 0), True, (0,), ()),))
    yield wire.ChannelData(nodes, paths + (wire.PathDetails((0, 1), True, (0,), ()),))
    for num_hops in ((-1,), (2**32,), (2**32 - 1,), (1, -1), (3, 2**32), (-5, 2**40)):
        yield with_path(1, wire.PathDetails((0, 2), False, num_hops, ()))
    for num_hops in ((1,), (3,), (1, 0), (0, 0, 1), (0, 3)):
        yield with_path(1, wire.PathDetails((0, 2), False, num_hops, paths[1].hop_points))
    for loss in (-1.0, -1e-300, -0.0, 0.0, -inf, inf, nan):
        yield with_hop(2, 1, (22.0, 9.0, 1.0, loss))
    for axis in range(3):
        for v in (nan, inf, -inf):
            hop = [3.0, 9.0, 0.5, 4.0]
            hop[axis] = v
            yield with_hop(1, 1, tuple(hop))
    yield with_hop(1, 1, (nan, 0.0, 0.0, -1.0))  # non-finite before negative
    for n_nodes in (0, 1):
        yield wire.ChannelData(nodes[:n_nodes], paths[:1])
        yield wire.ChannelData(nodes[:n_nodes], ())
    # two faults: the first in check order is the one reported
    yield wire.ChannelData(
        (wire.Pose((nan, 0, 0)),) + nodes[1:], (wire.PathDetails((1, 1), True, (0,), ()),)
    )
    yield wire.ChannelData(nodes, (paths[0], paths[0], wire.PathDetails((2, 2), True)))
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
    """The same corpus built from columns: the check names the same field
    in records it builds from them."""
    for cd in _validator_corpus():
        expected = _validation_outcome(oracle_validate_channel_data, cd)
        from_columns = wire.ChannelData.from_columns(*columns(cd))
        assert _validation_outcome(wire.validate_channel_data, from_columns) == expected, cd


def test_channel_check_runs_once_per_snapshot(monkeypatch):
    calls = []
    check = wire._columns_pass
    monkeypatch.setattr(wire, "_columns_pass", lambda cd: calls.append(cd) or check(cd))
    cd = msggen.random_channel_data(random.Random(5))
    for _ in range(3):
        wire.validate_channel_data(cd)
    bad = wire.ChannelData((wire.Pose((float("nan"), 0.0, 0.0)),))
    for _ in range(2):
        with pytest.raises(wire.InvariantViolation):
            wire.validate_channel_data(bad)
    assert calls == [cd, bad, bad]  # a snapshot that fails is checked again


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
        again = wire.ChannelData.from_columns(*columns(cd))
        assert repr(again) == repr(cd) and again == cd and hash(again) == hash(cd)
        rebuilt = wire.ChannelData(cd.node_list, cd.path_details)
        assert columns(rebuilt) == columns(cd)
        # the pair index lists each pair once, in order, smaller id first
        assert list(cd.pair_rows.items()) == [
            ((min(pd.ids), max(pd.ids)), k) for k, pd in enumerate(cd.path_details)
        ]


def test_records_are_always_built_from_the_columns():
    """Records given with list fields come back as the tuples the columns
    hold: equality, hashing, `repr` and the check read one representation."""
    cd = wire.ChannelData(
        [wire.Pose([0.0, 0.0, 0.0]), wire.Pose([3.0, 4.0, 0.0], [0.0, 0.0, 0.0, 1.0])],
        [wire.PathDetails([1, 0], False, [1], [[1.0, 2.0, 0.0, 6.0]])],
    )
    twin = wire.ChannelData.from_columns(*columns(cd))
    assert repr(cd) == repr(twin) and cd == twin and hash(cd) == hash(twin)
    assert cd.node_list[1] == wire.Pose((3.0, 4.0, 0.0), (0.0, 0.0, 0.0, 1.0))
    assert cd.path_details == (wire.PathDetails((1, 0), False, (1,), ((1.0, 2.0, 0.0, 6.0),)),)


def test_snapshot_fields_cannot_be_reassigned():
    cd = msggen.random_channel_data(random.Random(11))
    wire.validate_channel_data(cd)
    rows, records = cd.pair_rows, cd.path_details
    bad_poses = ((float("nan"),) * 7,) * len(cd.poses)
    for name, value in (("poses", bad_poses), ("ids", ()), ("_checked", False), ("extra", 1)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(cd, name, value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        del cd.hops
    assert cd.pair_rows is rows and cd.path_details is records
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
    with pytest.raises(wire.InvariantViolation, match="channel_data"):
        wire.encode_frame(wire.PhysicsUpdate(wire.MsgType.END, 0, b"not deflate"))
    # decoding a forged frame with garbage channel bytes must fail the same way
    payload = b"\x01" + struct.pack("<Q", 0) + struct.pack("<I", 3) + b"abc"
    forged = b"RNS1" + b"\x00" + struct.pack("<I", len(payload)) + payload
    with pytest.raises(wire.InvariantViolation, match="channel_data"):
        wire.decode_frame(forged)


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
        assert msg == hand_built and repr(msg) == repr(hand_built)
        assert wire.encode_frame(msg) == wire.encode_frame(hand_built)
        assert wire.channel_of(msg) is cd
    # only the hand-built messages' frames decoded their blobs
    assert len(calls) == 100


def test_channel_of_decodes_a_received_blob_once(monkeypatch):
    calls = _count_decodes(monkeypatch)
    rng = random.Random(0xD1CE)
    for _ in range(100):
        cd = msggen.random_channel_data(rng)
        blob = wire.compress_channel_blob(wire.encode_channel_data(cd))
        msg = wire.PhysicsUpdate(wire.MsgType.END, 3, blob)
        del calls[:]
        first = wire.channel_of(msg)
        assert first == cd
        assert wire.channel_of(msg) is first
        assert len(calls) == 1
        received, _ = wire.decode_frame(wire.encode_frame(msg))
        assert wire.channel_of(received) == cd
        assert len(calls) == 2
    del calls[:]
    assert wire.channel_of(wire.PhysicsUpdate(wire.MsgType.END, 3)) is None
    assert calls == []


def test_network_update_rejects_ragged_manifest():
    msg = wire.NetworkUpdate(
        wire.MsgType.BEGIN, 0, pkt_id=(1,), pkt_lengths=(10, 20), src_ip=("10.0.0.1",),
        dst_ip=("10.0.0.2",),
    )
    with pytest.raises(wire.InvariantViolation, match="manifest"):
        wire.encode_frame(msg)


def test_network_update_rejects_ragged_clearances():
    msg = wire.NetworkUpdate(
        wire.MsgType.END, 0, clear_pkt_id=(1,), clear_src_ip=("10.0.0.1",),
        clear_dst_ip=("10.0.0.2",), ber=(0.0, 0.1),
    )
    with pytest.raises(wire.InvariantViolation, match="clearance"):
        wire.encode_frame(msg)


def test_network_update_rejects_out_of_range_ber():
    msg = wire.NetworkUpdate(
        wire.MsgType.END, 0, clear_pkt_id=(1,), clear_src_ip=("10.0.0.1",),
        clear_dst_ip=("10.0.0.2",), ber=(1.5,),
    )
    with pytest.raises(wire.InvariantViolation, match="ber"):
        wire.encode_frame(msg)


def test_network_update_rejects_duplicate_pkt_id():
    msg = wire.NetworkUpdate(
        wire.MsgType.BEGIN, 0, pkt_id=(4, 4), pkt_lengths=(10, 10),
        src_ip=("10.0.0.1", "10.0.0.1"), dst_ip=("10.0.0.2", "10.0.0.2"),
    )
    with pytest.raises(wire.InvariantViolation, match="duplicate"):
        wire.encode_frame(msg)


def test_network_update_rejects_bad_address():
    msg = wire.NetworkUpdate(
        wire.MsgType.BEGIN, 0, pkt_id=(4,), pkt_lengths=(10,),
        src_ip=("not-an-ip",), dst_ip=("10.0.0.2",),
    )
    with pytest.raises(wire.InvariantViolation, match="IPv4"):
        wire.encode_frame(msg)


def test_decode_rejects_invalid_los_byte():
    cd = wire.ChannelData(
        node_list=(_pose(0, 0, 0), _pose(1, 0, 0)),
        path_details=(wire.PathDetails(ids=(0, 1), los=True, num_hops=(0,)),),
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


BAD_ADDRESSES = ("10.0.0.256", "::1", "not-an-ip", "", "1.2.3", "01.2.3.4", "10.0.0.1 ")
ADDRESS_FIELDS = ("src_ip", "dst_ip", "clear_src_ip", "clear_dst_ip")


def _one_break_variants(msg, k):
    """(variant, breaks only an address) for `msg` broken one way at a time."""
    rep = dataclasses.replace
    for j, name in enumerate(ADDRESS_FIELDS):
        addrs = getattr(msg, name)
        if addrs:
            bad = BAD_ADDRESSES[(k + j) % len(BAD_ADDRESSES)]
            i = k % len(addrs)
            yield rep(msg, **{name: addrs[:i] + (bad,) + addrs[i + 1:]}), True
    yield rep(msg, time_val=2**64), False
    yield rep(msg, time_val=-1), False
    yield rep(msg, src_ip=msg.src_ip + ("10.0.0.1",)), False
    yield rep(msg, ber=msg.ber + (0.5,)), False
    if len(msg.pkt_id) > 1:
        yield rep(msg, pkt_id=(msg.pkt_id[-1],) + msg.pkt_id[1:]), False
    if len(msg.clear_pkt_id) > 1:
        yield rep(msg, clear_pkt_id=msg.clear_pkt_id[:-1] + (msg.clear_pkt_id[0],)), False
    if msg.pkt_id:
        yield rep(msg, pkt_id=(2**64,) + msg.pkt_id[1:]), False
        yield rep(msg, pkt_id=msg.pkt_id[:-1] + (-1,)), False
        yield rep(msg, pkt_lengths=(2**32,) + msg.pkt_lengths[1:]), False
        yield rep(msg, pkt_lengths=msg.pkt_lengths[:-1] + (-5,)), False
        yield rep(msg, dst_ip=msg.dst_ip[1:]), False
    if msg.clear_pkt_id:
        yield rep(msg, clear_pkt_id=(2**64 + 3,) + msg.clear_pkt_id[1:]), False
        yield rep(msg, clear_dst_ip=msg.clear_dst_ip[1:]), False
        for b in (1.5, -0.25, float("nan"), float("inf")):
            yield rep(msg, ber=msg.ber[:-1] + (b,)), False


def test_network_check_matches_the_address_parsing_oracle():
    """The structural check agrees with the old one that also parsed every
    address, except where only an address is broken; there `encode_frame`
    raises what the old check raised.  Whole frames agree with the old
    encoder, in bytes or in the error raised."""
    counts = {"valid": 0, "address": 0, "structure": 0}
    rng = random.Random(0x1B4)
    for k in range(300):
        msg = msggen.random_network_update(rng)
        cases = [(msg, False)] + list(_one_break_variants(msg, k))
        for case, address_only in cases:
            old = _validation_outcome(wire_oracles.validate_network_update, case)
            new = _validation_outcome(wire.validate_network_update, case)
            frame = _validation_outcome(wire.encode_frame, case)
            assert frame == _validation_outcome(wire_oracles.encode_frame, case), case
            if address_only:
                assert old[0] is wire.InvariantViolation and "IPv4" in old[1], case
                assert new is None and frame == old, case
                counts["address"] += 1
            else:
                assert new == old, case
                counts["valid" if old is None else "structure"] += 1
    assert counts["valid"] >= 300 and counts["address"] > 500 and counts["structure"] > 2000


def test_network_frames_match_the_address_parsing_codec():
    rng = random.Random(0xF4A)
    for _ in range(300):
        msg = msggen.random_network_update(rng)
        frame = wire.encode_frame(msg)
        assert frame == wire_oracles.encode_frame(msg)
        decoded, rest = wire.decode_frame(frame)
        assert rest == b""
        assert decoded == wire_oracles.decode_frame(frame) == msg


def test_decoded_addresses_read_as_ipaddress_reads_them():
    rng = random.Random(0x1F4)
    raws = [b"\x00\x00\x00\x00", b"\xff\xff\xff\xff"]
    raws += [rng.randbytes(4) for _ in range(10_000)]
    n = len(raws)
    payload = b"".join([
        b"\x00", struct.pack("<Q", 0),
        struct.pack(f"<I{n}Q", n, *range(n)),
        struct.pack(f"<I{n}I", n, *[1] * n),
        struct.pack("<I", n), b"".join(raws),
        struct.pack("<I", n), b"".join(reversed(raws)),
        struct.pack("<4I", 0, 0, 0, 0),
    ])
    frame = b"RNS1\x01" + struct.pack("<I", len(payload)) + payload
    msg, rest = wire.decode_frame(frame)
    assert rest == b""
    expected = tuple(str(ipaddress.IPv4Address(raw)) for raw in raws)
    assert msg.src_ip[:2] == ("0.0.0.0", "255.255.255.255")
    assert msg.src_ip == expected
    assert msg.dst_ip == expected[::-1]
    assert wire.encode_frame(msg) == frame


def test_truncated_list_names_the_first_missing_item():
    msg = wire.NetworkUpdate(
        wire.MsgType.BEGIN, 0, pkt_id=(1, 2, 3), pkt_lengths=(10, 20, 30),
        src_ip=("10.0.0.1",) * 3, dst_ip=("10.0.0.2",) * 3,
    )
    payload = wire.encode_frame(msg)[9:]
    # 1 + 8 + (4 + 24) + (4 + 12) + 4 = 57 bytes reach the first source address
    for cut, what in ((9 + 4 + 17, "pkt_id[2]"), (57 + 6, "src_ip[1]")):
        forged = b"RNS1\x01" + struct.pack("<I", cut) + payload[:cut]
        message = f"NetworkUpdate.{what}: payload truncated"
        with pytest.raises(wire.FrameError, match=re.escape(message)):
            wire.decode_frame(forged)
