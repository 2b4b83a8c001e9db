"""Every producer of a wire record passes exactly the field types the
records declare.

The records store their fields as given, with no conversion, so a
producer that passed a numpy scalar, an int for a float or a list for a
tuple would change `repr` (which the timeline oracle compares) or break
hashing, while `==` might still hold.  These tests run each producer in
`src/` and check the type of every field: a tuple of `int`, `float` or
`str`, a `bool` for `los`, and `MsgType` members.  The packet rows the
coordinator hands the netsim, and those it hands back, hold exact types
too, and the ledger's rows read back as `DeliveryRecord`s of the same
exact types.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from cosimnet import scenario, wire
from cosimnet.net_coord import DeliveryRecord
from cosimnet.netsim import ReferenceNetSim
from cosimnet.physics import (
    VECTOR_MIN_TESTS,
    ChannelFidelity,
    FidelityKind,
    ReferencePhysicsSim,
)
from cosimnet.scenario import load_scenario, parse_scenario, run_scenario

from tests.test_lockstep_oracle import socket_link_pair, swarm_document, two_peer_run

SCENARIOS = Path(scenario.__file__).parent / "scenarios"
W = 1_000_000
WINDOWS = 10  # the shortest run the default 10 ms sample period allows


def assert_tuple_of(value, kind, size=None):
    assert type(value) is tuple, repr(value)
    assert size is None or len(value) == size, repr(value)
    for item in value:
        assert type(item) is kind, repr(value)


def assert_channel_types(cd):
    assert isinstance(cd, wire.ChannelData)
    assert_tuple_of(cd.node_list, wire.Pose)
    for pose in cd.node_list:
        assert_tuple_of(pose.position, float, 3)
        assert_tuple_of(pose.orientation, float, 4)
    assert_tuple_of(cd.path_details, wire.PathDetails)
    # a simulator's deferred snapshot is a private subclass until its
    # columns are read, as the records just were
    assert type(cd) is wire.ChannelData
    for pd in cd.path_details:
        assert_tuple_of(pd.ids, int, 2)
        assert type(pd.los) is bool, repr(pd)
        assert_tuple_of(pd.num_hops, int)
        assert_tuple_of(pd.hop_points, tuple)
        for hop in pd.hop_points:
            assert_tuple_of(hop, float, 4)


def assert_update_types(msg):
    assert type(msg.msg_type) is wire.MsgType, repr(msg)
    assert type(msg.time_val) is int, repr(msg)
    if isinstance(msg, wire.PhysicsUpdate):
        assert type(msg) is wire.PhysicsUpdate
        assert type(msg.channel_data) is bytes, repr(msg)
        if msg.channel_data:
            assert_channel_types(wire.channel_of(msg))
        return
    assert type(msg) is wire.NetworkUpdate
    assert [f.name for f in dataclasses.fields(msg)] == ["msg_type", "time_val"]


ROW_TYPES = (int, int, str, str, int, int, int, bytes)


def assert_row_types(row):
    """A packet row: (pkt_id, length, src, dst, src agent, dst agent,
    captured_at, payload)."""
    assert type(row) is tuple and tuple(map(type, row)) == ROW_TYPES, repr(row)


def disk_document() -> dict:
    document = swarm_document(windows=WINDOWS)
    document["fidelity"] = {"kind": "disk", "radius": 60.0}
    return document


WORLDS = {
    **{
        path.stem: (lambda path=path: load_scenario(path, duration_ns=WINDOWS * W))
        for path in sorted(SCENARIOS.glob("*.json"))
    },
    "disk": lambda: parse_scenario(disk_document()),
    "vector": lambda: parse_scenario(swarm_document(boxes=16, windows=WINDOWS)),
}


def takes_vector_path(config) -> bool:
    agents = len(config.tracks)
    tests = agents * (agents - 1) // 2 * len(config.world.obstacles)
    return config.fidelity.kind is FidelityKind.LOS_NLOS and tests >= VECTOR_MIN_TESTS


class RecordingNetSim(ReferenceNetSim):
    """The reference netsim, keeping every channel it sees, and the rows it
    takes and clears in each window."""

    records: list = []

    def apply_channel(self, cd):
        self.records.append(cd)
        super().apply_channel(cd)

    def advance(self, window_start, window_ns, packets):
        cleared = super().advance(window_start, window_ns, packets)
        self.records.append((list(packets), cleared))
        return cleared


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_in_process_producers_build_exact_types(tmp_path, monkeypatch, name):
    """`ReferencePhysicsSim`'s pose rows and snapshot kernels (through the
    snapshots `apply_channel` receives), `capture`'s rows as the netsim
    takes and clears them, and `channel_update` on each snapshot."""
    config = WORLDS[name]()
    assert takes_vector_path(config) == (name == "vector")
    assert (config.fidelity.kind is FidelityKind.DISK) == (name == "disk")
    records = []
    monkeypatch.setattr(RecordingNetSim, "records", records)
    monkeypatch.setattr(scenario, "ReferenceNetSim", RecordingNetSim)
    run_scenario(config, tmp_path)

    channels = [r for r in records if isinstance(r, wire.ChannelData)]
    windows = [r for r in records if not isinstance(r, wire.ChannelData)]
    assert len(channels) == WINDOWS - 1 and len(windows) == WINDOWS
    for k, cd in enumerate(channels):
        assert_channel_types(cd)
        assert_update_types(wire.channel_update((k + 1) * W, cd))
    for packets, cleared in windows:
        for row in packets:
            assert_row_types(row)
        for row, ber in cleared:
            assert_row_types(row)
            assert type(ber) is float, repr(ber)
    # the checks above saw rows both taken and cleared
    assert any(packets for packets, _ in windows) and any(cleared for _, cleared in windows)
    if name == "vector":
        assert any(pd.hop_points for cd in channels for pd in cd.path_details)


@pytest.mark.parametrize("name", ["static_los_30m", "vector"])
def test_socket_split_frames_carry_exact_types(tmp_path, monkeypatch, name):
    """Both sides' BEGINs (`sync.run_lockstep`), the physics ENDs
    (`channel_update`) and the network side's bare ENDs as sent, and every
    message `decode_frame` builds from them."""
    config = WORLDS[name]()
    sent, decoded = [], []  # appended to from both sides' threads
    encode, decode = wire.encode_frame, wire.decode_frame

    def recording_encode(msg):
        sent.append(msg)
        return encode(msg)

    def recording_decode(buf):
        msg, rest = decode(buf)
        if msg is not None:
            decoded.append(msg)
        return msg, rest

    monkeypatch.setattr(wire, "encode_frame", recording_encode)
    monkeypatch.setattr(wire, "decode_frame", recording_decode)
    phys_link, net_link = socket_link_pair()
    two_peer_run(config, phys_link, net_link, tmp_path)
    monkeypatch.undo()

    # each side sends 2N + 1 frames, and closes without reading the other's
    # last BEGIN
    assert len(sent) == 2 * (2 * WINDOWS + 1) and len(decoded) == 4 * WINDOWS
    for msg in sent + decoded:
        assert_update_types(msg)
    assert {(type(m), m.msg_type) for m in decoded} == {
        (cls, kind)
        for cls in (wire.PhysicsUpdate, wire.NetworkUpdate)
        for kind in wire.MsgType
    }
    if name == "vector":
        assert any(
            pd.hop_points
            for m in decoded if isinstance(m, wire.PhysicsUpdate) and m.channel_data
            for pd in wire.channel_of(m).path_details
        )


def test_physics_update_decoded_from_a_bytearray_holds_bytes():
    config = WORLDS["vector"]()
    cd = ReferencePhysicsSim(config.world, config.tracks).channel_snapshot(
        ChannelFidelity.los_nlos()
    )
    frame = wire.encode_frame(wire.channel_update(3 * W, cd))
    msg, rest = wire.decode_frame(bytearray(frame))
    assert rest == bytearray()
    assert (msg.msg_type, msg.time_val) == (wire.MsgType.END, 3 * W)
    assert_channel_types(wire.channel_of(msg))
    assert wire.channel_of(msg) == cd


def assert_ledger_types(ledger):
    records = list(ledger)
    assert records and len(records) == len(ledger)
    for record in records:
        assert type(record) is DeliveryRecord
        for name, kind in (
            ("pkt_id", int), ("src", str), ("dst", str), ("length", int),
            ("captured_at", int), ("released_at", int), ("ber", float),
        ):
            assert type(getattr(record, name)) is kind, repr(record)
    assert type(ledger[0]) is DeliveryRecord and ledger[0] == records[0]
    assert ledger[-2:] == records[-2:]


@pytest.mark.parametrize("name", ["static_los_30m", "vector"])
def test_ledger_rows_read_back_as_exact_records(tmp_path, name):
    """The coordinator keeps its ledger as rows; each one read, in process
    or on the split's network side, is a `DeliveryRecord` of exact types."""
    config = WORLDS[name]()
    assert_ledger_types(run_scenario(config, tmp_path / "loop").net_summary.ledger)
    result = two_peer_run(config, *socket_link_pair(), tmp_path / "split")
    assert_ledger_types(result.net_summary.ledger)
