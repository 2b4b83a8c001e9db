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

The last tests pin the contract of every record class in the package:
its fields in order with their defaults, and how it compares, hashes,
prints, pickles and refuses assignment.
"""

from __future__ import annotations

import inspect
import pickle
from pathlib import Path

import pytest

from cosimnet import scenario, wire
from cosimnet.flows import DataFlow, FlowConfig, FlowDelivery
from cosimnet.metrics import Histogram
from cosimnet.net_coord import DeliveryRecord, Ledger, NetCoordConfig, NetRunSummary
from cosimnet.netsim import (
    DEFAULT_MCS_TABLE,
    LinkState,
    MediumEvent,
    MediumEventKind,
    RadioParams,
    ReferenceNetSim,
)
from cosimnet.phys_coord import PhysCoordConfig, PhysRunSummary
from cosimnet.physics import (
    VECTOR_MIN_TESTS,
    AgentTrack,
    Box,
    ChannelFidelity,
    FidelityKind,
    ReferencePhysicsSim,
    WorldModel,
)
from cosimnet.scenario import (
    MetricsConfig,
    PairSample,
    RunResult,
    ScenarioConfig,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from cosimnet.sync import RunStats

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
    assert_tuple_of(cd.poses, tuple)
    for row in cd.poses:
        assert_tuple_of(row, float, 7)
    assert_tuple_of(cd.ids, tuple)
    for pair in cd.ids:
        assert_tuple_of(pair, int, 2)
    assert_tuple_of(cd.los, bool)
    # a simulator's deferred snapshot is a private subclass until its pair
    # columns are read, as `los` just was
    assert type(cd) is wire.ChannelData
    for column in (cd.path_start, cd.num_hops, cd.hop_start):
        assert_tuple_of(column, int)
    assert_tuple_of(cd.hops, tuple)
    for hop in cd.hops:
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
    assert list(msg._fields) == ["msg_type", "time_val"]


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
        assert any(cd.hops for cd in channels)


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
            wire.channel_of(m).hops
            for m in decoded if isinstance(m, wire.PhysicsUpdate) and m.channel_data
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


# -- the records' contract ----------------------------------------------------

_A, _B = "10.0.0.1", "10.0.0.2"
_BOUNDS = Box((0, 0, 0), (10, 10, 10))
_WALL = Box((4, 0, 0), (5, 10, 10), 3)
_TRACK = AgentTrack(0, [(1, 1, 1), (2, 1, 1)], 1)
_LOS = ChannelFidelity.los_nlos()


def _channel_columns(los):
    """Two agents and one pair with one path of one hop."""
    poses = ((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0), (3.0, 4.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    return poses, ((0, 1),), (los,), (0, 1), (1,), (0, 1), ((1.5, 2.0, 0.0, 6.0),)


def _scenario_args(seed):
    return (
        WorldModel(_BOUNDS), (_TRACK,), ((0, _A),), RadioParams(), W, 10 * W, _LOS,
        (FlowConfig(_A, _B),), seed, MetricsConfig(),
    )


# name: (class, positional arguments, arguments of an unequal instance, the
# fields of `class(*arguments)` in order with their values, whether it is
# immutable).  Values show the records' normalisation: given ints and lists,
# they hold floats and tuples.  An unequal instance of mutable run state is
# one whose first field is then assigned another value.
RECORDS = {
    "FlowConfig": (
        FlowConfig, (_A, _B), (_B, _A),
        (("src", _A), ("dst", _B), ("payload_size", 1000), ("arq_window", 16),
         ("retransmit_timeout_ns", 200_000_000)),
        True,
    ),
    "FlowDelivery": (
        FlowDelivery, (3, 10, 20), (3, 10, 21),
        (("seq", 3), ("first_sent_at", 10), ("delivered_at", 20)),
        True,
    ),
    "DataFlow": (
        DataFlow, (0, FlowConfig(_A, _B), "src-ep", "dst-ep"), None,
        (("flow_id", 0), ("config", FlowConfig(_A, _B)), ("_src_ep", "src-ep"),
         ("_dst_ep", "dst-ep"), ("next_seq", 0), ("unacked", {}), ("first_sent", {}),
         ("rcv_next", 0), ("seen", set()), ("deliveries", []), ("sent_total", 0),
         ("retransmit_total", 0), ("delivered_total", 0), ("duplicate_total", 0),
         ("acked_total", 0), ("acks_sent", 0), ("_due", 0), ("_packets", {})),
        False,
    ),
    "Histogram": (
        Histogram, ((0.0, 1.0), (2.0,), (2.0,)), ((0.0, 1.0), (2.0,), (1.0,)),
        (("edges", (0.0, 1.0)), ("counts", (2.0,)), ("density", (2.0,))),
        True,
    ),
    "DeliveryRecord": (
        DeliveryRecord, (7, _A, _B, 420, 1000, 2000, 0.0), (7, _A, _B, 420, 1000, 2000, 1e-6),
        (("pkt_id", 7), ("src", _A), ("dst", _B), ("length", 420), ("captured_at", 1000),
         ("released_at", 2000), ("ber", 0.0)),
        True,
    ),
    "NetCoordConfig": (
        NetCoordConfig, (W, [[0, _A], (1, _B)]), (W, [(0, _A)]),
        (("window_ns", W), ("agent_address_map", ((0, _A), (1, _B))),
         ("expiry_windows", 30_000), ("seed", 0)),
        True,
    ),
    "NetRunSummary": (
        NetRunSummary, (), None,
        (("windows_completed", 0), ("captured_total", 0), ("released_total", 0),
         ("released_bytes", 0), ("expired_total", 0), ("rejected_total", 0),
         ("late_cleared_total", 0), ("held_at_end", 0), ("pending_at_end", 0),
         ("ledger", Ledger()), ("stats", RunStats())),
        False,
    ),
    "RadioParams": (
        RadioParams, (), (25,),
        (("tx_power", 20.0), ("noise_floor", -90.0), ("pl0", 40.0), ("ref_distance", 1.0),
         ("path_loss_exponent", 2.4), ("per_packet_overhead", 200_000),
         ("mcs_table", DEFAULT_MCS_TABLE), ("ber_at_threshold", 1e-2),
         ("ber_decade_per_db", 3.0), ("queue_capacity", 100)),
        True,
    ),
    "LinkState": (
        LinkState, ((0, 1), 10.0, 0.0, 64.0, 46.0, 65e6, 1e-9),
        ((0, 1), 10.0, 0.0, 64.0, 46.0, None, 0.5),
        (("pair", (0, 1)), ("distance", 10.0), ("wall_loss", 0.0), ("path_loss", 64.0),
         ("snr", 46.0), ("phy_rate", 65e6), ("ber", 1e-9)),
        True,
    ),
    "MediumEvent": (
        MediumEvent, (5, MediumEventKind.TX_START, 1, _A, _B),
        (5, MediumEventKind.TX_END, 1, _A, _B),
        (("time", 5), ("kind", MediumEventKind.TX_START), ("pkt_id", 1), ("src", _A),
         ("dst", _B)),
        True,
    ),
    "PhysCoordConfig": (
        PhysCoordConfig, (W, _LOS), (2 * W, _LOS),
        (("window_ns", W), ("fidelity", _LOS), ("agent_address_map", ())),
        True,
    ),
    "PhysRunSummary": (
        PhysRunSummary, (3, 2), None,
        (("windows_completed", 3), ("extractions", 2), ("stats", RunStats())),
        False,
    ),
    "Box": (
        Box, ((0, 0, 0), [1, 2, 3]), ((0, 0, 0), (1, 2, 4)),
        (("min_corner", (0.0, 0.0, 0.0)), ("max_corner", (1.0, 2.0, 3.0)),
         ("penetration_loss", 0.0)),
        True,
    ),
    "WorldModel": (
        WorldModel, (_BOUNDS, [_WALL]), (_BOUNDS,),
        (("bounds", _BOUNDS), ("obstacles", (_WALL,))),
        True,
    ),
    "AgentTrack": (
        AgentTrack, (0, [(0, 0, 0), [1, 0, 0]], 2), (1, [(0, 0, 0), [1, 0, 0]], 2),
        (("agent_id", 0), ("waypoints", ((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
         ("speed", 2.0), ("loop", False)),
        True,
    ),
    "ChannelFidelity": (
        ChannelFidelity, (FidelityKind.DISK, 5), (FidelityKind.DISK, 6),
        (("kind", FidelityKind.DISK), ("radius", 5.0)),
        True,
    ),
    "MetricsConfig": (
        MetricsConfig, (), (W,),
        (("sample_period_ns", 10_000_000), ("smoothing_window_ns", 200_000_000),
         ("histogram_bins", 40)),
        True,
    ),
    "ScenarioConfig": (
        ScenarioConfig, _scenario_args(0), _scenario_args(1),
        tuple(zip(
            ("world", "tracks", "agent_address_map", "radio", "window_ns", "duration_ns",
             "fidelity", "flows", "seed", "metrics"),
            _scenario_args(0),
        )),
        True,
    ),
    "PairSample": (
        PairSample, (W, (0, 1), True, 3.0, 0, 0.0), (W, (0, 1), False, 3.0, 1, 2.0),
        (("t", W), ("pair", (0, 1)), ("los", True), ("distance", 3.0), ("wall_count", 0),
         ("wall_loss", 0.0)),
        None,  # compared and shown by field, never hashed or assigned
    ),
    "RunResult": (
        RunResult, tuple(f"value {k}" for k in range(15)), None,
        (*zip(
            ("config", "out_dir", "sample_times_ns", "goodput_bps", "goodput_smoothed",
             "delay_ns", "delay_smoothed", "rate_hist", "delay_hist", "deliveries",
             "timeline", "net_summary", "phys_summary", "flow_stats", "netsim_stats"),
            (f"value {k}" for k in range(15)),
        ), ("artifacts", {})),
        False,
    ),
    "RunStats": (
        RunStats, (), None,
        (("windows_completed", 0), ("window_wall_seconds", [])),
        False,
    ),
    "ChannelData": (
        wire.ChannelData, _channel_columns(False), _channel_columns(True),
        tuple(zip(
            ("poses", "ids", "los", "path_start", "num_hops", "hop_start", "hops"),
            _channel_columns(False),
        )),
        True,
    ),
    "PhysicsUpdate": (
        wire.PhysicsUpdate, (wire.MsgType.END, 5), (wire.MsgType.BEGIN, 5),
        (("msg_type", wire.MsgType.END), ("time_val", 5), ("channel_data", b"")),
        True,
    ),
    "NetworkUpdate": (
        wire.NetworkUpdate, (wire.MsgType.BEGIN, 0), (wire.MsgType.END, 0),
        (("msg_type", wire.MsgType.BEGIN), ("time_val", 0)),
        True,
    ),
}
STATE = (DataFlow, NetRunSummary, PhysRunSummary, RunResult, RunStats)


def comparable(value):
    """`value`, or for mutable run state, which compares by identity, its
    class and attributes."""
    return (type(value), vars(value)) if isinstance(value, STATE) else value


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_keep_their_fields_equality_hash_and_repr(name):
    """Each record's fields in order with their defaults and normalised
    values; equality by value, pickling, `hash` and `repr` by field, and
    assignment refused, for the immutable ones.  Mutable run state
    promises no field-wise equality: it equals itself and not an unequal
    instance."""
    cls, args, other_args, fields, immutable = RECORDS[name]
    record, twin = cls(*args), cls(*args)
    assert cls.__name__ == name
    names = [field for field, _ in fields]
    if cls in STATE:
        assert list(vars(record)) == names
        other = cls(*args)
        setattr(other, names[0], "another value")
    else:
        assert list(inspect.signature(cls).parameters) == names
        other = cls(*other_args)
    for field, value in fields:
        held = getattr(record, field)
        assert type(held) is type(value) and comparable(held) == comparable(value), field
        if isinstance(value, (list, dict, set)):  # a container of its own
            assert held is not getattr(twin, field), field
    assert record == record and not record != record
    assert record != other and not record == other
    if cls in STATE:
        return
    assert record == twin and not record != twin
    assert pickle.loads(pickle.dumps(record)) == record
    body = ", ".join(f"{field}={value!r}" for field, value in fields)
    assert repr(record) == f"{name}({body})"
    if not immutable:
        return
    values = tuple(value for _, value in fields)
    assert hash(record) == hash(twin) == hash(values)
    for field, value in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    assert tuple(getattr(record, field) for field in names) == values
