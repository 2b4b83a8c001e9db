"""ARQ flows: framing, dedup, retransmission, and full windowed runs."""

from __future__ import annotations

import random
import zlib
from pathlib import Path

import pytest

from cosimnet import flows, scenario
from cosimnet.flows import (
    ACK_KIND,
    ACK_SIZE,
    DATA_HEADER,
    DATA_KIND,
    DataFlow,
    FlowConfig,
    FlowDelivery,
    FlowHost,
    decode_packet,
    encode_ack,
    encode_data,
)
from cosimnet.net_coord import InProcessBackend, NetCoordConfig, NetworkCoordinator
from cosimnet.netsim import RadioParams, ReferenceNetSim
from cosimnet.scenario import load_scenario, run_scenario
from cosimnet.wire import PathDetails, Pose
from cosimnet import wire

W = 10_000_000
IPS = ("10.0.0.1", "10.0.0.2")
AMAP = ((0, IPS[0]), (1, IPS[1]))
NO_BER = RadioParams(ber_at_threshold=0.0)


def channel(wall_loss=None):
    if wall_loss is None:
        pd = PathDetails((0, 1), True, (0,), ())
    else:
        pd = PathDetails((0, 1), False, (1,), ((0.5, 0.0, 0.0, wall_loss),))
    return wire.ChannelData((Pose((0, 0, 0)), Pose((1.0, 0, 0))), (pd,))


# -- framing -------------------------------------------------------------------


def test_data_packet_round_trip():
    raw = encode_data(3, 12345, 1000)
    assert len(raw) == 1000
    assert decode_packet(raw) == (DATA_KIND, 3, 12345)


def test_ack_packet_round_trip():
    raw = encode_ack(0, 7)
    assert len(raw) == ACK_SIZE
    assert decode_packet(raw) == (ACK_KIND, 0, 7)


def test_decode_rejects_damage():
    raw = encode_data(1, 5, 100)
    flipped = bytes([raw[0]]) + bytes([raw[1] ^ 0x10]) + raw[2:]
    assert decode_packet(flipped) is None  # header damage breaks the crc
    assert decode_packet(raw[:-1] + bytes([raw[-1] ^ 1])) is None
    assert decode_packet(raw[:DATA_HEADER - 1]) is None
    assert decode_packet(bytes([9]) + raw[1:]) is None


def concatenating_packet(kind, flow_id, seq, body):
    """A packet with its CRC-32 over the header and body joined, as the
    encoders computed it before running it on from the header to the body.
    Kept as their oracle."""
    head = flows._HEAD.pack(kind, flow_id, seq, 0)[:10]
    return flows._HEAD.pack(kind, flow_id, seq, zlib.crc32(head + body)) + body


def test_running_crc_matches_the_crc_of_the_concatenation():
    filler = flows._FILLER
    for flow_id in (0, 7, 255):
        for seq in (0, 1, 255, 256, 1_000_003, 2**64 - 1):
            body = filler[seq % 256 : seq % 256 + 1000 - DATA_HEADER]
            assert encode_data(flow_id, seq, 1000) == concatenating_packet(
                DATA_KIND, flow_id, seq, body
            )
            ack_body = filler[seq % 256 : seq % 256 + ACK_SIZE - DATA_HEADER]
            assert encode_ack(flow_id, seq) == concatenating_packet(
                ACK_KIND, flow_id, seq, ack_body
            )
            assert decode_packet(encode_data(flow_id, seq, 1000)) == (DATA_KIND, flow_id, seq)


def test_bodies_differ_across_sequence_numbers():
    assert encode_data(0, 1, 500) != encode_data(0, 2, 500)


def test_flow_config_validation():
    with pytest.raises(ValueError, match="differ"):
        FlowConfig(IPS[0], IPS[0])
    with pytest.raises(ValueError, match="payload_size"):
        FlowConfig(IPS[0], IPS[1], payload_size=13)
    with pytest.raises(ValueError, match="payload_size"):
        FlowConfig(IPS[0], IPS[1], payload_size=9000)
    with pytest.raises(ValueError, match="arq_window"):
        FlowConfig(IPS[0], IPS[1], arq_window=0)


# -- sender / receiver state ----------------------------------------------------


class SilentEndpoint:
    def __init__(self):
        self.sent = []

    def send(self, dst, payload):
        self.sent.append((dst, payload))
        return True

    def receive(self):
        return None


def bare_flow(**kw):
    cfg = FlowConfig(IPS[0], IPS[1], **kw)
    return DataFlow(0, cfg, SilentEndpoint(), SilentEndpoint())


def test_pump_fills_the_window_greedily():
    flow = bare_flow(arq_window=5)
    flow.pump(0)
    assert flow.sent_total == 5
    assert sorted(flow.unacked) == [0, 1, 2, 3, 4]
    flow.pump(0)
    assert flow.sent_total == 5  # window full, nothing resent yet


def test_cumulative_ack_clears_everything_below_the_mark():
    flow = bare_flow(arq_window=4)
    flow.pump(0)
    flow.on_ack(3)
    assert flow.acked_total == 3
    assert sorted(flow.unacked) == [3]
    flow.on_ack(3)  # repeated mark clears nothing more
    assert flow.acked_total == 3
    flow.pump(W)
    assert flow.next_seq == 7
    assert sorted(flow.unacked) == [3, 4, 5, 6]


def test_retransmit_fires_only_after_the_timeout():
    flow = bare_flow(arq_window=1, retransmit_timeout_ns=2 * W)
    flow.pump(0)
    flow.pump(W)
    assert flow.retransmit_total == 0
    flow.pump(2 * W)
    assert flow.retransmit_total == 1
    assert flow.sent_total == 2


def test_receiver_dedups_and_always_reacks():
    flow = bare_flow()
    flow.on_data(4, W)
    flow.on_data(4, 2 * W)
    assert flow.delivered_total == 1
    assert flow.duplicate_total == 1
    assert flow.acks_sent == 2
    assert [d.seq for d in flow.deliveries] == [4]
    acks = flow._dst_ep.sent
    assert all(dst == IPS[0] for dst, _ in acks)
    # seq 4 arrived out of order, so the cumulative mark stays at 0
    assert all(decode_packet(p) == (ACK_KIND, 0, 0) for _, p in acks)


def test_cumulative_mark_advances_over_filled_gaps():
    flow = bare_flow()
    marks = []
    flow._dst_ep.sent = []
    for seq, t in ((0, W), (2, W), (1, 2 * W)):
        flow.on_data(seq, t)
        marks.append(decode_packet(flow._dst_ep.sent[-1][1])[2])
    assert marks == [1, 1, 3]


# -- windowed runs through the real pipeline --------------------------------------


def windowed_run(n_windows, flows, wall_loss=None, seed=0, params=NO_BER):
    cfg = NetCoordConfig(W, AMAP, seed=seed)
    sim = ReferenceNetSim(params, dict(AMAP))
    backend = InProcessBackend(cfg.addresses)
    host = FlowHost(backend)
    for flow_cfg in flows:
        host.add_flow(flow_cfg)
    coord = NetworkCoordinator(cfg, sim, backend, app_tick=host.tick)
    cd = channel(wall_loss)
    for k in range(n_windows):
        coord.simulate(k * W, W, cd if k else None)
    return host, coord


def test_clean_link_delivers_a_contiguous_prefix_in_order():
    host, coord = windowed_run(
        40, [FlowConfig(IPS[0], IPS[1], retransmit_timeout_ns=60 * W)]
    )
    flow = host.flows[0]
    seqs = [d.seq for d in flow.deliveries]
    assert len(seqs) > 20
    assert seqs == list(range(len(seqs)))  # FIFO service, no corruption
    assert flow.retransmit_total == 0
    assert flow.duplicate_total == 0
    assert host.corrupt_total == 0
    assert all(d.delivered_at - d.first_sent_at >= W for d in flow.deliveries)


def test_two_opposite_flows_share_endpoints_without_crosstalk():
    host, _ = windowed_run(
        40,
        [
            FlowConfig(IPS[0], IPS[1], retransmit_timeout_ns=60 * W),
            FlowConfig(IPS[1], IPS[0], retransmit_timeout_ns=60 * W),
        ],
    )
    assert host.stray_total == 0
    assert host.corrupt_total == 0
    for flow in host.flows:
        seqs = [d.seq for d in flow.deliveries]
        assert len(seqs) > 10
        assert seqs == list(range(len(seqs)))


def test_noisy_link_recovers_via_retransmission():
    # 37 dB of wall leaves snr 7 dB over an MCS threshold: ber ~5e-5,
    # so roughly a third of the kilobyte packets arrive damaged
    host, coord = windowed_run(
        200,
        [FlowConfig(IPS[0], IPS[1], arq_window=4, retransmit_timeout_ns=4 * W)],
        wall_loss=37.0,
        params=RadioParams(),
        seed=3,
    )
    flow = host.flows[0]
    assert host.corrupt_total > 0
    assert flow.retransmit_total > 0
    assert flow.delivered_total > 0
    seqs = sorted(d.seq for d in flow.deliveries)
    assert len(set(seqs)) == len(seqs)
    # selective repeat: delivery can reorder, but nothing is lost forever
    # below the highest delivered seq once retransmissions settle
    assert set(range(min(10, len(seqs)))) <= set(seqs)


def test_noisy_runs_are_deterministic_per_seed():
    a, _ = windowed_run(
        120, [FlowConfig(IPS[0], IPS[1], arq_window=4, retransmit_timeout_ns=4 * W)],
        wall_loss=37.0, params=RadioParams(), seed=9,
    )
    b, _ = windowed_run(
        120, [FlowConfig(IPS[0], IPS[1], arq_window=4, retransmit_timeout_ns=4 * W)],
        wall_loss=37.0, params=RadioParams(), seed=9,
    )
    assert a.flows[0].deliveries == b.flows[0].deliveries
    assert a.flows[0].sent_total == b.flows[0].sent_total
    assert a.corrupt_total == b.corrupt_total


def unpruned_on_data(self, seq, t):
    """`DataFlow.on_data` before it pruned `seen`, kept as its oracle: every
    seq ever delivered stays in `seen`."""
    if seq in self.seen:
        self.duplicate_total += 1
    else:
        self.seen.add(seq)
        self.delivered_total += 1
        first = self.first_sent.pop(seq, t)
        self.deliveries.append(FlowDelivery(seq, first, t))
        while self.rcv_next in self.seen:
            self.rcv_next += 1
    self._dst_ep.send(self.config.src, encode_ack(self.flow_id, self.rcv_next))
    self.acks_sent += 1


def test_receiver_keeps_only_out_of_order_seqs(tmp_path, monkeypatch):
    config = load_scenario(
        Path(scenario.__file__).parent / "scenarios" / "static_los_30m.json",
        duration_ns=3_000_000_000,
    )
    pruned = DataFlow.on_data
    most_held = []

    def watched(self, seq, t):
        pruned(self, seq, t)
        if len(most_held) <= self.flow_id:
            most_held.append(0)
        most_held[self.flow_id] = max(most_held[self.flow_id], len(self.seen))

    monkeypatch.setattr(flows.DataFlow, "on_data", watched)
    got = run_scenario(config, tmp_path / "pruned")
    monkeypatch.setattr(flows.DataFlow, "on_data", unpruned_on_data)
    expected = run_scenario(config, tmp_path / "unpruned")

    # the run is lossy: corrupted data packets leave gaps that later
    # arrivals overtake, and retransmissions arrive as duplicates
    assert got.netsim_stats["corrupt_received"] > 0
    assert all(flow["duplicate_total"] > 0 for flow in got.flow_stats)
    assert all(held > 0 for held in most_held)
    for g, e in zip(got.flow_stats, expected.flow_stats):
        for key in ("delivered_total", "duplicate_total", "acks_sent"):
            assert g[key] == e[key], key
    assert got.deliveries == expected.deliveries
    for flow, held in zip(config.flows, most_held):
        assert held <= flow.arq_window


# -- the retransmit walk, skipped below the earliest deadline ------------------


def walking_pump(self, t):
    """`DataFlow.pump` before it kept a bound on the earliest retransmit
    deadline, kept as its oracle: every unacked seq is tested every call."""
    for seq, last_sent in self.unacked.items():
        if t - last_sent >= self.config.retransmit_timeout_ns:
            self._send(seq)
            self.unacked[seq] = t
            self.retransmit_total += 1
    while len(self.unacked) < self.config.arq_window:
        seq = self.next_seq
        self.next_seq += 1
        self.first_sent[seq] = t
        self.unacked[seq] = t
        self._send(seq)


def pump_log(monkeypatch, pump, run):
    """Every pump call of `run()` under `pump`: the flow, the time, the seqs
    it sent in order, and the flow's unacked entries and counters after."""
    log = []
    send = DataFlow._send

    def logged_send(self, seq):
        log.append(("send", self.flow_id, seq))
        send(self, seq)

    def logged_pump(self, t):
        pump(self, t)
        log.append((
            "pump", self.flow_id, t, list(self.unacked.items()),
            self.sent_total, self.retransmit_total, self.next_seq,
        ))

    monkeypatch.setattr(flows.DataFlow, "_send", logged_send)
    monkeypatch.setattr(flows.DataFlow, "pump", logged_pump)
    run()
    monkeypatch.undo()
    return log


@pytest.mark.parametrize("name", ["static", "patrol_excerpt", "swarm16"])
def test_pump_matches_the_walking_pump_window_by_window(tmp_path, monkeypatch, name):
    from tests.test_net_window import WORLDS

    config = WORLDS[name]()
    logs = [
        pump_log(monkeypatch, pump, lambda: run_scenario(config, tmp_path / pump.__name__))
        for pump in (DataFlow.pump, walking_pump)
    ]
    assert logs[0] == logs[1]
    resent = sum(entry[5] for entry in logs[0] if entry[0] == "pump")
    assert resent > 0 and len(logs[0]) > 2000


class RecordingEndpoint:
    def __init__(self, log):
        self.log = log

    def send(self, dst, payload):
        self.log.append(decode_packet(payload)[2])
        return True


def test_pump_matches_the_walking_pump_on_random_acks():
    rng = random.Random(14)
    skipped = walked = 0
    for _ in range(300):
        cfg = FlowConfig(
            IPS[0], IPS[1], payload_size=64, arq_window=rng.randint(1, 12),
            retransmit_timeout_ns=rng.choice((1, 2, 3, 5, 8)) * W,
        )
        sent = [[], []]
        new, old = (
            DataFlow(0, cfg, RecordingEndpoint(log), RecordingEndpoint([])) for log in sent
        )
        t = 0
        for _ in range(rng.randint(1, 60)):
            if rng.random() < 0.5 and new.unacked:
                # a cumulative ack: stale, partial or clearing everything
                low = min(new.unacked)
                mark = rng.randint(max(0, low - 2), new.next_seq + 1)
                new.on_ack(mark)
                old.on_ack(mark)
            else:
                t += rng.choice((0, W, W, 2 * W, 4 * W, 9 * W))
                due = new._due
                new.pump(t)
                walking_pump(old, t)
                skipped += t < due
                walked += t >= due
            assert list(new.unacked.items()) == list(old.unacked.items())
            assert sent[0] == sent[1]
            assert (new.sent_total, new.retransmit_total, new.next_seq, new.acked_total) == (
                old.sent_total, old.retransmit_total, old.next_seq, old.acked_total
            )
    assert skipped > 1000 and walked > 1000


class DeletionLog(dict):
    """A dict that records the keys deleted from it, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.deleted = []

    def __delitem__(self, key):
        self.deleted.append(key)
        super().__delitem__(key)


def test_on_ack_deletes_exactly_the_seqs_below_the_mark_in_order():
    rng = random.Random(20)
    acks = partial = 0
    for _ in range(200):
        cfg = FlowConfig(
            IPS[0], IPS[1], payload_size=64, arq_window=rng.randint(1, 16),
            retransmit_timeout_ns=rng.choice((1, 2, 3)) * W,
        )
        flow = DataFlow(0, cfg, SilentEndpoint(), SilentEndpoint())
        flow.unacked = DeletionLog()
        t = 0
        for _ in range(rng.randint(1, 60)):
            if rng.random() < 0.5 and flow.unacked:
                # retransmits between acks update values in place; the keys
                # stay in seq order
                assert list(flow.unacked) == sorted(flow.unacked)
                low = min(flow.unacked)
                mark = rng.randint(max(0, low - 2), flow.next_seq + 1)
                before = list(flow.unacked)
                acked = flow.acked_total
                flow.unacked.deleted.clear()
                flow.on_ack(mark)
                below = [seq for seq in before if seq < mark]
                assert flow.unacked.deleted == below
                assert list(flow.unacked) == [seq for seq in before if seq >= mark]
                assert flow._packets.keys() == flow.unacked.keys()
                assert flow.acked_total == acked + len(below)
                acks += 1
                partial += 0 < len(below) < len(before)
            else:
                t += rng.choice((0, W, 2 * W, 4 * W))
                flow.pump(t)
    assert acks > 1000 and partial > 300


# -- retransmits send the bytes kept from the first send ------------------------


def test_retransmits_resend_the_kept_bytes_and_keep_only_unacked_ones(tmp_path, monkeypatch):
    """On swarm16, where most data sends are retransmits, every data packet
    is `encode_data` of its seq, a retransmit is the very bytes object of
    the seq's first send, and after every tick each flow keeps the bytes of
    exactly its unacked seqs."""
    from tests.test_net_window import WORLDS

    config = WORLDS["swarm16"]()
    sends = []
    send = InProcessBackend.send

    def recorded_send(self, src, dst, payload):
        sends.append(payload)
        return send(self, src, dst, payload)

    tick = FlowHost.tick
    ticks = []

    def checked_tick(self, t):
        tick(self, t)
        for flow in self.flows:
            assert flow._packets.keys() == flow.unacked.keys(), (flow.flow_id, t)
        ticks.append(t)

    monkeypatch.setattr(InProcessBackend, "send", recorded_send)
    monkeypatch.setattr(FlowHost, "tick", checked_tick)
    run_scenario(config, tmp_path)
    first = {}
    retransmits = 0
    for payload in sends:
        kind, flow_id, seq = decode_packet(payload)
        if kind != DATA_KIND:
            continue
        assert payload == encode_data(flow_id, seq, config.flows[flow_id].payload_size)
        if (flow_id, seq) in first:
            assert payload is first[flow_id, seq]
            retransmits += 1
        else:
            first[flow_id, seq] = payload
    assert len(ticks) == 250 and retransmits > len(first) > 0
