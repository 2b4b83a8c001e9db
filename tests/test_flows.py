"""ARQ flows: framing, dedup, retransmission, and full windowed runs."""

from __future__ import annotations

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
