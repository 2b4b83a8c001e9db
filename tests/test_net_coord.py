"""Capture pipeline: manifests, BER application, release, expiry."""

from __future__ import annotations

import math
import os
import random
import socket
import threading

import numpy as np
import pytest
from scipy import stats

from cosimnet import wire
from cosimnet.net_coord import (
    CAPTURED_AT,
    InProcessBackend,
    NetCoordConfig,
    NetworkCoordinator,
    apply_ber,
    run_network_coordinator,
)
from cosimnet.netsim import BER_FLOOR, RadioParams, ReferenceNetSim
from cosimnet.sync import ProtocolError, Role, RunStats, SocketLink, run_lockstep
from cosimnet.wire import MsgType, PhysicsUpdate
from tests.wire_oracles import PathDetails, Pose, channel_data

W = 10_000_000  # 10 ms
IPS = ("10.0.0.1", "10.0.0.2", "10.0.0.3")
AMAP = ((0, IPS[0]), (1, IPS[1]), (2, IPS[2]))
NO_BER = RadioParams(ber_at_threshold=0.0)


def config(n=2, **kw):
    return NetCoordConfig(W, AMAP[:n], **kw)


def two_node_channel(distance, wall_loss=None):
    if wall_loss is None:
        pd = PathDetails((0, 1), True, (0,), ())
    else:
        pd = PathDetails((0, 1), False, (1,), ((distance / 2, 0.0, 0.0, wall_loss),))
    return channel_data((Pose((0, 0, 0)), Pose((distance, 0, 0))), (pd,))


def channel_end(cd, t=0):
    blob = wire.compress_channel_blob(wire.encode_channel_data(cd))
    return PhysicsUpdate(MsgType.END, t, blob)


def rig(n=2, params=NO_BER, seed=0, app_tick=None, **cfg_kw):
    cfg = config(n, seed=seed, **cfg_kw)
    sim = ReferenceNetSim(params, dict(AMAP[:n]))
    backend = InProcessBackend(cfg.addresses)
    coord = NetworkCoordinator(cfg, sim, backend, app_tick=app_tick)
    return coord, sim, backend


class RecordingNetSim(ReferenceNetSim):
    """Remembers which pkt_ids each window's manifest carried."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.manifests = []

    def advance(self, window_start, window_ns, packets):
        self.manifests.append((window_start, tuple(row[0] for row in packets)))
        return super().advance(window_start, window_ns, packets)


# -- config ------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError, match="agent id"):
        NetCoordConfig(W, ((0, IPS[0]), (0, IPS[1])))
    with pytest.raises(ValueError, match="address"):
        NetCoordConfig(W, ((0, IPS[0]), (1, IPS[0])))
    with pytest.raises(ValueError, match="IPv4"):
        NetCoordConfig(W, ((0, "not-an-ip"),))
    with pytest.raises(ValueError, match="expiry"):
        NetCoordConfig(W, AMAP, expiry_windows=0)
    with pytest.raises(ValueError, match="window"):
        NetCoordConfig(0, AMAP)


def test_config_takes_ints_for_its_ns_and_counts():
    # NetCoordConfig(1.5, ...) constructed, and windows then ran 1.5 ns apart
    for name in ("window_ns", "expiry_windows", "seed"):
        for value in (1.5, 2.0, True):
            kw = {"window_ns": W, "agent_address_map": AMAP, name: value}
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                NetCoordConfig(**kw)


# -- capture -----------------------------------------------------------------


def test_first_capture_gets_pkt_id_zero():
    coord, _, _ = rig()
    assert coord.capture(IPS[0], IPS[1], b"hello") == 0
    assert coord.capture(IPS[1], IPS[0], b"world") == 1
    assert coord.captured_total == 2


def test_capture_rejects_bad_sends():
    coord, _, backend = rig()
    assert coord.capture(IPS[0], "10.9.9.9", b"x") is None
    assert coord.capture("10.9.9.9", IPS[1], b"x") is None
    assert coord.capture(IPS[0], IPS[0], b"x") is None
    assert coord.capture(IPS[0], IPS[1], b"") is None
    assert coord.rejected_total == 4
    assert coord.captured_total == 0
    # the backend forwards the send, and the coordinator's check counts the
    # rejection once
    assert backend.send(IPS[0], "10.9.9.9", b"x") is False
    assert coord.rejected_total == 5


def test_a_send_before_a_sink_is_attached_raises():
    backend = InProcessBackend(IPS[:2])
    with pytest.raises(RuntimeError, match="before a coordinator attached"):
        backend.send(IPS[0], IPS[1], b"x")
    with pytest.raises(RuntimeError, match="before a coordinator attached"):
        backend.endpoint(IPS[0]).send(IPS[1], b"x")


def test_endpoint_round_trip_order():
    _, _, backend = rig()
    ep = backend.endpoint(IPS[1])
    for payload in (b"a", b"b", b"c"):
        backend.deliver(IPS[1], payload)
    assert [ep.receive() for _ in range(4)] == [b"a", b"b", b"c", None]
    with pytest.raises(KeyError):
        backend.endpoint("10.9.9.9")


# -- manifests ----------------------------------------------------------------


def test_manifest_lists_pending_in_capture_order():
    coord, _, _ = rig()
    coord.capture(IPS[0], IPS[1], b"aa")
    coord.capture(IPS[1], IPS[0], b"bbb")
    rows = coord.build_manifest(W)
    assert list(rows) == [
        (0, 2, IPS[0], IPS[1], 0, 1, 0, b"aa"),
        (1, 3, IPS[1], IPS[0], 1, 0, 0, b"bbb"),
    ]
    assert coord.held_count == 2
    assert all(coord._held[row[0]] is row for row in rows)
    assert not coord.build_manifest(2 * W)


def test_manifest_excludes_same_window_captures():
    coord, _, _ = rig()
    coord.window_start = 5 * W
    coord.capture(IPS[0], IPS[1], b"late")
    assert not coord.build_manifest(5 * W)
    assert [row[0] for row in coord.build_manifest(6 * W)] == [0]


def test_app_tick_sends_ride_the_next_manifest():
    sim = RecordingNetSim(NO_BER, dict(AMAP[:2]))
    cfg = config()
    backend = InProcessBackend(cfg.addresses)
    ep = backend.endpoint(IPS[0])
    coord = NetworkCoordinator(
        cfg, sim, backend, app_tick=lambda t: ep.send(IPS[1], b"tick")
    )
    cd = two_node_channel(1.0)
    for k in range(4):
        coord.simulate(k * W, W, cd if k else None)
    # the send during window k is listed one window later, never sooner
    assert [ids for _, ids in sim.manifests] == [(), (0,), (1,), (2,)]


# -- apply_ber ----------------------------------------------------------------


def test_apply_ber_zero_is_identity():
    rng = np.random.default_rng(42)
    payload = bytes(range(256))
    assert apply_ber(payload, 0.0, rng) == payload


def test_apply_ber_one_is_complement():
    rng = np.random.default_rng(42)
    payload = b"\x00\xff\x5a\x12"
    assert apply_ber(payload, 1.0, rng) == b"\xff\x00\xa5\xed"


def test_apply_ber_half_flips_about_half_of_a_megabit():
    rng = np.random.default_rng(2024)
    payload = bytes(125_000)  # 1 Mbit of zeros
    flipped = apply_ber(payload, 0.5, rng)
    ones = int(np.unpackbits(np.frombuffer(flipped, dtype=np.uint8)).sum())
    assert 0.48 <= ones / 1_000_000 <= 0.52


def test_apply_ber_is_deterministic_per_seed():
    payload = os.urandom(4096)
    a = apply_ber(payload, 1e-2, np.random.default_rng(7))
    b = apply_ber(payload, 1e-2, np.random.default_rng(7))
    c = apply_ber(payload, 1e-2, np.random.default_rng(8))
    assert a == b
    assert a != c
    assert len(a) == len(payload)


def test_apply_ber_rejects_bad_rate():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="ber"):
        apply_ber(b"x", 1.5, rng)
    with pytest.raises(ValueError, match="ber"):
        apply_ber(b"x", -0.1, rng)


def test_apply_ber_shortcuts_draw_no_randomness():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    apply_ber(bytes(100), 0.0, rng)
    apply_ber(bytes(100), 1.0, rng)
    apply_ber(b"", 0.3, rng)
    assert rng.bit_generator.state == before


def per_bit_apply_ber(payload: bytes, ber: float, rng: np.random.Generator) -> bytes:
    """The sampler `apply_ber` replaced, kept as its oracle: one uniform
    per bit, each bit flipped where its uniform falls below ber."""
    if not 0.0 <= ber <= 1.0:
        raise ValueError(f"ber must be in [0, 1], got {ber}")
    if ber == 0.0 or not payload:
        return bytes(payload)
    data = np.frombuffer(payload, dtype=np.uint8)
    if ber == 1.0:
        return np.bitwise_not(data).tobytes()
    bits = np.unpackbits(data)
    flips = rng.random(bits.shape[0]) < ber
    return np.packbits(np.bitwise_xor(bits, flips)).tobytes()


def flip_sample(sampler, n_bits, ber, trials, seed):
    """Flip count per trial and flips per bit position, over `trials`
    all-zero payloads of n_bits."""
    rng = np.random.default_rng(seed)
    payload = bytes(n_bits // 8)
    counts = np.empty(trials, dtype=np.int64)
    per_position = np.zeros(n_bits, dtype=np.int64)
    for i in range(trials):
        bits = np.unpackbits(np.frombuffer(sampler(payload, ber, rng), dtype=np.uint8))
        counts[i] = bits.sum()
        per_position += bits
    return counts, per_position


# (n_bits, ber, trials): 1e-2 puts a 32 B ack and a 600 B packet just over an
# MCS threshold, 1.35e-5 is static's 30 m link, 1e-3 lies in between
BER_CASES = [(256, 1e-2, 20_000), (8000, 1.35e-5, 20_000), (8000, 1e-3, 5_000), (4800, 1e-2, 2_000)]
Z = 4.5  # bound in standard errors; the seeds are fixed, so this is a tolerance


@pytest.mark.parametrize("n_bits,ber,trials", BER_CASES)
def test_count_sampler_matches_the_per_bit_oracle(n_bits, ber, trials):
    new_counts, new_pos = flip_sample(apply_ber, n_bits, ber, trials, seed=n_bits + 1)
    old_counts, old_pos = flip_sample(per_bit_apply_ber, n_bits, ber, trials, seed=n_bits + 2)

    # flip count: Binomial(n_bits, ber) mean and variance, and the standard
    # error of the sample variance from the binomial's fourth central moment
    var = n_bits * ber * (1 - ber)
    mu4 = var * (1 + 3 * (n_bits - 2) * ber * (1 - ber))
    se_mean = np.sqrt(var / trials)
    se_var = np.sqrt((mu4 - var**2 * (trials - 3) / (trials - 1)) / trials)
    for counts in (new_counts, old_counts):
        assert abs(counts.mean() - n_bits * ber) <= Z * se_mean
        assert abs(counts.var(ddof=1) - var) <= Z * se_var
    assert abs(new_counts.mean() - old_counts.mean()) <= Z * np.sqrt(2) * se_mean
    assert abs(new_counts.var(ddof=1) - old_counts.var(ddof=1)) <= Z * np.sqrt(2) * se_var

    # flips per bit position, in runs of adjacent positions where single
    # positions would expect fewer than 20 flips
    n_bins = int(min(n_bits, trials * n_bits * ber // 20))
    bin_of = np.arange(n_bits) * n_bins // n_bits
    sizes = np.bincount(bin_of, minlength=n_bins)
    new_bins = np.bincount(bin_of, weights=new_pos, minlength=n_bins)
    old_bins = np.bincount(bin_of, weights=old_pos, minlength=n_bins)
    for observed in (new_bins, old_bins):
        uniform = sizes * observed.sum() / n_bits
        assert stats.chisquare(observed, uniform).pvalue > 1e-3
    assert stats.chi2_contingency(np.vstack([new_bins, old_bins])).pvalue > 1e-3


# 0.3 flips about a third of a packet's bits, 0.999 all but about one
HIGH_BER_CASES = [(4800, 0.3, 1_000), (1024, 0.999, 1_000)]


@pytest.mark.parametrize("n_bits,ber,trials", HIGH_BER_CASES)
def test_gap_sampler_matches_the_per_bit_oracle_at_high_ber(n_bits, ber, trials):
    test_count_sampler_matches_the_per_bit_oracle(n_bits, ber, trials)
    if ber > 0.5:
        # near ber 1 a position's flip count varies far less than its mean,
        # so the chi-square above can hardly fail; the kept bits are the
        # rare event there, and must be uniform over positions
        _, flips = flip_sample(apply_ber, n_bits, ber, trials, seed=n_bits + 3)
        kept = trials - flips
        n_bins = int(trials * n_bits * (1 - ber) // 20)
        bin_of = np.arange(n_bits) * n_bins // n_bits
        sizes = np.bincount(bin_of, minlength=n_bins)
        observed = np.bincount(bin_of, weights=kept, minlength=n_bins)
        assert stats.chisquare(observed, sizes * observed.sum() / n_bits).pvalue > 1e-3


class Scripted:
    """A uniform source that returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def first_flip_quantile(ber, k):
    """The midpoint, in U, of the uniforms whose first gap is exactly k:
    P(gap >= k) = (1 - ber)^k."""
    return -math.expm1((k + 0.5) * math.log1p(-ber))


# 1e-9 is the netsim's BER floor, where flips are too rare to count: check
# the first gap's quantile function instead
@pytest.mark.parametrize("k", [0, 1, 2399, 4798, 4799])
def test_gap_sampler_flips_the_bit_its_quantile_names_at_the_ber_floor(k):
    ber, payload = BER_FLOOR, bytes(600)  # a swarm16 data packet on its floor
    source = Scripted([first_flip_quantile(ber, k), 0.5])
    out = apply_ber(payload, ber, source)
    assert source.values == []  # the second uniform puts the next gap past the end
    expected = bytearray(payload)
    expected[k >> 3] ^= 0x80 >> (k & 7)
    assert out == bytes(expected)


def test_gap_sampler_draws_once_for_a_packet_it_keeps_whole():
    ber, payload = BER_FLOOR, bytes(600)
    for u in (first_flip_quantile(ber, 4800), 1.0 - 2.0**-53):
        source = Scripted([u, 0.0])
        assert apply_ber(payload, ber, source) == payload
        assert source.values == [0.0]


def test_gap_sampler_walks_gaps_from_the_last_flip():
    ber = 0.25
    # gaps 0, 0, 5, 3: flips at bits 0, 1, 7 and 11, then one past the end
    source = Scripted([first_flip_quantile(ber, k) for k in (0, 0, 5, 3, 4)])
    assert apply_ber(bytes(2), ber, source) == bytes([0b11000001, 0b00010000])
    assert source.values == []


def test_gap_sampler_ends_on_a_gap_that_lands_exactly_past_the_end():
    # at ber 0.5, U = 1 - 2**-g gives a gap of exactly g
    def exact(g):
        return 1.0 - 2.0**-g

    for draws, expected in (
        ([exact(16)], bytes(2)),  # the first flip would be bit 16
        ([exact(3), exact(12)], bytes([0b00010000, 0])),  # bit 3, then bit 16
        ([exact(15), 0.0], bytes([0, 1])),  # the last bit, then a gap of zero
    ):
        source = Scripted(draws)
        assert apply_ber(bytes(2), 0.5, source) == expected
        assert source.values == []


def test_apply_ber_shortcuts_leave_a_stdlib_generator_untouched():
    rng = random.Random(3)
    before = rng.getstate()
    assert apply_ber(bytes(100), 0.0, rng) == bytes(100)
    assert apply_ber(bytes(100), 1.0, rng) == b"\xff" * 100
    assert apply_ber(b"", 0.3, rng) == b""
    assert rng.getstate() == before
    apply_ber(bytes(100), 1e-9, rng)  # a fractional rate draws at least once
    assert rng.getstate() != before


def test_apply_ber_on_a_stdlib_generator_is_deterministic_per_seed():
    payload = os.urandom(4096)
    a = apply_ber(payload, 1e-2, random.Random(7))
    b = apply_ber(payload, 1e-2, random.Random(7))
    c = apply_ber(payload, 1e-2, random.Random(8))
    assert a == b
    assert a != c
    assert len(a) == len(payload)


# -- release and expiry --------------------------------------------------------


def held_three(coord):
    coord.capture(IPS[0], IPS[1], b"p0")
    coord.capture(IPS[0], IPS[1], b"p1")
    coord.capture(IPS[1], IPS[0], b"p2")
    rows = list(coord.build_manifest(W))
    assert coord.held_count == 3
    return rows


def test_release_delivers_cleared_packets_and_keeps_the_rest():
    coord, _, backend = rig()
    rows = held_three(coord)
    assert coord.release(3 * W, [(rows[0], 0.0), (rows[2], 0.0)]) == 2
    assert backend.receive(IPS[1]) == b"p0"
    assert backend.receive(IPS[0]) == b"p2"
    assert backend.receive(IPS[1]) is None
    assert coord.held_count == 1
    assert [r.pkt_id for r in coord.ledger] == [0, 2]
    assert all(r.released_at == 3 * W and r.captured_at == 0 for r in coord.ledger)


def test_release_of_unknown_id_is_a_protocol_error():
    coord, _, _ = rig()
    rows = held_three(coord)
    unknown = (9,) + rows[0][1:]
    with pytest.raises(ProtocolError, match="never submitted"):
        coord.release(W, [(unknown, 0.0)])


def test_expired_packets_are_dropped_and_late_clearance_is_tolerated():
    coord, _, backend = rig(expiry_windows=1)
    coord.capture(IPS[0], IPS[1], b"stale")
    (row,) = coord.build_manifest(W)
    coord._expire(W)  # age W: not yet older than one window
    assert coord.held_count == 1
    coord._expire(2 * W + 1)
    assert coord.held_count == 0
    assert coord.expired_total == 1
    assert coord.release(3 * W, [(row, 0.0)]) == 0
    assert coord.late_cleared_total == 1
    assert backend.receive(IPS[1]) is None
    # a second clearance of the same id really is unknown now
    with pytest.raises(ProtocolError, match="never submitted"):
        coord.release(3 * W, [(row, 0.0)])


class FullScanCoordinator(NetworkCoordinator):
    """Expiry as a scan of every held packet, as `_expire` did before it
    stopped at the first packet that is not stale.  Kept as the oracle."""

    def _expire(self, t):
        horizon = self.config.expiry_windows * self.config.window_ns
        stale = [
            pkt_id
            for pkt_id, pkt in self._held.items()
            if t - pkt[CAPTURED_AT] > horizon
        ]
        for pkt_id in stale:
            del self._held[pkt_id]
            self._expired_ids.add(pkt_id)
            self.expired_total += 1


def expire_recording(coord, t):
    """Run `coord._expire(t)`; returns the ids it expired, in held order."""
    before = list(coord._held)
    coord._expire(t)
    return [pkt_id for pkt_id in before if pkt_id not in coord._held]


@pytest.mark.parametrize("seed", range(8))
def test_expiry_from_the_oldest_end_matches_the_full_scan(seed):
    rng = np.random.default_rng(seed)
    cfg = config(3, expiry_windows=int(rng.integers(1, 5)))
    pair = [
        cls(cfg, ReferenceNetSim(NO_BER, dict(AMAP)), InProcessBackend(cfg.addresses))
        for cls in (NetworkCoordinator, FullScanCoordinator)
    ]
    fast = pair[0]
    route = {}  # pkt_id -> its row
    expired = []  # ids given up on and not yet cleared late
    for k in range(150):
        t = k * W
        for coord in pair:
            coord.window_start = t
        for _ in range(int(rng.integers(0, 4))):
            src, dst = rng.choice(3, size=2, replace=False)
            ids = {coord.capture(IPS[src], IPS[dst], b"x" * 8) for coord in pair}
            (pkt_id,) = ids
        for coord in pair:
            route.update((row[0], row) for row in coord.build_manifest(t))
        # clear a random share of held packets, and now and then one that
        # already expired, out of capture order
        held = list(fast._held)
        cleared = [i for i in held if rng.random() < 0.15]
        cleared += [i for i in expired if rng.random() < 0.3]
        rng.shuffle(cleared)
        for coord in pair:
            coord.release(t, [(route[i], 0.0) for i in cleared])
        expired = [i for i in expired if i not in cleared]
        gone = [expire_recording(coord, t) for coord in pair]
        assert gone[0] == gone[1], (seed, k)
        expired += gone[0]
        assert list(pair[0]._held) == list(pair[1]._held)
    for name in ("expired_total", "late_cleared_total", "released_total"):
        assert getattr(pair[0], name) == getattr(pair[1], name), name
    assert fast.expired_total > 0 and fast.late_cleared_total > 0


# -- single-window round trip ---------------------------------------------------


def test_packet_is_released_the_window_after_capture():
    coord, _, backend = rig()
    coord.simulate(0, W, None)
    pkt_id = coord.capture(IPS[0], IPS[1], b"payload-123")
    cleared = coord.simulate(W, W, two_node_channel(1.0))
    assert [(row[0], ber) for row, ber in cleared] == [(pkt_id, 0.0)]
    assert backend.receive(IPS[1]) == b"payload-123"
    record = coord.ledger[0]
    assert record.captured_at == 0
    assert record.released_at == W
    assert record.released_at - record.captured_at == W


# -- full runs over the sync protocol --------------------------------------------


def run_physics_stub(link, cd, n_windows):
    def simulate(t, peer_end):
        return channel_end(cd, t)

    run_lockstep(Role.PHYSICS_SIDE, link, W, n_windows * W, simulate, RunStats())


def full_run(n_windows, cd, netsim, cfg, backend, app_tick=None):
    sock_p, sock_n = socket.socketpair()
    phys_link, net_link = SocketLink(sock_p, timeout=30), SocketLink(sock_n, timeout=30)
    errors = []

    def phys():
        try:
            run_physics_stub(phys_link, cd, n_windows)
        except Exception as exc:  # surfaced via the assertion below
            errors.append(exc)

    thread = threading.Thread(target=phys)
    thread.start()
    try:
        summary = run_network_coordinator(
            cfg, net_link, netsim, backend, n_windows * W, app_tick=app_tick
        )
    finally:
        thread.join(timeout=10)
    assert not thread.is_alive() and not errors, errors
    return summary


def test_run_without_traffic_is_a_clean_no_op():
    cfg = config()
    summary = full_run(
        50, two_node_channel(1.0),
        ReferenceNetSim(NO_BER, dict(AMAP[:2])),
        cfg, InProcessBackend(cfg.addresses),
    )
    assert summary.windows_completed == 50
    assert summary.captured_total == 0
    assert summary.released_total == 0
    assert summary.ledger == []


def test_run_delivers_intact_payloads_with_delay_of_at_least_one_window():
    cfg = config()
    sim = RecordingNetSim(NO_BER, dict(AMAP[:2]))
    backend = InProcessBackend(cfg.addresses)
    ep0, ep1 = backend.endpoint(IPS[0]), backend.endpoint(IPS[1])
    sent, got = set(), []

    def tick(t):
        for ep, dst in ((ep0, IPS[1]), (ep1, IPS[0])):
            payload = f"{ep.address}>{dst}@{t}".encode()
            ep.send(dst, payload)
            sent.add(payload)
        while (p := ep0.receive()) is not None:
            got.append(p)
        while (p := ep1.receive()) is not None:
            got.append(p)

    summary = full_run(30, two_node_channel(1.0), sim, cfg, backend, app_tick=tick)
    assert summary.captured_total == 60
    assert summary.released_total > 0
    assert len(got) == summary.released_total
    assert set(got) <= sent  # byte-exact at ber 0, nothing invented
    assert all(r.released_at - r.captured_at >= W for r in summary.ledger)
    manifest_ids = {i for _, ids in sim.manifests for i in ids}
    assert {r.pkt_id for r in summary.ledger} <= manifest_ids
    assert (
        summary.released_total
        + summary.expired_total
        + summary.held_at_end
        + summary.pending_at_end
        == summary.captured_total
    )


def test_link_down_run_expires_every_capture():
    cfg = config(expiry_windows=3)
    backend = InProcessBackend(cfg.addresses)
    ep = backend.endpoint(IPS[0])
    summary = full_run(
        12, two_node_channel(1.0, wall_loss=200.0),
        ReferenceNetSim(NO_BER, dict(AMAP[:2])),
        cfg, backend, app_tick=lambda t: ep.send(IPS[1], b"void"),
    )
    assert summary.captured_total == 12
    assert summary.released_total == 0
    assert summary.expired_total == 8
    assert summary.held_at_end == 3  # sends from the last three manifests
    assert summary.pending_at_end == 1  # the final tick never got manifested


def corruption_run(seed):
    # 50 dB of wall at one meter parks the link exactly on an MCS
    # threshold, so every delivery sees the full base error rate
    cfg = config(seed=seed)
    sim = ReferenceNetSim(RadioParams(), dict(AMAP[:2]))
    backend = InProcessBackend(cfg.addresses)
    ep = backend.endpoint(IPS[0])
    delivered = []

    def tick(t):
        ep.send(IPS[1], bytes(1000))
        while (p := backend.receive(IPS[1])) is not None:
            delivered.append(p)

    summary = full_run(
        25, two_node_channel(1.0, wall_loss=50.0), sim, cfg, backend, app_tick=tick
    )
    assert summary.released_total > 5
    return delivered, summary


def test_corrupted_deliveries_are_reproducible_per_seed():
    first, s1 = corruption_run(seed=11)
    again, s2 = corruption_run(seed=11)
    other, _ = corruption_run(seed=12)
    assert first == again
    assert s1.ledger == s2.ledger
    assert any(flipped != bytes(1000) for flipped in first)
    assert first != other


# -- the capture-backend contract -------------------------------------------------


class MinimalBackend:
    """A capture backend with nothing but the contract, `attach_sink` and
    `deliver`; its slots leave it no other attribute to be asked for."""

    __slots__ = ("sink", "delivered")

    def __init__(self):
        self.sink = None
        self.delivered = []

    def attach_sink(self, sink):
        self.sink = sink

    def deliver(self, dst, payload):
        self.delivered.append((dst, payload))


def test_a_backend_needs_only_attach_sink_and_deliver():
    backend = MinimalBackend()
    sent = []

    def tick(t):
        payload = f"hello@{t}".encode()
        assert backend.sink.capture(IPS[0], IPS[1], payload) is not None
        sent.append((IPS[1], payload))
        assert backend.sink.capture(IPS[0], IPS[0], payload) is None

    summary = full_run(
        10, two_node_channel(1.0), ReferenceNetSim(NO_BER, dict(AMAP[:2])),
        config(), backend, app_tick=tick,
    )
    assert summary.windows_completed == 10
    assert summary.captured_total == 10
    assert summary.rejected_total == 10
    assert 0 < summary.released_total == len(backend.delivered)
    assert backend.delivered == sent[: summary.released_total]
    assert [r.pkt_id for r in summary.ledger] == list(range(summary.released_total))
