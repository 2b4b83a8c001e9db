"""The network window's row path against the object path it replaced.

`tests/net_oracles.py` keeps the object path: a `CapturedPacket` per
capture, a `_Queued`/`_InFlight` record per packet in the medium, fresh
link rows on every channel update and a list of `DeliveryRecord`s for the
ledger.  Both paths run side by side, window by window, and must give the
same cleared rows and BERs, medium events, held ids, ledger, counters,
deliveries and random stream.
"""

from __future__ import annotations

import collections
import json
import random

import pytest

from cosimnet.flows import FlowHost
from cosimnet.net_coord import InProcessBackend, NetCoordConfig, NetworkCoordinator
from cosimnet.netsim import RadioParams, ReferenceNetSim
from cosimnet.phys_coord import PhysCoordConfig, PhysicsStepper
from cosimnet.physics import ReferencePhysicsSim
from cosimnet.scenario import load_scenario, parse_scenario
from cosimnet.wire import ChannelData, PathDetails, Pose

from tests.net_oracles import ObjectCoordinator, ObjectNetSim
from tests.test_lockstep_oracle import SCENARIOS

W = 1_000_000
COORD_COUNTERS = (
    "captured_total", "released_total", "released_bytes", "expired_total",
    "rejected_total", "late_cleared_total", "held_count", "pending_count",
)
NETSIM_COUNTERS = ("dropped_total", "cleared_total", "queued_count")


class Side:
    """One network side: a coordinator over its netsim and backend, with
    `flows` run by a `FlowHost` as its applications."""

    def __init__(self, coord_cls, netsim_cls, cfg, params, amap, flows=()):
        self.netsim = netsim_cls(params, dict(amap), trace_events=True)
        self.backend = InProcessBackend(cfg.addresses)
        self.host = FlowHost(self.backend)
        for flow_cfg in flows:
            self.host.add_flow(flow_cfg)
        self.coord = coord_cls(cfg, self.netsim, self.backend, app_tick=self.host.tick)
        self.ledger_read = 0
        self.events_read = 0

    def delivered(self, addresses):
        out = []
        for address in addresses:
            while (payload := self.backend.receive(address)) is not None:
                out.append((address, payload))
        return out

    def fresh(self):
        """The ledger rows and medium events since the last call, and the
        held ids and counters now."""
        ledger = self.coord.ledger[self.ledger_read:]
        events = self.netsim.events[self.events_read:]
        self.ledger_read += len(ledger)
        self.events_read += len(events)
        return {
            "ledger": ledger,
            "events": events,
            "held": list(self.coord._held),
            **{name: getattr(self.coord, name) for name in COORD_COUNTERS},
            **{name: getattr(self.netsim, name) for name in NETSIM_COUNTERS},
            "dropped_ids": list(self.netsim.dropped_ids),
        }


def assert_sides_agree(new: Side, old: Side, where) -> dict:
    got, expected = new.fresh(), old.fresh()
    for key in expected:
        assert got[key] == expected[key], (where, key)
    return got


def assert_runs_agree(new: Side, old: Side):
    assert new.coord.ledger == old.coord.ledger
    assert new.coord._rng.getstate() == old.coord._rng.getstate()
    assert new.netsim.events == old.netsim.events


# -- the bundled worlds, window by window -------------------------------------


def patrol_excerpt():
    from benchmarks import excerpt

    document = json.loads((SCENARIOS / "patrol.json").read_text())
    document = excerpt.excerpt(document, 14.0)
    document["duration_ns"] = 4000 * W  # the clear leg's end and the trough's onset
    return parse_scenario(document)


def swarm16():
    from benchmarks import swarm

    return parse_scenario(swarm.generate(7, 250))


WORLDS = {
    "static": lambda: load_scenario(SCENARIOS / "static_los_30m.json", duration_ns=2000 * W),
    "patrol_excerpt": patrol_excerpt,
    "swarm16": swarm16,
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_row_path_matches_the_object_path_on_the_bundled_worlds(name):
    config = WORLDS[name]()
    cfg = NetCoordConfig(config.window_ns, config.agent_address_map, seed=config.seed)
    sides = new, old = [
        Side(coord_cls, netsim_cls, cfg, config.radio, config.agent_address_map, config.flows)
        for coord_cls, netsim_cls in (
            (NetworkCoordinator, ReferenceNetSim), (ObjectCoordinator, ObjectNetSim)
        )
    ]
    physics = PhysicsStepper(
        ReferencePhysicsSim(config.world, config.tracks),
        PhysCoordConfig(config.window_ns, config.fidelity),
    )
    channel = None
    totals = collections.Counter()
    for k in range(config.duration_ns // config.window_ns):
        t = k * config.window_ns
        snapshot = physics.step_window()
        ends = [side.coord.simulate(t, config.window_ns, channel) for side in sides]
        assert ends[0] == ends[1], (name, k)
        got = assert_sides_agree(new, old, (name, k))
        totals["cleared"] += len(ends[0])
        totals["ledger"] += len(got["ledger"])
        channel = snapshot
    assert_runs_agree(new, old)
    flow_facts = [
        (
            host.corrupt_total, host.stray_total, host.deliveries,
            [(f.sent_total, f.retransmit_total, f.delivered_total, f.acked_total)
             for f in host.flows],
        )
        for host in (new.host, old.host)
    ]
    assert flow_facts[0] == flow_facts[1]
    assert totals["ledger"] > 100 and totals["cleared"] >= totals["ledger"]


# -- random traffic and channels ------------------------------------------------


def random_channel(rng, n):
    """Each pair up at a random range, behind a random wall, or absent;
    the records' floats come from `rng`, so an equal copy is a new object
    of every field."""
    poses = tuple(Pose((rng.uniform(0.0, 120.0), rng.uniform(0.0, 5.0), 1.0)) for _ in range(n))
    paths = []
    for i in range(n):
        for j in range(i + 1, n):
            fate = rng.random()
            a, b = (i, j) if rng.random() < 0.5 else (j, i)
            if fate < 0.4:
                paths.append(PathDetails((a, b), True, (0,), ()))
            elif fate < 0.85:
                walls = rng.randint(1, 2)
                hops = tuple(
                    (rng.uniform(0.0, 100.0), 0.0, 1.0, rng.choice((2.0, 8.0, 35.0, 70.0)))
                    for _ in range(walls)
                )
                paths.append(PathDetails((a, b), False, (walls,), hops))
    return ChannelData(poses, tuple(paths))


def equal_copy(cd):
    """`cd` rebuilt from its records: equal, with new column tuples."""
    return ChannelData(
        tuple(Pose(tuple(p.position), tuple(p.orientation)) for p in cd.node_list),
        tuple(
            PathDetails(tuple(pd.ids), pd.los, tuple(pd.num_hops), tuple(map(tuple, pd.hop_points)))
            for pd in cd.path_details
        ),
    )


def next_channel(rng, n, last):
    """None (keep the links), the last snapshot again, an equal copy of it,
    or a new one."""
    fate = rng.random()
    if last is None or fate < 0.3:
        return random_channel(rng, n) if fate < 0.2 or last is None else None
    if fate < 0.55:
        return last
    if fate < 0.8:
        return equal_copy(last)
    return random_channel(rng, n)


def run_coordinators(rng, seed):
    """Captures and channels at random through a coordinator of each path."""
    n = rng.randint(2, 4)
    amap = tuple((i, f"10.0.2.{i + 1}") for i in range(n))
    ips = [ip for _, ip in amap]
    cfg = NetCoordConfig(W, amap, expiry_windows=rng.randint(1, 6), seed=seed)
    params = RadioParams(queue_capacity=rng.randint(1, 6))
    new, old = (
        Side(NetworkCoordinator, ReferenceNetSim, cfg, params, amap),
        Side(ObjectCoordinator, ObjectNetSim, cfg, params, amap),
    )
    last = None
    stats = collections.Counter()
    for k in range(40):
        t = k * W
        channel = next_channel(rng, n, last)
        last = channel or last
        ends = [side.coord.simulate(t, W, channel) for side in (new, old)]
        assert ends[0] == ends[1], (seed, k)
        for _ in range(rng.choice((0, 1, 2, 3, 6))):
            fate = rng.random()
            src, dst = rng.sample(ips, 2)
            if fate < 0.05:
                src = "10.9.9.9"
            elif fate < 0.1:
                dst = src
            payload = b"" if fate > 0.97 else rng.randbytes(rng.randint(8, 1500))
            ids = {side.coord.capture(src, dst, payload) for side in (new, old)}
            assert len(ids) == 1
        got = assert_sides_agree(new, old, (seed, k))
        assert new.delivered(ips) == old.delivered(ips), (seed, k)
        stats["dropped"] = got["dropped_total"]
        stats["expired"] = got["expired_total"]
        stats["late"] = got["late_cleared_total"]
        stats["released"] = got["released_total"]
    assert_runs_agree(new, old)
    return stats


def run_netsims(rng, seed):
    """Hand-built rows, ids out of order within a window, into a netsim of
    each path."""
    n = rng.randint(2, 4)
    amap = tuple((i, f"10.0.3.{i + 1}") for i in range(n))
    params = RadioParams(queue_capacity=rng.randint(1, 6))
    new = ReferenceNetSim(params, dict(amap), trace_events=True)
    old = ObjectNetSim(params, dict(amap), trace_events=True)
    next_id, t, last, shuffled = 0, 0, None, 0
    sent = {}
    for k in range(40):
        channel = next_channel(rng, n, last)
        if channel is not None:
            last = channel
            for sim in (new, old):
                sim.apply_channel(channel)
        rows = []
        for _ in range(rng.choice((0, 1, 2, 4, 8))):
            src, dst = rng.sample(range(n), 2)
            length = rng.randint(40, 1500)
            rows.append((next_id, length, amap[src][1], amap[dst][1], src, dst, t, b"x" * length))
            next_id += 1
        if rng.random() < 0.4:
            rng.shuffle(rows)
            shuffled += len(rows) > 1
        window_ns = rng.choice((0, W // 10, W, 3 * W))
        got = new.advance(t, window_ns, rows)
        assert got == old.advance(t, window_ns, rows)
        sent.update((row[0], row) for row in rows)
        assert all(row is sent[row[0]] for row, _ in got)  # handed back as handed in
        for name in (*NETSIM_COUNTERS, "dropped_ids", "events"):
            assert getattr(new, name) == getattr(old, name), (seed, k, name)
        t += window_ns
    return shuffled


def test_row_path_matches_the_object_path_on_random_sequences():
    totals = collections.Counter()
    for seed in range(300):
        rng = random.Random(seed)
        if seed % 2:
            totals["shuffled"] += run_netsims(rng, seed)
        else:
            totals.update(run_coordinators(rng, seed))
    # the corpus reached drop-tail, expiry, late clearances and out-of-order ids
    assert min(totals.values()) > 20, totals
