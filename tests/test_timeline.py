"""The columnar channel timeline against the row-per-sample recorder it
replaced, and the default run, which records no timeline at all.

`RowRecorder` is that recorder's body: one `PairSample` per listed pair per
window, with distance and wall loss worked out from the snapshot alone.
The columnar timeline reads both from the netsim's link table instead, and
must give `repr`-equal samples (`repr` tells -0.0 from 0.0 and True from 1).
"""

from __future__ import annotations

import dataclasses
import inspect
import math
import random

import pytest

from cosimnet import scenario
from cosimnet.net_coord import NetworkCoordinator
from cosimnet.netsim import RadioParams, ReferenceNetSim
from cosimnet.physics import ChannelFidelity
from cosimnet.scenario import ARTIFACT_NAMES, PairSample, parse_scenario, run_scenario
from tests import msggen
from tests.test_lockstep_oracle import CORPUS, swarm_document


class RowRecorder:
    """The oracle: the timeline as one `PairSample` per pair per window."""

    def __init__(self):
        self.samples: list[PairSample] = []

    def __call__(self, t: int, cd) -> None:
        positions = [pose.position for pose in cd.node_list]
        for pd in cd.path_details:
            i, j = pd.ids
            if pd.los:
                walls, loss = 0, 0.0
            else:
                walls = pd.num_hops[0] if pd.num_hops else 0
                loss = sum(h[3] for h in pd.hop_points[:walls])
            self.samples.append(
                PairSample(
                    t, (i, j), pd.los,
                    math.dist(positions[i], positions[j]), walls, loss,
                )
            )


def swarm16():
    from benchmarks import swarm

    return parse_scenario(swarm.generate(921, 250))


ORACLE_CORPUS = {
    "patrol": CORPUS["patrol"],  # the first 3 s
    "static": CORPUS["static"],  # 400 windows
    "swarm6": CORPUS["swarm6"],
    "swarm16": swarm16,
    # 40 m disks: NLOS pairs with no hops, whose wall loss is the int 0
    "swarm6_disk": lambda: dataclasses.replace(
        parse_scenario(swarm_document()), fidelity=ChannelFidelity.disk(40.0)
    ),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CORPUS))
def test_columnar_timeline_matches_the_row_recorder(tmp_path, monkeypatch, name):
    config = ORACLE_CORPUS[name]()
    oracle = RowRecorder()

    class Both(scenario._TimelineRecorder):
        def __call__(self, t, cd):
            super().__call__(t, cd)
            oracle(t, cd)

    monkeypatch.setattr(scenario, "_TimelineRecorder", Both)
    timeline = run_scenario(config, tmp_path, timeline=True).timeline

    n = config.duration_ns // config.window_ns
    agents = len(config.tracks)
    assert len(timeline) == len(oracle.samples) == (n - 1) * agents * (agents - 1) // 2
    assert [repr(s) for s in timeline] == [repr(s) for s in oracle.samples]
    assert repr(timeline[-1]) == repr(oracle.samples[-1])
    assert repr(timeline[0:2]) == repr(oracle.samples[0:2])
    assert repr(timeline[-7::3]) == repr(oracle.samples[-7::3])
    if name == "swarm6_disk":
        kinds = {(s.los, type(s.wall_loss)) for s in oracle.samples}
        assert kinds == {(True, float), (False, int)}

    columns = (
        timeline.t, timeline.a, timeline.b, timeline.los,
        timeline.distance, timeline.wall_count, timeline.wall_loss,
    )
    rows = [
        (s.t, *s.pair, s.los, s.distance, s.wall_count, float(s.wall_loss))
        for s in oracle.samples
    ]
    assert repr(list(zip(*(c.tolist() for c in columns)))) == repr(rows)


def test_recorder_matches_the_row_recorder_on_random_channels():
    """Snapshots the physics side never emits: pairs listed as (b, a),
    several paths per pair, and NLOS first paths with no hops."""
    rng = random.Random(6113)
    netsim = ReferenceNetSim(RadioParams(), {i: f"10.0.2.{i + 1}" for i in range(16)})
    recorder, oracle = scenario._TimelineRecorder(netsim), RowRecorder()
    for t in range(300):
        cd = msggen.random_channel_data(rng)
        netsim.apply_channel(cd)
        recorder(t, cd)
        oracle(t, cd)
    assert len(oracle.samples) > 1000
    assert [repr(s) for s in recorder.timeline] == [repr(s) for s in oracle.samples]


@pytest.mark.parametrize("name", ["static", "swarm6"])
def test_default_run_records_no_timeline(tmp_path, monkeypatch, name):
    config = CORPUS[name]()

    def refuse(*args, **kwargs):
        raise AssertionError("built while recording")

    # the recorder itself builds no samples either: only reading does
    monkeypatch.setattr(scenario, "PairSample", refuse)
    recorded = run_scenario(config, tmp_path / "recorded", timeline=True)
    assert len(recorded.timeline) > 0

    hooks = []

    class Spy(NetworkCoordinator):
        def __init__(self, *args, **kwargs):
            bound = inspect.signature(NetworkCoordinator).bind(*args, **kwargs)
            bound.apply_defaults()
            hooks.append(bound.arguments["on_channel"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(scenario, "NetworkCoordinator", Spy)
    monkeypatch.setattr(scenario, "_TimelineRecorder", refuse)
    plain = run_scenario(config, tmp_path / "plain")

    assert hooks == [None]
    assert len(plain.timeline) == 0
    assert list(plain.timeline) == [] and plain.timeline.t.size == 0
    for artifact in ARTIFACT_NAMES:
        assert (
            plain.artifacts[artifact].read_bytes()
            == recorded.artifacts[artifact].read_bytes()
        ), artifact
