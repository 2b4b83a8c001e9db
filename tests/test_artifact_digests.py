"""Pinned artifact digests: a given scenario and seed gives the same bytes.

Each corpus run of `tests/test_lockstep_oracle.py` (static_los_30m for 400
windows, patrol for 3,000, swarm6) and the benchmark's swarm16 world (seed
7, 250 windows: 16 agents, 50 boxes and deep per-link queues) writes
`run_summary.json` and the five CSVs, and each file's SHA-256 must equal
the digest pinned here.  A change
that only makes the program faster leaves them as they are; a change that
moves a random stream or a channel verdict has to re-pin them and say so.
The static and patrol digests were last re-pinned when bit errors moved
from numpy's generator to the stdlib's geometric gaps; swarm16 and swarm6
flip no bit under either sampler, so theirs did not move.
"""

from __future__ import annotations

import hashlib

import pytest

from benchmarks import swarm
from cosimnet.scenario import ARTIFACT_NAMES, parse_scenario, run_scenario
from tests.test_lockstep_oracle import CORPUS

WORLDS = {**CORPUS, "swarm16": lambda: parse_scenario(swarm.generate(7, 250))}

# the first 16 hex digits of each artifact's SHA-256
DIGESTS = {
    "static": {
        "delay.csv": "e849405a87e23bde",
        "delay_hist.csv": "33a169dbfa358ef7",
        "rate.csv": "1b8516d72d0b4f74",
        "rate_hist.csv": "cc894fa09368b7ed",
        "run_summary.json": "3a2991803547336a",
        "scatter.csv": "6719b77a5902e35d",
    },
    "patrol": {
        "delay.csv": "c055d39edcc1ce46",
        "delay_hist.csv": "4ec2df89184ed0fe",
        "rate.csv": "274d588c31496547",
        "rate_hist.csv": "846db635ead2e5c8",
        "run_summary.json": "1828aaf2b3414720",
        "scatter.csv": "c187486c8ef6ed5f",
    },
    "swarm6": {
        "delay.csv": "033a0cad2c227dbf",
        "delay_hist.csv": "9b7102bf789c70ae",
        "rate.csv": "237acebb8ff3db81",
        "rate_hist.csv": "27075ce5d189c09b",
        "run_summary.json": "0d9367c417c34669",
        "scatter.csv": "8e3237de6c19a07c",
    },
    "swarm16": {
        "delay.csv": "1d1d4b0dd208491f",
        "delay_hist.csv": "e11f915a90acd18a",
        "rate.csv": "ca52ac505d05f348",
        "rate_hist.csv": "a1e57314cc666b4c",
        "run_summary.json": "123fd3d4725e1743",
        "scatter.csv": "2e79a17ec90a66c3",
    },
}


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_corpus_artifacts_match_their_pinned_digests(tmp_path, name):
    assert sorted(DIGESTS) == sorted(WORLDS)
    result = run_scenario(WORLDS[name](), tmp_path)
    assert sorted(result.artifacts) == sorted(ARTIFACT_NAMES)
    got = {
        artifact: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for artifact, path in result.artifacts.items()
    }
    assert got == DIGESTS[name]
