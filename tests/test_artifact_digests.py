"""Pinned artifact digests: a given scenario and seed gives the same bytes.

Each corpus run of `tests/test_lockstep_oracle.py` (static_los_30m for 400
windows, patrol for 3,000, swarm6) writes `run_summary.json` and the five
CSVs, and each file's SHA-256 must equal the digest pinned here.  A change
that only makes the program faster leaves them as they are; a change that
moves a random stream or a channel verdict has to re-pin them and say so.
"""

from __future__ import annotations

import hashlib

import pytest

from cosimnet.scenario import ARTIFACT_NAMES, run_scenario
from tests.test_lockstep_oracle import CORPUS

# the first 16 hex digits of each artifact's SHA-256
DIGESTS = {
    "static": {
        "delay.csv": "833c462d13bf6a0c",
        "delay_hist.csv": "5ae46111a55705ab",
        "rate.csv": "7a31ac44bf1f974b",
        "rate_hist.csv": "34e4577692ba7645",
        "run_summary.json": "82becb15ed0a8935",
        "scatter.csv": "a87a5fe2ddc17984",
    },
    "patrol": {
        "delay.csv": "8f4da11e38fa355f",
        "delay_hist.csv": "d933d737288db7f8",
        "rate.csv": "00f5bd2a15d4bce5",
        "rate_hist.csv": "cd91b49f31882bf7",
        "run_summary.json": "1a27d58e59fed6f9",
        "scatter.csv": "639ac15d24468558",
    },
    "swarm6": {
        "delay.csv": "033a0cad2c227dbf",
        "delay_hist.csv": "9b7102bf789c70ae",
        "rate.csv": "237acebb8ff3db81",
        "rate_hist.csv": "27075ce5d189c09b",
        "run_summary.json": "0d9367c417c34669",
        "scatter.csv": "8e3237de6c19a07c",
    },
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_artifacts_match_their_pinned_digests(tmp_path, name):
    assert sorted(DIGESTS) == sorted(CORPUS)
    result = run_scenario(CORPUS[name](), tmp_path)
    assert sorted(result.artifacts) == sorted(ARTIFACT_NAMES)
    got = {
        artifact: hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for artifact, path in result.artifacts.items()
    }
    assert got == DIGESTS[name]
