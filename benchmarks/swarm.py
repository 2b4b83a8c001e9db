"""Deterministic generator for the ``swarm16`` scenario document.

Sixteen agents move as eight leader/follower convoys through a
200 x 200 x 20 m world holding 50 random boxes.  Each follower walks its
leader's looped four-waypoint track shifted sideways by 4 m at the same
speed, so every convoy pair stays 4 m apart and keeps a usable link while
the 120 agent pairs sweep through the obstacles.  Each convoy carries one
600-byte ARQ flow from leader to follower.  Flows between random agents
would mostly sit at the lowest MCS with BER near 1e-2 and deliver nothing.

The same seed always gives the same document; the program under test only
ever sees the document.
"""

from __future__ import annotations

import math
import random

WORLD = (200.0, 200.0, 20.0)
CONVOYS = 8
BOXES = 50
FOLLOW_OFFSET_M = 4.0
MARGIN_M = 8.0  # keeps the shifted follower track inside the bounds
WINDOW_NS = 1_000_000


def _r(value: float) -> float:
    return round(value, 3)


def generate(seed: int, windows: int) -> dict:
    """Scenario document for `seed`, running `windows` 1 ms windows."""
    rng = random.Random(seed)
    width, depth, height = WORLD
    obstacles = []
    for _ in range(BOXES):
        sx, sy = rng.uniform(3.0, 12.0), rng.uniform(3.0, 12.0)
        sz = rng.uniform(6.0, 15.0)
        x0, y0 = rng.uniform(0.0, width - sx), rng.uniform(0.0, depth - sy)
        obstacles.append({
            "min": [_r(x0), _r(y0), 0.0],
            "max": [_r(x0 + sx), _r(y0 + sy), _r(sz)],
            "loss_db": _r(rng.uniform(3.0, 10.0)),
        })

    agents, flows = [], []
    for convoy in range(CONVOYS):
        track = [
            [_r(rng.uniform(MARGIN_M, width - MARGIN_M)),
             _r(rng.uniform(MARGIN_M, depth - MARGIN_M)), 2.0]
            for _ in range(4)
        ]
        heading = rng.uniform(0.0, 2.0 * math.pi)
        dx = FOLLOW_OFFSET_M * math.cos(heading)
        dy = FOLLOW_OFFSET_M * math.sin(heading)
        speed = _r(rng.uniform(1.0, 6.0))
        leader, follower = 2 * convoy, 2 * convoy + 1
        for agent_id, shift in ((leader, (0.0, 0.0)), (follower, (dx, dy))):
            agents.append({
                "id": agent_id,
                "address": f"10.0.0.{agent_id + 1}",
                "waypoints": [[_r(x + shift[0]), _r(y + shift[1]), z] for x, y, z in track],
                "speed": speed,
                "loop": True,
            })
        flows.append({
            "src": f"10.0.0.{leader + 1}",
            "dst": f"10.0.0.{follower + 1}",
            "payload_size": 600,
            "arq_window": 8,
            "retransmit_timeout_ns": 15_000_000,
        })

    return {
        "world": {
            "bounds": {"min": [0.0, 0.0, 0.0], "max": list(WORLD)},
            "obstacles": obstacles,
        },
        "agents": agents,
        "flows": flows,
        "window_ns": WINDOW_NS,
        "duration_ns": windows * WINDOW_NS,
        "seed": seed,
    }
