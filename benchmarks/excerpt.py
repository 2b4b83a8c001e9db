"""Start a looped scenario part-way through: the ``patrol`` excerpt.

`excerpt(document, start_s)` returns a copy of a scenario document whose
agents begin where the original's stand `start_s` seconds in.  Each track
is a loop walked at constant speed, so putting the point reached at that
time first, followed by the rest of the loop, gives the same path in the
same direction.  Obstacles, flows and radio settings are unchanged; queues,
flow state and the held set start empty, as they are in ``patrol`` on the
clear leg before its occlusion trough.
"""

from __future__ import annotations

import copy
import math


def _restart(waypoints: list[list[float]], arc: float) -> list[list[float]]:
    """The loop `waypoints`, starting `arc` metres along it."""
    closed = waypoints + waypoints[:1]
    total = sum(math.dist(a, b) for a, b in zip(closed, closed[1:]))
    arc = math.fmod(arc, total)
    for i, (a, b) in enumerate(zip(closed, closed[1:])):
        length = math.dist(a, b)
        if arc == 0.0:
            return waypoints[i:] + waypoints[:i]
        if arc < length:
            u = arc / length
            start = [pa + u * (pb - pa) for pa, pb in zip(a, b)]
            return [start] + waypoints[i + 1:] + waypoints[:i + 1]
        arc -= length
    return list(waypoints)  # arc == total through rounding: the loop's start


def excerpt(document: dict, start_s: float) -> dict:
    """`document` with every agent `start_s` seconds along its track."""
    out = copy.deepcopy(document)
    for agent in out["agents"]:
        if not agent.get("loop", False):
            raise ValueError(f"agent {agent['id']}: only looped tracks can be restarted")
        agent["waypoints"] = _restart(agent["waypoints"], agent.get("speed", 1.0) * start_s)
    return out
