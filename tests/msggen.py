"""Seeded generators for random-but-valid wire messages.

Shared by the wire unit tests and the acceptance suite so both draw from the
same corpus definition.
"""

from __future__ import annotations

import math
import random

from cosimnet import wire


def random_quaternion(rng: random.Random) -> tuple[float, float, float, float]:
    while True:
        q = [rng.gauss(0.0, 1.0) for _ in range(4)]
        norm = math.sqrt(sum(v * v for v in q))
        if norm > 1e-6:
            return tuple(v / norm for v in q)


def random_pose(rng: random.Random) -> wire.Pose:
    pos = tuple(rng.uniform(-500.0, 500.0) for _ in range(3))
    if rng.random() < 0.25:
        quat = (0.0, 0.0, 0.0, 1.0)
    else:
        quat = random_quaternion(rng)
    return wire.Pose(position=pos, orientation=quat)


def random_channel_data(rng: random.Random, max_agents: int = 16) -> wire.ChannelData:
    n = rng.randint(0, max_agents)
    nodes = tuple(random_pose(rng) for _ in range(n))
    paths = []
    if n >= 2:
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        rng.shuffle(pairs)
        for pair in pairs[: rng.randint(0, len(pairs))]:
            los = rng.random() < 0.5
            if los:
                num_hops = (0,)
                hops = ()
            else:
                counts = tuple(rng.randint(0, 8) for _ in range(rng.randint(1, 3)))
                num_hops = counts
                hops = tuple(
                    (
                        rng.uniform(-500.0, 500.0),
                        rng.uniform(-500.0, 500.0),
                        rng.uniform(0.0, 30.0),
                        rng.uniform(0.0, 40.0),
                    )
                    for _ in range(sum(counts))
                )
            a, b = pair if rng.random() < 0.5 else (pair[1], pair[0])
            paths.append(
                wire.PathDetails(ids=(a, b), los=los, num_hops=num_hops, hop_points=hops)
            )
    return wire.ChannelData(node_list=nodes, path_details=tuple(paths))


def random_physics_update(rng: random.Random, max_agents: int = 16) -> wire.PhysicsUpdate:
    msg_type = wire.MsgType.BEGIN if rng.random() < 0.5 else wire.MsgType.END
    t = rng.randrange(0, 2**63) if rng.random() < 0.3 else rng.randrange(0, 10**10)
    if rng.random() < 0.5:
        blob = b""
    else:
        cd = random_channel_data(rng, max_agents)
        blob = wire.compress_channel_blob(wire.encode_channel_data(cd))
    return wire.PhysicsUpdate(msg_type=msg_type, time_val=t, channel_data=blob)


def random_network_update(rng: random.Random) -> wire.NetworkUpdate:
    msg_type = wire.MsgType.BEGIN if rng.random() < 0.5 else wire.MsgType.END
    t = rng.randrange(0, 2**63) if rng.random() < 0.3 else rng.randrange(0, 10**10)
    return wire.NetworkUpdate(msg_type, t)


def random_message(rng: random.Random, max_agents: int = 16):
    if rng.random() < 0.5:
        return random_physics_update(rng, max_agents)
    return random_network_update(rng)
