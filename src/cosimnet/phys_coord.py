"""Physics-side coordinator: owns a world simulator, steps it exactly one
window at a time, and extracts the channel snapshot once per window.

`PhysicsStepper` is that per-window step, shared by both deployments.  In
process, `scenario.run_scenario` hands each snapshot object to the network
side as is.  Across processes, `run_physics_coordinator` encodes and
compresses it into the END message of the sync handshake.

The snapshot taken at the end of window t reflects agent state at t + W
(the window just simulated); the network side applies it to its next
window.  This one-window latency is inherent to the handshake and
documented here once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import wire
from .physics import ChannelFidelity, PhysicsSim
from .sync import PeerLink, Role, RunStats, SyncPeer
from .wire import ChannelData, PhysicsUpdate


def substep_schedule(window_ns: int, substeps_per_window: int) -> list[int]:
    """Equal substep durations summing exactly to one window."""
    if substeps_per_window < 1:
        raise ValueError(f"substeps_per_window must be >= 1, got {substeps_per_window}")
    if window_ns <= 0:
        raise ValueError(f"window must be > 0 ns, got {window_ns}")
    if window_ns % substeps_per_window:
        raise ValueError(
            f"window of {window_ns} ns is not divisible into "
            f"{substeps_per_window} substeps"
        )
    return [window_ns // substeps_per_window] * substeps_per_window


@dataclass(frozen=True)
class PhysCoordConfig:
    window_ns: int
    fidelity: ChannelFidelity
    agent_address_map: tuple[tuple[int, str], ...] = ()
    substeps_per_window: int = 1

    def __post_init__(self):
        substep_schedule(self.window_ns, self.substeps_per_window)
        object.__setattr__(
            self, "agent_address_map", wire.checked_address_map(self.agent_address_map)
        )


@dataclass
class PhysRunSummary:
    windows_completed: int
    agent_count: int
    extractions: int
    stats: RunStats = field(default_factory=RunStats)


class PhysicsStepper:
    """Runs one window's substeps, then extracts the channel once."""

    def __init__(self, sim: PhysicsSim, config: PhysCoordConfig):
        self._sim = sim
        self._fidelity = config.fidelity
        self._schedule = substep_schedule(config.window_ns, config.substeps_per_window)
        self.extractions = 0
        self.agent_count = 0

    def step_window(self) -> ChannelData:
        for dt in self._schedule:
            self._sim.step(dt)
        snapshot = self._sim.channel_snapshot(self._fidelity)
        self.extractions += 1
        self.agent_count = len(snapshot.node_list)
        return snapshot

    def summary(self, stats: RunStats) -> PhysRunSummary:
        return PhysRunSummary(
            stats.windows_completed, self.agent_count, self.extractions, stats
        )


class _EndEncoder:
    """Sync-peer driver: each window's snapshot, encoded and compressed
    into this side's END message."""

    def __init__(self, stepper: PhysicsStepper):
        self._stepper = stepper

    def simulate(self, t: int, window_ns: int, peer_end) -> PhysicsUpdate:
        return wire.channel_update(t, self._stepper.step_window())


def run_physics_coordinator(
    config: PhysCoordConfig,
    link: PeerLink,
    duration_ns: int,
    sim: PhysicsSim,
) -> PhysRunSummary:
    """Drive the PHYSICS_SIDE of the sync protocol for a fixed duration.

    Any failure, of the sync protocol or of the simulator, propagates to
    the caller with the partial run attached as `exc.partial_summary`.
    """
    if duration_ns <= 0 or duration_ns % config.window_ns:
        raise ValueError(
            f"duration {duration_ns} ns must be a positive multiple of the "
            f"{config.window_ns} ns window"
        )
    n_windows = duration_ns // config.window_ns
    stepper = PhysicsStepper(sim, config)
    driver = _EndEncoder(stepper)
    peer = SyncPeer(Role.PHYSICS_SIDE, config.window_ns)
    try:
        peer.start(link)
        for _ in range(n_windows):
            peer.run_window(link, driver)
        peer.shutdown(link)
    except Exception as exc:
        exc.partial_summary = stepper.summary(peer.stats)
        raise
    return stepper.summary(peer.stats)
