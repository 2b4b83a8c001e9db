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
from .sync import Role, RunStats, SocketLink, run_lockstep
from .wire import ChannelData


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
        self.agent_count = len(snapshot.poses)
        return snapshot

    def summary(self, stats: RunStats) -> PhysRunSummary:
        return PhysRunSummary(
            stats.windows_completed, self.agent_count, self.extractions, stats
        )


def run_physics_coordinator(
    config: PhysCoordConfig,
    link: SocketLink,
    duration_ns: int,
    sim: PhysicsSim,
) -> PhysRunSummary:
    """Drive the PHYSICS_SIDE of the sync protocol for a fixed duration.

    Each window's snapshot is encoded and compressed into this side's END.
    Any failure, of the sync protocol or of the simulator, closes the link
    and propagates to the caller with the partial run attached as
    `exc.partial_summary`.
    """
    stepper = PhysicsStepper(sim, config)
    stats = RunStats()

    def simulate(t, peer_end):
        return wire.channel_update(t, stepper.step_window())

    try:
        run_lockstep(
            Role.PHYSICS_SIDE, link, config.window_ns, duration_ns, simulate, stats
        )
    except Exception as exc:
        exc.partial_summary = stepper.summary(stats)
        raise
    return stepper.summary(stats)
