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

from . import wire
from .physics import ChannelFidelity, PhysicsSim
from .sync import Role, RunStats, SocketLink, run_lockstep
from .wire import ChannelData


class PhysCoordConfig(wire.Record):
    __slots__ = _fields = ("window_ns", "fidelity", "agent_address_map")

    def __init__(
        self, window_ns: int, fidelity: ChannelFidelity,
        agent_address_map: tuple[tuple[int, str], ...] = (),
    ):
        self._require_ints(window_ns=window_ns)
        if window_ns <= 0:
            raise ValueError(f"window must be > 0 ns, got {window_ns}")
        self._fill(window_ns, fidelity, wire.checked_address_map(agent_address_map))


class PhysRunSummary:
    def __init__(self, windows_completed: int, extractions: int, stats: RunStats | None = None):
        self.windows_completed = windows_completed
        self.extractions = extractions
        self.stats = RunStats() if stats is None else stats


class PhysicsStepper:
    """Steps the simulator by one window, then extracts the channel once."""

    def __init__(self, sim: PhysicsSim, config: PhysCoordConfig):
        self._sim = sim
        self._fidelity = config.fidelity
        self._window_ns = config.window_ns
        self.extractions = 0

    def step_window(self) -> ChannelData:
        self._sim.step(self._window_ns)
        snapshot = self._sim.channel_snapshot(self._fidelity)
        self.extractions += 1
        return snapshot

    def summary(self, stats: RunStats) -> PhysRunSummary:
        return PhysRunSummary(stats.windows_completed, self.extractions, stats)


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
