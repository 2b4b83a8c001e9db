"""Lockstep co-simulation of a world model and a wireless network model.

The pieces compose bottom-up: `wire` frames the peer protocol, `sync` runs
one side of the window lockstep over a socket (`run_lockstep`), `physics`
owns world geometry and channel extraction, `netsim` turns channel state
into queueing and bit errors, `phys_coord`/`net_coord` drive the two
protocol sides, `flows` emulates the application traffic, and `scenario`
wires a whole run from one JSON document.
Most callers only need `scenario.load_scenario` / `scenario.run_scenario` or
the `cosimnet` CLI.
"""

from .scenario import (
    ConfigError,
    RunResult,
    ScenarioConfig,
    config_as_dict,
    load_scenario,
    parse_scenario,
    run_scenario,
)
from .sync import DesyncError, ProtocolError, SyncError, TransportError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DesyncError",
    "ProtocolError",
    "RunResult",
    "ScenarioConfig",
    "SyncError",
    "TransportError",
    "config_as_dict",
    "load_scenario",
    "parse_scenario",
    "run_scenario",
    "__version__",
]
