"""Scenario loading, the end-to-end run, and its file artifacts.

A scenario is one strict JSON document describing the world, the agents
(track plus network address), the radio, the traffic flows, and the
metrics sampling.  `run_scenario` runs both sides in one loop on the
calling thread: each window steps the physics side and extracts its
channel snapshot, then runs the network side's window on the snapshot
of the previous window, passed by reference.  It then reduces the flow
ledger to the CSV and JSON artifacts.  Every output byte is a function
of (config, seed).

The reduction (`metrics`) runs over Python lists, and `RunResult` holds
its series and histograms as lists, so a run loads numpy only where
arrays are asked for: a timeline's columns are numpy views, and numpy is
imported when one is first read.
"""

from __future__ import annotations

import csv
import json
import math
import time
from array import array
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path

from . import wire
from .flows import MAX_FLOWS, FlowConfig, FlowHost
from .metrics import (
    Histogram,
    delay_series,
    goodput_series,
    histogram,
    kde,  # unused here; the benchmark's tracer wraps `scenario.kde`
    mean,
    smooth,
)
from .net_coord import InProcessBackend, NetCoordConfig, NetRunSummary, NetworkCoordinator
from .netsim import RadioParams, ReferenceNetSim
from .phys_coord import PhysCoordConfig, PhysicsStepper, PhysRunSummary
from .physics import (
    AgentTrack,
    Box,
    ChannelFidelity,
    FidelityKind,
    ReferencePhysicsSim,
    WorldModel,
)
from .sync import DEFAULT_WINDOW_NS, RunStats

ARTIFACT_NAMES = (
    "rate.csv",
    "delay.csv",
    "rate_hist.csv",
    "delay_hist.csv",
    "scatter.csv",
    "run_summary.json",
)


class ConfigError(Exception):
    """Scenario document rejected; `path` points into the JSON."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class MetricsConfig:
    sample_period_ns: int = 10_000_000
    smoothing_window_ns: int = 200_000_000
    histogram_bins: int = 40


@dataclass(frozen=True)
class ScenarioConfig:
    world: WorldModel
    tracks: tuple[AgentTrack, ...]
    agent_address_map: tuple[tuple[int, str], ...]
    radio: RadioParams
    window_ns: int
    duration_ns: int
    fidelity: ChannelFidelity
    flows: tuple[FlowConfig, ...]
    seed: int
    metrics: MetricsConfig


# -- parsing -------------------------------------------------------------------


def _require(obj: dict, path: str, key: str):
    if key not in obj:
        raise ConfigError(path, f"missing required key {key!r}")
    return obj[key]


def _check_keys(obj, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}", "unknown key")
    return obj


def _number(value, path: str, *, integer: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {type(value).__name__}")
    if integer:
        if isinstance(value, float):
            raise ConfigError(path, "expected an integer")
        return value
    return float(value)


def _point(value, path: str) -> tuple[float, float, float]:
    if not isinstance(value, list) or len(value) != 3:
        raise ConfigError(path, "expected [x, y, z]")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _parse_box(data, path: str) -> tuple:
    obj = _check_keys(data, path, ("min", "max", "loss_db"))
    lo = _point(_require(obj, path, "min"), f"{path}.min")
    hi = _point(_require(obj, path, "max"), f"{path}.max")
    loss = _number(obj.get("loss_db", 0.0), f"{path}.loss_db")
    try:
        return Box(lo, hi, penetration_loss=loss)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_world(data, path: str) -> WorldModel:
    obj = _check_keys(data, path, ("bounds", "obstacles"))
    bounds = _parse_box(_require(obj, path, "bounds"), f"{path}.bounds")
    obstacles = obj.get("obstacles", [])
    if not isinstance(obstacles, list):
        raise ConfigError(f"{path}.obstacles", "expected a list")
    boxes = [
        _parse_box(b, f"{path}.obstacles[{i}]") for i, b in enumerate(obstacles)
    ]
    try:
        return WorldModel(bounds, tuple(boxes))
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_agents(data, path, world):
    if not isinstance(data, list) or not data:
        raise ConfigError(path, "expected a non-empty list of agents")
    tracks = []
    address_map = []
    for i, raw in enumerate(data):
        p = f"{path}[{i}]"
        obj = _check_keys(raw, p, ("id", "address", "waypoints", "speed", "loop"))
        agent_id = _number(_require(obj, p, "id"), f"{p}.id", integer=True)
        address = _require(obj, p, "address")
        if not isinstance(address, str):
            raise ConfigError(f"{p}.address", "expected an IPv4 string")
        waypoints_raw = _require(obj, p, "waypoints")
        if not isinstance(waypoints_raw, list) or not waypoints_raw:
            raise ConfigError(f"{p}.waypoints", "expected a non-empty list")
        waypoints = [
            _point(w, f"{p}.waypoints[{j}]") for j, w in enumerate(waypoints_raw)
        ]
        for j, w in enumerate(waypoints):
            if not world.bounds.contains(w):
                raise ConfigError(
                    f"{p}.waypoints[{j}]", f"point {w} is outside the world bounds"
                )
        speed = _number(obj.get("speed", 1.0), f"{p}.speed")
        loop = obj.get("loop", False)
        if not isinstance(loop, bool):
            raise ConfigError(f"{p}.loop", "expected true or false")
        try:
            tracks.append(AgentTrack(agent_id, tuple(waypoints), speed, loop=loop))
        except ValueError as exc:
            raise ConfigError(p, str(exc)) from None
        address_map.append((agent_id, address))
    return tuple(tracks), tuple(address_map)


_RADIO_KEYS = (
    "tx_power", "noise_floor", "pl0", "ref_distance", "path_loss_exponent",
    "per_packet_overhead", "mcs_table", "ber_at_threshold",
    "ber_decade_per_db", "queue_capacity",
)


def _parse_radio(data, path: str) -> RadioParams:
    obj = _check_keys(data, path, _RADIO_KEYS)
    kwargs = {}
    for key in _RADIO_KEYS:
        if key not in obj:
            continue
        if key == "mcs_table":
            rows = obj[key]
            if not isinstance(rows, list):
                raise ConfigError(f"{path}.mcs_table", "expected a list of [threshold, rate]")
            table = []
            for i, row in enumerate(rows):
                if not isinstance(row, list) or len(row) != 2:
                    raise ConfigError(
                        f"{path}.mcs_table[{i}]", "expected [threshold_db, rate_bps]"
                    )
                table.append(tuple(_number(v, f"{path}.mcs_table[{i}][{j}]")
                                   for j, v in enumerate(row)))
            kwargs[key] = tuple(table)
        elif key in ("per_packet_overhead", "queue_capacity"):
            kwargs[key] = _number(obj[key], f"{path}.{key}", integer=True)
        else:
            kwargs[key] = _number(obj[key], f"{path}.{key}")
    try:
        return RadioParams(**kwargs)
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from None


def _parse_fidelity(data, path: str) -> ChannelFidelity:
    obj = _check_keys(data, path, ("kind", "radius"))
    kind = _require(obj, path, "kind")
    if kind == "los_nlos":
        if "radius" in obj:
            raise ConfigError(f"{path}.radius", "only the disk kind takes a radius")
        return ChannelFidelity.los_nlos()
    if kind == "disk":
        radius = _number(_require(obj, path, "radius"), f"{path}.radius")
        try:
            return ChannelFidelity.disk(radius)
        except ValueError as exc:
            raise ConfigError(f"{path}.radius", str(exc)) from None
    raise ConfigError(f"{path}.kind", f"unknown fidelity {kind!r}")


def _parse_flows(data, path: str, addresses: set[str]) -> tuple[FlowConfig, ...]:
    if not isinstance(data, list):
        raise ConfigError(path, "expected a list")
    if len(data) > MAX_FLOWS:
        raise ConfigError(path, f"at most {MAX_FLOWS} flows per run, got {len(data)}")
    flows = []
    for i, raw in enumerate(data):
        p = f"{path}[{i}]"
        obj = _check_keys(
            raw, p,
            ("src", "dst", "payload_size", "arq_window", "retransmit_timeout_ns"),
        )
        kwargs = {"src": _require(obj, p, "src"), "dst": _require(obj, p, "dst")}
        for endpoint in ("src", "dst"):
            value = kwargs[endpoint]
            if not isinstance(value, str):
                raise ConfigError(f"{p}.{endpoint}", "expected an address string")
            if value not in addresses:
                raise ConfigError(
                    f"{p}.{endpoint}", f"address {value!r} is not bound to any agent"
                )
        for key in ("payload_size", "arq_window", "retransmit_timeout_ns"):
            if key in obj:
                kwargs[key] = _number(obj[key], f"{p}.{key}", integer=True)
        try:
            flows.append(FlowConfig(**kwargs))
        except ValueError as exc:
            raise ConfigError(p, str(exc)) from None
    return tuple(flows)


def _parse_metrics(data, path: str, window_ns: int, duration_ns: int) -> MetricsConfig:
    obj = _check_keys(
        data, path, ("sample_period_ns", "smoothing_window_ns", "histogram_bins")
    )
    kwargs = {}
    for key in ("sample_period_ns", "smoothing_window_ns", "histogram_bins"):
        if key in obj:
            kwargs[key] = _number(obj[key], f"{path}.{key}", integer=True)
    mc = MetricsConfig(**kwargs)
    if mc.sample_period_ns <= 0 or mc.sample_period_ns % window_ns:
        raise ConfigError(
            f"{path}.sample_period_ns",
            f"{mc.sample_period_ns} ns must be a positive multiple of the "
            f"{window_ns} ns window",
        )
    if duration_ns % mc.sample_period_ns:
        raise ConfigError(
            f"{path}.sample_period_ns",
            f"duration {duration_ns} ns is not a multiple of {mc.sample_period_ns} ns",
        )
    if mc.smoothing_window_ns <= 0 or mc.smoothing_window_ns % mc.sample_period_ns:
        raise ConfigError(
            f"{path}.smoothing_window_ns",
            f"{mc.smoothing_window_ns} ns must be a positive multiple of the "
            f"{mc.sample_period_ns} ns sample period",
        )
    if mc.histogram_bins < 1:
        raise ConfigError(f"{path}.histogram_bins", "must be >= 1")
    return mc


_TOP_KEYS = (
    "world", "agents", "radio", "window_ns", "duration_ns",
    "fidelity", "flows", "seed", "metrics",
)


def parse_scenario(
    document: dict,
    *,
    seed: int | None = None,
    window_ns: int | None = None,
    duration_ns: int | None = None,
) -> ScenarioConfig:
    """Validate a decoded scenario document; keyword overrides win."""
    obj = _check_keys(document, "$", _TOP_KEYS)
    world = _parse_world(_require(obj, "$", "world"), "world")
    tracks, address_map = _parse_agents(_require(obj, "$", "agents"), "agents", world)
    if window_ns is None:
        window_ns = obj.get("window_ns", DEFAULT_WINDOW_NS)
    window_ns = _number(window_ns, "window_ns", integer=True)
    if window_ns <= 0:
        raise ConfigError("window_ns", f"must be > 0, got {window_ns}")
    if duration_ns is None:
        duration_ns = _require(obj, "$", "duration_ns")
    duration_ns = _number(duration_ns, "duration_ns", integer=True)
    if duration_ns <= 0 or duration_ns % window_ns:
        raise ConfigError(
            "duration_ns",
            f"duration {duration_ns} ns must be a positive multiple of the "
            f"{window_ns} ns window",
        )
    if duration_ns >= 2**64:  # the last BEGIN frame carries it as a u64
        raise ConfigError("duration_ns", "must fit in an unsigned 64-bit integer")
    radio = _parse_radio(obj.get("radio", {}), "radio")
    fidelity = _parse_fidelity(obj.get("fidelity", {"kind": "los_nlos"}), "fidelity")
    addresses = {ip for _, ip in address_map}
    flows = _parse_flows(obj.get("flows", []), "flows", addresses)
    if seed is None:
        seed = obj.get("seed", 0)
    seed = _number(seed, "seed", integer=True)
    if not 0 <= seed < 2**64:
        raise ConfigError("seed", "must fit in an unsigned 64-bit integer")
    metrics = _parse_metrics(obj.get("metrics", {}), "metrics", window_ns, duration_ns)
    config = ScenarioConfig(
        world=world,
        tracks=tracks,
        agent_address_map=address_map,
        radio=radio,
        window_ns=window_ns,
        duration_ns=duration_ns,
        fidelity=fidelity,
        flows=flows,
        seed=seed,
        metrics=metrics,
    )
    try:  # the coordinators' address-map check (bijection, IPv4 syntax)
        wire.checked_address_map(address_map)
    except ValueError as exc:
        raise ConfigError("agents", str(exc)) from None
    ids = sorted(agent_id for agent_id, _ in address_map)
    if ids != list(range(len(ids))):  # the channel snapshot indexes agents by id
        raise ConfigError("agents", f"agent ids must be dense 0..n-1, got {ids}")
    return config


def load_scenario(path, **overrides) -> ScenarioConfig:
    text = Path(path).read_text()
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError("$", f"not valid JSON: {exc}") from None
    return parse_scenario(document, **overrides)


def config_as_dict(config: ScenarioConfig) -> dict:
    """JSON-ready echo of a resolved config (defaults filled in)."""
    return {
        "world": {
            "bounds": {
                "min": list(config.world.bounds.min_corner),
                "max": list(config.world.bounds.max_corner),
            },
            "obstacles": [
                {
                    "min": list(box.min_corner),
                    "max": list(box.max_corner),
                    "loss_db": box.penetration_loss,
                }
                for box in config.world.obstacles
            ],
        },
        "agents": [
            {
                "id": track.agent_id,
                "address": dict(config.agent_address_map)[track.agent_id],
                "waypoints": [list(w) for w in track.waypoints],
                "speed": track.speed,
                "loop": track.loop,
            }
            for track in config.tracks
        ],
        "radio": {
            key: (
                [list(row) for row in getattr(config.radio, key)]
                if key == "mcs_table"
                else getattr(config.radio, key)
            )
            for key in _RADIO_KEYS
        },
        "window_ns": config.window_ns,
        "duration_ns": config.duration_ns,
        "fidelity": (
            {"kind": "disk", "radius": config.fidelity.radius}
            if config.fidelity.kind is FidelityKind.DISK
            else {"kind": "los_nlos"}
        ),
        "flows": [asdict(flow) for flow in config.flows],
        "seed": config.seed,
        "metrics": asdict(config.metrics),
    }


# -- the run ---------------------------------------------------------------------


@dataclass
class PairSample:
    """Channel state of one agent pair at one window, as the netsim saw it."""

    t: int
    pair: tuple[int, int]
    los: bool
    distance: float
    wall_count: int
    wall_loss: float


def _column(name: str, dtype: str) -> property:
    """A read-only property: the numpy view of array `name` as `dtype`."""

    def view(self):
        import numpy as np

        return np.frombuffer(getattr(self, name), dtype=dtype)

    return property(view)


class Timeline:
    """Channel state of every listed agent pair at every window after the
    first, as the netsim saw it, one typed column per field.

    The columns are numpy views, and numpy is imported when one is first
    read: ``t`` (ns, the window that applied the snapshot), ``a`` and ``b``
    (the pair as the snapshot listed it), ``los``, ``distance`` (m),
    ``wall_count`` (walls on the first path) and ``wall_loss`` (dB over
    those walls).  ``len()`` counts samples; indexing, slicing and
    iteration build `PairSample`s on demand.
    """

    def __init__(self):
        self._t = array("q")
        self._a = array("q")
        self._b = array("q")
        self._los = array("b")
        self._distance = array("d")
        self._wall_count = array("q")
        self._wall_loss = array("d")

    def __len__(self) -> int:
        return len(self._t)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        los = bool(self._los[i])
        walls = self._wall_count[i]
        # an NLOS pair with no hops sums no losses: the int 0, as `sum` gives
        loss = 0 if not (los or walls) else self._wall_loss[i]
        return PairSample(
            self._t[i], (self._a[i], self._b[i]), los, self._distance[i], walls, loss
        )

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    t = _column("_t", "int64")
    a = _column("_a", "int64")
    b = _column("_b", "int64")
    los = _column("_los", "bool")
    distance = _column("_distance", "float64")
    wall_count = _column("_wall_count", "int64")
    wall_loss = _column("_wall_loss", "float64")


class _TimelineRecorder:
    """`on_channel` hook that appends each applied snapshot to a `Timeline`,
    one extend per column per window.  Distance and wall loss come from the
    row `netsim.apply_channel` has just filled for the pair.  The columns
    are read first, so a deferred snapshot is built once and its rows are
    sliced from them."""

    def __init__(self, netsim: ReferenceNetSim):
        self._netsim = netsim
        self.timeline = Timeline()

    def __call__(self, t: int, cd) -> None:
        tl = self.timeline
        num_hops, path_start = cd.num_hops, cd.path_start
        rows = self._netsim.link_table.values()  # one per listed pair, in order
        tl._t.extend(repeat(t, len(cd.ids)))
        tl._a.extend([a for a, _ in cd.ids])
        tl._b.extend([b for _, b in cd.ids])
        tl._los.extend(cd.los)
        tl._wall_count.extend([  # walls on the first path
            0 if los or p0 == p1 else num_hops[p0]
            for los, p0, p1 in zip(cd.los, path_start, path_start[1:])
        ])
        tl._distance.extend([row[2] for row in rows])
        tl._wall_loss.extend([row[3] for row in rows])


@dataclass
class RunResult:
    config: ScenarioConfig
    out_dir: Path
    sample_times_ns: list[int]
    goodput_bps: list[float]
    goodput_smoothed: list[float]
    delay_ns: list[float]
    delay_smoothed: list[float]
    rate_hist: Histogram
    delay_hist: Histogram
    deliveries: list
    timeline: Timeline
    net_summary: NetRunSummary
    phys_summary: PhysRunSummary
    flow_stats: list[dict]
    netsim_stats: dict
    artifacts: dict[str, Path] = field(default_factory=dict)


def run_scenario(
    config: ScenarioConfig, out_dir, *, plots: bool = False, timeline: bool = False
) -> RunResult:
    """Run `config` and write its artifacts to `out_dir`.

    With `timeline`, `RunResult.timeline` holds the channel state of every
    pair at every window; otherwise it is empty and nothing is recorded.
    A fault in a window writes a partial `run_summary.json` and is
    re-raised with that file's path as `exc.partial_summary_path`.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    sim = ReferencePhysicsSim(config.world, config.tracks)
    phys_cfg = PhysCoordConfig(config.window_ns, config.fidelity)
    net_cfg = NetCoordConfig(
        config.window_ns, config.agent_address_map, seed=config.seed
    )
    netsim = ReferenceNetSim(config.radio, dict(config.agent_address_map))
    backend = InProcessBackend(net_cfg.addresses)
    host = FlowHost(backend)
    for flow_cfg in config.flows:
        host.add_flow(flow_cfg)
    recorder = _TimelineRecorder(netsim) if timeline else None
    physics = PhysicsStepper(sim, phys_cfg)
    coordinator = NetworkCoordinator(
        net_cfg, netsim, backend, app_tick=host.tick, on_channel=recorder
    )

    # a window is completed once both sides have run it; its wall time
    # covers both, and both summaries share these stats
    stats = RunStats()
    window_ns = config.window_ns
    channel = None  # the snapshot taken at the end of the previous window
    try:
        for k in range(config.duration_ns // window_ns):
            t0 = time.perf_counter()
            snapshot = physics.step_window()
            coordinator.simulate(k * window_ns, window_ns, channel)
            channel = snapshot
            stats.windows_completed += 1
            stats.window_wall_seconds.append(time.perf_counter() - t0)
    except Exception as exc:
        counters = _counters(
            coordinator.summary(stats), physics.summary(stats), _netsim_stats(netsim, host)
        )
        exc.partial_summary_path = _write_partial_summary(out, config, exc, counters)
        raise

    result = _collect(
        config, out, host, recorder,
        coordinator.summary(stats), physics.summary(stats), netsim,
    )
    _write_artifacts(result, plots=plots)
    return result


def _collect(config, out, host, recorder, net_summary, phys_summary, netsim) -> RunResult:
    period = config.metrics.sample_period_ns
    width = config.metrics.smoothing_window_ns // period
    n = config.duration_ns // period
    times = [k * period for k in range(n)]

    # deliveries flow by flow: each sample's sums take them in this order
    delivered_at = [d.delivered_at for f in host.flows for d in f.deliveries]
    per_delivery_delay = [
        float(d.delivered_at - d.first_sent_at) for f in host.flows for d in f.deliveries
    ]
    bits = [f.config.payload_bits for f in host.flows for _ in f.deliveries]

    goodput = goodput_series(delivered_at, bits, config.duration_ns, period)
    delays = delay_series(delivered_at, per_delivery_delay, config.duration_ns, period)
    goodput_sm = smooth(goodput, width)
    delay_sm = smooth(delays, width)

    bins = config.metrics.histogram_bins
    flow_stats = [
        {
            "flow_id": flow.flow_id,
            "src": flow.config.src,
            "dst": flow.config.dst,
            "payload_size": flow.config.payload_size,
            "sent_total": flow.sent_total,
            "retransmit_total": flow.retransmit_total,
            "delivered_total": flow.delivered_total,
            "duplicate_total": flow.duplicate_total,
            "acked_total": flow.acked_total,
            "acks_sent": flow.acks_sent,
            "delivered_bits": flow.delivered_total * flow.config.payload_bits,
        }
        for flow in host.flows
    ]
    return RunResult(
        config=config,
        out_dir=out,
        sample_times_ns=times,
        goodput_bps=goodput,
        goodput_smoothed=goodput_sm,
        delay_ns=delays,
        delay_smoothed=delay_sm,
        rate_hist=histogram(goodput, bins),
        delay_hist=histogram(per_delivery_delay, bins),
        deliveries=host.deliveries,
        timeline=Timeline() if recorder is None else recorder.timeline,
        net_summary=net_summary,
        phys_summary=phys_summary,
        flow_stats=flow_stats,
        netsim_stats=_netsim_stats(netsim, host),
    )


def _netsim_stats(netsim, host) -> dict:
    return {
        "cleared_total": netsim.cleared_total,
        "dropped_total": netsim.dropped_total,
        "corrupt_received": host.corrupt_total,
        "stray_received": host.stray_total,
    }


def _counters(net: NetRunSummary, phys: PhysRunSummary, netsim_stats: dict) -> dict:
    """The `counters` of `run_summary.json`, for a full run or a failed one."""
    return {
        "windows_completed": net.windows_completed,
        "physics_extractions": phys.extractions,
        "captured_total": net.captured_total,
        "released_total": net.released_total,
        "released_bytes": net.released_bytes,
        "expired_total": net.expired_total,
        "rejected_total": net.rejected_total,
        "late_cleared_total": net.late_cleared_total,
        "held_at_end": net.held_at_end,
        "pending_at_end": net.pending_at_end,
        **netsim_stats,
    }


# -- artifacts ---------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return "" if math.isnan(value) else repr(value)
    return str(value)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _hist_rows(hist: Histogram):
    total = sum(hist.counts)
    for lo, hi, count, density in zip(hist.edges, hist.edges[1:], hist.counts, hist.density):
        yield lo, hi, int(count), count / total if total else 0.0, density


def _write_partial_summary(
    out: Path, config: ScenarioConfig, error: Exception, counters: dict
) -> Path:
    """Write `run_summary.json` for a failed run, the error plus the
    counters a full run reports as they stood when it failed, and return
    its path."""
    payload = {
        "partial": True,
        "error": f"{type(error).__name__}: {error}",
        "seed": config.seed,
        "config": config_as_dict(config),
        "counters": counters,
    }
    path = out / "run_summary.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _write_artifacts(result: RunResult, *, plots: bool) -> None:
    out = result.out_dir
    times_s = [t / 1e9 for t in result.sample_times_ns]
    delay_s = [d / 1e9 for d in result.delay_ns]
    delay_sm_s = [d / 1e9 for d in result.delay_smoothed]

    _write_csv(
        out / "rate.csv",
        ["time_s", "goodput_bps", "goodput_smoothed_bps"],
        zip(times_s, result.goodput_bps, result.goodput_smoothed),
    )
    _write_csv(
        out / "delay.csv",
        ["time_s", "mean_delay_s", "smoothed_delay_s"],
        zip(times_s, delay_s, delay_sm_s),
    )
    _write_csv(
        out / "rate_hist.csv",
        ["bin_lo_bps", "bin_hi_bps", "count", "mass", "density"],
        _hist_rows(result.rate_hist),
    )
    _write_csv(
        out / "delay_hist.csv",
        ["bin_lo_ns", "bin_hi_ns", "count", "mass", "density"],
        _hist_rows(result.delay_hist),
    )
    _write_csv(
        out / "scatter.csv",
        ["time_s", "goodput_bps", "smoothed_delay_s"],
        zip(times_s, result.goodput_bps, delay_sm_s),
    )

    summary = {
        "partial": False,
        "seed": result.config.seed,
        "config": config_as_dict(result.config),
        "columns": {
            "rate.csv": "per-sample goodput (bits/s) and its centered moving average",
            "delay.csv": "per-sample mean first-send-to-delivery delay (s); empty cell = no deliveries in the period",
            "rate_hist.csv": "goodput sample histogram; mass sums to 1, density integrates to 1",
            "delay_hist.csv": "per-delivery delay histogram (ns bins)",
            "scatter.csv": "per-sample goodput against smoothed delay",
        },
        "counters": _counters(
            result.net_summary, result.phys_summary, result.netsim_stats
        ),
        "flows": result.flow_stats,
        "metrics": {
            "samples": len(result.goodput_bps),
            "delivered_bits_total": sum(f["delivered_bits"] for f in result.flow_stats),
            "mean_goodput_bps": mean(result.goodput_bps) if result.goodput_bps else 0.0,
            "delay_defined_samples": sum(not math.isnan(d) for d in result.delay_ns),
        },
    }
    path = out / "run_summary.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    result.artifacts = {name: out / name for name in ARTIFACT_NAMES}
    if plots:
        result.artifacts.update(_write_plots(result))


# -- SVG plots (optional, no plotting dependency) -----------------------------------


def _svg_path(xs, ys, x0, x1, y0, y1, width, height, pad) -> str:
    def sx(x):
        return pad + (x - x0) / (x1 - x0 or 1.0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0 or 1.0) * (height - 2 * pad)

    parts = []
    pen_down = False
    for x, y in zip(xs, ys):
        if y is None or (isinstance(y, float) and math.isnan(y)):
            pen_down = False
            continue
        cmd = "L" if pen_down else "M"
        parts.append(f"{cmd}{sx(x):.2f},{sy(y):.2f}")
        pen_down = True
    return " ".join(parts)


def _svg_plot(path: Path, title: str, xs, series: list[tuple[str, list, str]]) -> None:
    width, height, pad = 900, 340, 45
    finite = [
        y for _, ys, _ in series for y in ys
        if y is not None and not (isinstance(y, float) and math.isnan(y))
    ]
    if not finite:
        finite = [0.0, 1.0]
    y0, y1 = min(finite), max(finite)
    if y0 == y1:
        y0, y1 = y0 - 1.0, y1 + 1.0
    x0, x1 = (min(xs), max(xs)) if len(xs) else (0.0, 1.0)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{height - pad + 16}" font-family="sans-serif" font-size="10">{x0:.3g}</text>',
        f'<text x="{width - pad - 30}" y="{height - pad + 16}" font-family="sans-serif" font-size="10">{x1:.3g}</text>',
        f'<text x="4" y="{height - pad}" font-family="sans-serif" font-size="10">{y0:.3g}</text>',
        f'<text x="4" y="{pad + 4}" font-family="sans-serif" font-size="10">{y1:.3g}</text>',
    ]
    for label, ys, color in series:
        d = _svg_path(xs, ys, x0, x1, y0, y1, width, height, pad)
        if d:
            lines.append(
                f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.2"/>'
            )
    legend_x = width - pad - 180
    for i, (label, _, color) in enumerate(series):
        y = pad + 14 * i
        lines.append(
            f'<line x1="{legend_x}" y1="{y}" x2="{legend_x + 18}" y2="{y}" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{legend_x + 24}" y="{y + 4}" font-family="sans-serif" '
            f'font-size="11">{label}</text>'
        )
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


def _svg_scatter(path: Path, title: str, xs, ys) -> None:
    width, height, pad = 500, 400, 45
    pairs = [
        (x, y) for x, y in zip(xs, ys)
        if not (isinstance(y, float) and math.isnan(y))
    ]
    if not pairs:
        pairs = [(0.0, 0.0)]
    px, py = zip(*pairs)
    x0, x1 = min(px), max(px)
    y0, y1 = min(py), max(py)
    if x0 == x1:
        x0, x1 = x0 - 1, x1 + 1
    if y0 == y1:
        y0, y1 = y0 - 1, y1 + 1
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="20" font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for x, y in pairs:
        cx = pad + (x - x0) / (x1 - x0) * (width - 2 * pad)
        cy = height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)
        lines.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="2" fill="steelblue" fill-opacity="0.5"/>')
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


def _write_plots(result: RunResult) -> dict[str, Path]:
    out = result.out_dir
    times_s = [t / 1e9 for t in result.sample_times_ns]
    rate_svg = out / "rate.svg"
    delay_svg = out / "delay.svg"
    scatter_svg = out / "scatter.svg"
    _svg_plot(
        rate_svg, "goodput (bits/s)", times_s,
        [
            ("per sample", result.goodput_bps, "lightsteelblue"),
            ("smoothed", result.goodput_smoothed, "crimson"),
        ],
    )
    _svg_plot(
        delay_svg, "delivery delay (s)", times_s,
        [
            ("per sample", [d / 1e9 for d in result.delay_ns], "lightsteelblue"),
            ("smoothed", [d / 1e9 for d in result.delay_smoothed], "crimson"),
        ],
    )
    _svg_scatter(
        scatter_svg, "goodput vs smoothed delay",
        result.goodput_bps, [d / 1e9 for d in result.delay_smoothed],
    )
    return {p.name: p for p in (rate_svg, delay_svg, scatter_svg)}
