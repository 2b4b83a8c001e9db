"""One benchmark run in a fresh process; `run.py` starts it and reads the
JSON report it prints as its last line of output.

Roles:

- ``inproc``: `load_scenario` then `run_scenario`, both sides in this
  process on `run_scenario`'s two threads.
- ``net``: the network side of the split deployment.  It listens on a
  loopback port, starts the ``phys`` role as a child process, and runs
  `run_network_coordinator` over the accepted `SocketLink`.
- ``phys``: `run_physics_coordinator` over a `SocketLink` to the ``net``
  role's port.

`--t0` is the parent's `time.monotonic()` just before it started this
process; set-up time runs from there to the first window.  With `--trace`
the run's public entry points are wrapped (see `tracing.py`) and the report
carries per-layer figures; without it nothing is wrapped.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cosimnet import load_scenario, run_scenario  # noqa: E402
from cosimnet.flows import FlowHost  # noqa: E402
from cosimnet.net_coord import (  # noqa: E402
    InProcessBackend,
    NetCoordConfig,
    run_network_coordinator,
)
from cosimnet.netsim import ReferenceNetSim  # noqa: E402
from cosimnet.phys_coord import PhysCoordConfig, run_physics_coordinator  # noqa: E402
from cosimnet.physics import ReferencePhysicsSim  # noqa: E402
from cosimnet.sync import SocketLink  # noqa: E402

import tracing  # noqa: E402

WINDOW_NS = 1_000_000
LINK_TIMEOUT_S = 30.0


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("inproc", "net", "phys"), required=True)
    p.add_argument("--scenario", required=True, help="scenario JSON document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--windows", type=int, required=True)
    p.add_argument("--out", help="artifact directory (inproc)")
    p.add_argument("--t0", type=float, help="parent's time.monotonic() at start (inproc, net)")
    p.add_argument("--port", type=int, help="loopback port (phys)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--chunk", type=int, default=100,
                   help="windows per stretch of the reported chunk_s loop times (inproc, net)")
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def _window_stats(walls: list[float], chunk: int) -> dict:
    cuts = statistics.quantiles(walls, n=100, method="inclusive")
    return {
        "loop_s": sum(walls),
        "window_p50_us": statistics.median(walls) * 1e6,
        "window_p90_us": cuts[89] * 1e6,
        "window_p99_us": cuts[98] * 1e6,
        "chunk_s": [sum(walls[i:i + chunk]) for i in range(0, len(walls), chunk)],
    }


def _flow_stats(host) -> list[dict]:
    """Per-flow counters under the keys `run_summary.json` uses."""
    return [
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


def _checks(n: int, net_summary, phys_windows: int, phys_extractions: int) -> list[str]:
    """Lockstep invariants every run must satisfy; returns what failed."""
    failed = []
    if net_summary.windows_completed != n:
        failed.append(f"network side completed {net_summary.windows_completed} of {n} windows")
    if phys_windows != n:
        failed.append(f"physics side completed {phys_windows} of {n} windows")
    if phys_extractions != n:
        failed.append(f"physics side made {phys_extractions} extractions for {n} windows")
    early = [r for r in net_summary.ledger if r.released_at - r.captured_at < WINDOW_NS]
    if early:
        failed.append(
            f"{len(early)} ledger rows released less than one window after capture "
            f"(first pkt_id {early[0].pkt_id})"
        )
    s = net_summary
    accounted = s.released_total + s.expired_total + s.held_at_end + s.pending_at_end
    if s.captured_total != accounted:
        failed.append(
            f"captured {s.captured_total} != released + expired + held + pending = {accounted}"
        )
    return failed


def _layers(n, config, net_walls, phys_walls, snap, extra) -> dict:
    """Per-layer figures from a traced run; µs figures are per window."""
    spans = snap["spans"]

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0, 0.0, 0.0, 0])[field]

    def self_cpu_us(name):
        return span(name, 4) / n * 1e6

    def per_call(name, field):
        calls = span(name, 0)
        return span(name, field) / calls if calls else 0.0

    # a thread's loop is the network side if it ran the coordinator
    net_loop = [0.0, 0.0]
    phys_loop = [0.0, 0.0]
    for names, wall, cpu in snap["loops"]:
        side = net_loop if "net_coord.simulate" in names else phys_loop
        side[0] += wall
        side[1] += cpu
    gauges = snap["gauges"]
    held = gauges.get("net_coord.held", [0.0, 0])
    depth = gauges.get("netsim.queue_depth", [0.0, 0])
    agents = len(config.tracks)
    pairs = agents * (agents - 1) // 2
    return {
        "physics.step_cpu_us": self_cpu_us("physics.step"),
        "physics.snapshot_cpu_us": self_cpu_us("physics.snapshot"),
        "physics.pair_box_tests": float(pairs * len(config.world.obstacles)),
        "wire.encode_channel_cpu_us": self_cpu_us("wire.encode_channel"),
        "wire.compress_cpu_us": self_cpu_us("wire.compress"),
        "wire.decompress_cpu_us": self_cpu_us("wire.decompress"),
        "wire.decode_channel_cpu_us": self_cpu_us("wire.decode_channel"),
        "wire.channel_raw_bytes": per_call("wire.encode_channel", 5),
        "wire.channel_blob_bytes": per_call("wire.compress", 5),
        "wire.encode_frame_cpu_us": self_cpu_us("wire.encode_frame"),
        "wire.decode_frame_cpu_us": self_cpu_us("wire.decode_frame"),
        "wire.frame_bytes": per_call("wire.encode_frame", 5),
        "sync.net_wait_us": (sum(net_walls) - net_loop[0]) / n * 1e6,
        "sync.phys_wait_us": (sum(phys_walls) - phys_loop[0]) / n * 1e6,
        "sync.gil_wait_us": (net_loop[0] - net_loop[1] + phys_loop[0] - phys_loop[1]) / n * 1e6,
        "sync.frames_per_window": extra.get("frames", 0) / n,
        "netsim.apply_channel_cpu_us": self_cpu_us("netsim.apply_channel"),
        "netsim.advance_cpu_us": self_cpu_us("netsim.advance"),
        "netsim.queue_depth_mean": float(depth[0]),
        "netsim.queue_depth_max": float(depth[1]),
        "netsim.cleared_per_window": extra["cleared_total"] / n,
        "netsim.dropped_total": float(extra["dropped_total"]),
        "net_coord.build_manifest_cpu_us": self_cpu_us("net_coord.build_manifest"),
        "net_coord.release_cpu_us": self_cpu_us("net_coord.release"),
        "net_coord.capture_cpu_us": self_cpu_us("net_coord.capture"),
        "net_coord.apply_ber_cpu_us_per_pkt": per_call("net_coord.apply_ber", 2) * 1e6,
        "net_coord.self_cpu_us": self_cpu_us("net_coord.simulate"),
        "net_coord.held_mean": float(held[0]),
        "net_coord.held_max": float(held[1]),
        "flows.tick_cpu_us": self_cpu_us("flows.tick"),
        "flows.delivered_per_sent": extra["delivered_per_sent"],
        "scenario.parse_ms": extra["parse_s"] * 1e3,
        "scenario.reduce_ms": extra.get("reduce_s", 0.0) * 1e3,
        "metrics.kde_ms": span("metrics.kde", 1) * 1e3,
        "metrics.series_ms": span("metrics.series", 1) * 1e3,
        "scenario.timeline_samples": extra.get("timeline_samples", 0) / n,
    }


def _model(counters: dict, flows: list[dict], duration_ns: int) -> dict:
    delivered = sum(f["delivered_total"] for f in flows)
    sent = sum(f["sent_total"] for f in flows)
    return {
        "delivered_total": delivered,
        "delivered_per_sent": delivered / sent if sent else 0.0,
        "mean_goodput_bps": sum(f["delivered_bits"] for f in flows) / (duration_ns * 1e-9),
        "dropped_total": counters["dropped_total"],
    }


def _load(args):
    t = time.perf_counter()
    config = load_scenario(
        args.scenario, seed=args.seed, window_ns=WINDOW_NS,
        duration_ns=args.windows * WINDOW_NS,
    )
    return config, time.perf_counter() - t


def _report(report: dict) -> None:
    report["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(report, sort_keys=True))


def run_inproc(args) -> None:
    config, parse_s = _load(args)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_module_wrappers(tracer)
        tracing.install_scenario_wrappers(tracer)
    t_first = time.monotonic()
    result = run_scenario(config, args.out)
    t_end = time.monotonic()

    n = args.windows
    net_walls = result.net_summary.stats.window_wall_seconds
    phys_walls = result.phys_summary.stats.window_wall_seconds
    digest = hashlib.sha256()
    for name in sorted(result.artifacts):
        digest.update(result.artifacts[name].read_bytes())
    summary = json.loads(result.artifacts["run_summary.json"].read_text())
    outcome = {"counters": summary["counters"], "flows": summary["flows"]}
    model = _model(outcome["counters"], outcome["flows"], config.duration_ns)
    report = {
        "setup_s": t_first - args.t0,
        "wall_s": t_end - t_first,
        **_window_stats(net_walls, args.chunk),
        "checks": _checks(
            n, result.net_summary,
            result.phys_summary.windows_completed, result.phys_summary.extractions,
        ),
        "digest": digest.hexdigest(),
        "outcome": outcome,
        "model": model,
    }
    if tracer is not None:
        report["layers"] = _layers(n, config, net_walls, phys_walls, tracer.snapshot(), {
            **outcome["counters"],
            "delivered_per_sent": model["delivered_per_sent"],
            "parse_s": parse_s,
            "reduce_s": t_end - t_first - sum(net_walls),
            "timeline_samples": len(result.timeline),
        })
    _report(report)


def _connect_phys(port: int) -> SocketLink:
    sock = socket.create_connection(("127.0.0.1", port), timeout=LINK_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return SocketLink(sock, LINK_TIMEOUT_S)


def run_phys(args) -> None:
    config, _ = _load(args)
    tracer = None
    sim = ReferencePhysicsSim(config.world, config.tracks)
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install_module_wrappers(tracer)
        tracing.trace_physics_sim(tracer, sim)
    phys_cfg = PhysCoordConfig(
        config.window_ns, config.fidelity, agent_address_map=config.agent_address_map
    )
    link = _connect_phys(args.port)
    summary = run_physics_coordinator(phys_cfg, link, config.duration_ns, sim)
    _report({
        "windows": summary.windows_completed,
        "extractions": summary.extractions,
        "sent_frames": link.sent_frames,
        "window_walls": summary.stats.window_wall_seconds,
        "trace": tracer.snapshot() if tracer is not None else None,
    })


def run_net(args) -> None:
    config, parse_s = _load(args)
    srv = socket.create_server(("127.0.0.1", 0))
    srv.settimeout(LINK_TIMEOUT_S)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--role", "phys",
        "--scenario", args.scenario, "--seed", str(args.seed),
        "--windows", str(args.windows), "--port", str(srv.getsockname()[1]),
        "--trace", str(args.trace),
    ]
    phys = subprocess.Popen(cmd, stdout=subprocess.PIPE)
    try:
        try:
            conn, _ = srv.accept()
        finally:
            srv.close()
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        link = SocketLink(conn, LINK_TIMEOUT_S)

        net_cfg = NetCoordConfig(config.window_ns, config.agent_address_map, seed=config.seed)
        netsim = ReferenceNetSim(config.radio, dict(config.agent_address_map))
        backend = InProcessBackend(net_cfg.addresses)
        host = FlowHost(backend)
        for flow_cfg in config.flows:
            host.add_flow(flow_cfg)
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracing.install_module_wrappers(tracer)
            tracing.trace_netsim(tracer, netsim)
            tracing.trace_backend(tracer, backend)
            tracing.trace_flow_host(tracer, host)

        t_first = time.monotonic()
        net_summary = run_network_coordinator(
            net_cfg, link, netsim, backend, config.duration_ns, app_tick=host.tick,
        )
        out, _ = phys.communicate(timeout=LINK_TIMEOUT_S)
        t_end = time.monotonic()
    finally:
        if phys.poll() is None:
            phys.kill()
            phys.communicate()
    if phys.returncode != 0:
        raise RuntimeError(f"physics process exited with code {phys.returncode}")
    peer = json.loads(out.decode().splitlines()[-1])

    n = args.windows
    counters = {
        "windows_completed": net_summary.windows_completed,
        "physics_extractions": peer["extractions"],
        "captured_total": net_summary.captured_total,
        "released_total": net_summary.released_total,
        "released_bytes": net_summary.released_bytes,
        "expired_total": net_summary.expired_total,
        "rejected_total": net_summary.rejected_total,
        "late_cleared_total": net_summary.late_cleared_total,
        "held_at_end": net_summary.held_at_end,
        "pending_at_end": net_summary.pending_at_end,
        "cleared_total": netsim.cleared_total,
        "dropped_total": netsim.dropped_total,
        "corrupt_received": host.corrupt_total,
        "stray_received": host.stray_total,
    }
    outcome = {"counters": counters, "flows": _flow_stats(host)}
    checks = _checks(n, net_summary, peer["windows"], peer["extractions"])
    for side, sent in (("network", link.sent_frames), ("physics", peer["sent_frames"])):
        if sent != 2 * n + 1:
            checks.append(f"{side} side sent {sent} frames, expected 2N+1 = {2 * n + 1}")
    model = _model(counters, outcome["flows"], config.duration_ns)
    net_walls = net_summary.stats.window_wall_seconds
    report = {
        "setup_s": t_first - args.t0,
        "wall_s": t_end - t_first,
        **_window_stats(net_walls, args.chunk),
        "checks": checks,
        "digest": hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest(),
        "outcome": outcome,
        "model": model,
    }
    if tracer is not None:
        snap = tracer.snapshot()
        for name, acc in peer["trace"]["spans"].items():
            merged = snap["spans"].setdefault(name, [0, 0.0, 0.0, 0.0, 0.0, 0])
            for i, v in enumerate(acc):
                merged[i] += v
        snap["loops"] += peer["trace"]["loops"]
        report["layers"] = _layers(n, config, net_walls, peer["window_walls"], snap, {
            **counters,
            "delivered_per_sent": model["delivered_per_sent"],
            "parse_s": parse_s,
            "frames": link.sent_frames,
        })
    _report(report)


def main(argv=None) -> None:
    args = _parse_args(argv)
    {"inproc": run_inproc, "net": run_net, "phys": run_phys}[args.role](args)


if __name__ == "__main__":
    main()
