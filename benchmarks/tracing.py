"""Outside-in span recording for the traced benchmark runs.

Nothing under ``src/`` knows about tracing.  The benchmark wraps the public
entry points a run already calls: methods of the objects the run builds,
the coordinator methods reached through the backend's ``attach_sink``, and
module functions that callers look up at call time (``wire.*``,
``net_coord.apply_ber`` and the ``metrics`` functions ``scenario`` uses).

Every span takes two clocks, wall time and the calling thread's CPU time.
Under the GIL, or around zlib and numpy calls that release it, a wall-only
span would absorb the other side's work.  Spans are folded into per-thread
totals in memory and read once, when the run ends; a span's self time is
its duration minus that of the spans nested in it on the same thread.
"""

from __future__ import annotations

import functools
import threading
import time

import cosimnet.net_coord as net_coord
import cosimnet.scenario as scenario
import cosimnet.wire as wire

# Spans at the top of the stack count as a side's own work in the lockstep
# loop.  The metrics functions run after the loop, on the same thread as
# the network side, so they are left out of that sum.
_NOT_LOOP = ("metrics.",)


class SpanTotals:
    """Per-name span sums for one thread."""

    def __init__(self):
        self.stack: list[list[float]] = []
        # name -> [calls, wall, cpu, self_wall, self_cpu, bytes]
        self.by_name: dict[str, list[float]] = {}
        # top-level loop spans: [wall, cpu]
        self.loop = [0.0, 0.0]


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[SpanTotals] = []
        self.samples: dict[str, list[int]] = {}

    def _totals(self) -> SpanTotals:
        totals = getattr(self._local, "totals", None)
        if totals is None:
            totals = self._local.totals = SpanTotals()
            with self._lock:
                self._threads.append(totals)
        return totals

    def wrap(self, name: str, fn, size=None):
        """`fn` recorded as span `name`; `size(result)` adds to its byte count."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            totals = self._totals()
            children = [0.0, 0.0]
            totals.stack.append(children)
            w0 = time.perf_counter()
            c0 = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                wall = time.perf_counter() - w0
                cpu = time.thread_time() - c0
                totals.stack.pop()
                if totals.stack:
                    parent = totals.stack[-1]
                    parent[0] += wall
                    parent[1] += cpu
                elif not name.startswith(_NOT_LOOP):
                    totals.loop[0] += wall
                    totals.loop[1] += cpu
                acc = totals.by_name.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0, 0])
                acc[0] += 1
                acc[1] += wall
                acc[2] += cpu
                acc[3] += wall - children[0]
                acc[4] += cpu - children[1]
            if size is not None:
                acc[5] += size(result)
            return result

        return traced

    def sample(self, name: str, value: int) -> None:
        """Per-window gauge reading (queue depth, held packets)."""
        self.samples.setdefault(name, []).append(value)

    def snapshot(self) -> dict:
        """JSON-ready span totals merged over threads, gauge means and maxima,
        and per thread the names it recorded with its loop wall and CPU."""
        names: dict[str, list[float]] = {}
        loops = []
        for totals in self._threads:
            for name, acc in totals.by_name.items():
                merged = names.setdefault(name, [0, 0.0, 0.0, 0.0, 0.0, 0])
                for i, v in enumerate(acc):
                    merged[i] += v
            loops.append([sorted(totals.by_name), *totals.loop])
        gauges = {
            name: [sum(values) / len(values), max(values)] if values else [0.0, 0]
            for name, values in self.samples.items()
        }
        return {"spans": names, "loops": loops, "gauges": gauges}


# -- what gets wrapped ----------------------------------------------------------


def trace_physics_sim(tracer: Tracer, sim):
    sim.step = tracer.wrap("physics.step", sim.step)
    sim.channel_snapshot = tracer.wrap("physics.snapshot", sim.channel_snapshot)
    return sim


def trace_netsim(tracer: Tracer, netsim):
    advance = tracer.wrap("netsim.advance", netsim.advance)

    def advance_and_sample(*args, **kwargs):
        end = advance(*args, **kwargs)
        tracer.sample("netsim.queue_depth", netsim.queued_count)
        return end

    netsim.apply_channel = tracer.wrap("netsim.apply_channel", netsim.apply_channel)
    netsim.advance = advance_and_sample
    return netsim


def trace_flow_host(tracer: Tracer, host):
    host.tick = tracer.wrap("flows.tick", host.tick)
    return host


def trace_backend(tracer: Tracer, backend):
    """Wrap the coordinator that attaches itself to `backend` as its sink."""
    attach = backend.attach_sink

    def attach_traced(coordinator):
        simulate = tracer.wrap("net_coord.simulate", coordinator.simulate)

        def simulate_and_sample(*args, **kwargs):
            end = simulate(*args, **kwargs)
            tracer.sample("net_coord.held", coordinator.held_count)
            return end

        coordinator.simulate = simulate_and_sample
        coordinator.build_manifest = tracer.wrap(
            "net_coord.build_manifest", coordinator.build_manifest
        )
        coordinator.release = tracer.wrap("net_coord.release", coordinator.release)
        coordinator.capture = tracer.wrap("net_coord.capture", coordinator.capture)
        attach(coordinator)

    backend.attach_sink = attach_traced
    return backend


def install_module_wrappers(tracer: Tracer) -> None:
    """Wrap the module functions the run looks up at call time."""
    wire.encode_channel_data = tracer.wrap(
        "wire.encode_channel", wire.encode_channel_data, size=len
    )
    wire.compress_channel_blob = tracer.wrap(
        "wire.compress", wire.compress_channel_blob, size=len
    )
    wire.decompress_channel_blob = tracer.wrap("wire.decompress", wire.decompress_channel_blob)
    wire.decode_channel_data = tracer.wrap("wire.decode_channel", wire.decode_channel_data)
    wire.encode_frame = tracer.wrap("wire.encode_frame", wire.encode_frame, size=len)
    wire.decode_frame = tracer.wrap("wire.decode_frame", wire.decode_frame)
    net_coord.apply_ber = tracer.wrap("net_coord.apply_ber", net_coord.apply_ber)
    scenario.kde = tracer.wrap("metrics.kde", scenario.kde)
    for fn in ("goodput_series", "delay_series", "smooth", "histogram"):
        setattr(scenario, fn, tracer.wrap("metrics.series", getattr(scenario, fn)))


def install_scenario_wrappers(tracer: Tracer) -> None:
    """Make `run_scenario` build traced objects: its constructors are
    module globals of `cosimnet.scenario`, looked up at call time."""

    def traced_factory(cls, trace):
        @functools.wraps(cls)
        def build(*args, **kwargs):
            return trace(tracer, cls(*args, **kwargs))

        return build

    scenario.ReferencePhysicsSim = traced_factory(scenario.ReferencePhysicsSim, trace_physics_sim)
    scenario.ReferenceNetSim = traced_factory(scenario.ReferenceNetSim, trace_netsim)
    scenario.FlowHost = traced_factory(scenario.FlowHost, trace_flow_host)
    scenario.InProcessBackend = traced_factory(scenario.InProcessBackend, trace_backend)
