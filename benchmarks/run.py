"""Lockstep benchmark: one workload, one seed, a fixed measuring time.

    python3 benchmarks/run.py --workload static --seed 7 --seconds 20 --trace 0
    python3 benchmarks/run.py --smoke

Every run is a fresh process (`child.py`) that goes through the public API
only, with a wall-time limit after which this process kills it.  Each run
is pinned to one CPU, the allowed CPUs taken in turn: the lockstep hands
control between two threads (or two processes) every window, and across
two CPUs each handoff wakes the other CPU and moves the GIL between them, a
cost that swings with host load by more than the gate's bound (patrol's
first 20 s: 10.2-12.5 s CPU unpinned, 8.0-8.6 s pinned, on a 2-vCPU VM).

A run fails if it raises, times out, or fails an output check; the last
line of output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures host time with nothing wrapped, both sides in one
process (`run_scenario`).  It first starts a few short set-up probes, then
full-length runs of the one seed until ``--seconds`` have passed.  The
gated end-to-end metrics:

- ``setup_s``: from just before the run's process starts to its first
  window (imports, scenario parse, building both sides), median over
  probes and runs.  The few objects `run_scenario` builds itself count
  towards ``wall_s``.
- ``windows_per_ref``: ``windows_per_s`` times the fastest time, in this
  invocation, of one pass of a fixed reference loop (`reference_pass_s`),
  run on each full run's CPU just before it: the windows the program
  completes in the time this host takes for one reference pass.  On a
  shared host, other tenants move the speed of both by up to 30% from one
  minute to the next, through the caches and memory they share; dividing
  out the reference about halved the spread (IQR / median) over five
  invocations each of patrol and static on a 2-vCPU VM.
- ``peak_rss_mb``: ``ru_maxrss`` in MiB, median over full runs.

Printed beside them, but not gated, because that host load moves them by
more than a bound could allow (each result prints the host's steal share
of its measuring time):

- ``windows_per_s``: windows over the lockstep loop's seconds, the sum of
  the network side's per-window wall (`RunStats.window_wall_seconds`).
  Every full run does the same work window by window, so the loop is cut
  into stretches of `Workload.chunk` windows and each stretch counts at the
  fastest full run's time for it.  Other tenants slow a stretch by up to
  1.8x for seconds at a time, with no steal to show for it; the fastest of
  the runs is one that load missed.
- ``cpu_s``: user + system CPU of the run's process.  This and the ones
  below are medians over full runs.
- ``wall_s``: from the first window until `run_scenario` returns with the
  artifacts written.
- ``window_p50_us`` / ``window_p90_us``: percentiles of the per-window
  wall.  p99 tracks scheduler wake-ups and moves up to 2x between
  identical runs, so it is a trace diagnostic (``sync.window_p99_us``).
- ``failed_frac``: failed over attempted runs.  It is 0 on a healthy
  program, and the result line carries it as ``failed``/``attempted``.

``--trace 1`` alternates traced and untraced full runs and reports the
per-layer metrics (see `tracing.py`) as medians over the traced runs, plus
``trace.overhead_frac`` = 1 - traced / untraced windows per loop second
(medians over runs).  static's traced runs split the sides as the paper
deploys them: `run_physics_coordinator` in a second process, joined to
`run_network_coordinator` by one loopback TCP connection (`SocketLink`),
the only path that runs the frame codec.  Its timed runs stay in one
process, because the split's loop time moved by over 0.3 (IQR / median)
between ten runs on a loaded 2-vCPU host.

Output checks on every run: both sides complete N windows and the physics
side makes N extractions; every ledger row has released_at - captured_at
>= W; captured = released + expired + held_at_end + pending_at_end; all
runs of one length give one artifact digest, traced or not.  On the split,
each side sends 2N + 1 frames, and counters and per-flow stats equal an
in-process run with the same seed and length.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import excerpt
import swarm

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SCENARIOS = ROOT / "src" / "cosimnet" / "scenarios"
WORK_ROOT = ROOT / ".bench_work"  # scenario documents and run artifacts


@dataclass(frozen=True)
class Workload:
    scenario: str | None  # bundled file name; None = generated swarm16
    windows: int  # N, at the 1 ms window
    chunk: int  # windows per stretch of the loop timed on its own, about 50 ms
    start_s: float = 0.0  # begin this far into the bundled scenario (excerpt.py)
    trace_role: str = "inproc"  # child role of the traced invocation's runs


# Lengths keep a run short enough to repeat several times inside the
# measuring time; see windows_per_s.  patrol runs its 14-20 s: the end of a
# clear leg (14-16 s) and the onset of the occlusion trough with the held
# set filling (16-20 s), not the plateau (29-46 s) or the drain.  The whole
# 60 s takes over a minute on 2 vCPUs.
WORKLOADS = {
    "static": Workload("static_los_30m.json", 2000, 100, trace_role="net"),
    "patrol": Workload("patrol.json", 6000, 100, start_s=14.0),
    "swarm16": Workload(None, 250, 4),
}

PROBES = 3
SHORT_WINDOWS = 20  # probes and smoke runs; a multiple of the 10 ms metrics sample period
RUN_TIMEOUT_S = 60.0
CPUS = sorted(os.sched_getaffinity(0))  # run k is pinned to CPUS[k % len(CPUS)]

END_TO_END = (
    ("setup_s", "s"),
    ("windows_per_ref", "1/ref"),
    ("peak_rss_mb", "MB"),
)
WALL = (
    ("windows_per_s", "1/s"),
    ("cpu_s", "s"),
    ("wall_s", "s"),
    ("window_p50_us", "us"),
    ("window_p90_us", "us"),
)
FAILED_FRAC = ("failed_frac", "ratio")

PER_LAYER = (
    ("physics.step_cpu_us", "us/window"),
    ("physics.snapshot_cpu_us", "us/window"),
    ("physics.pair_box_tests", "count/window"),
    ("wire.encode_channel_cpu_us", "us/window"),
    ("wire.compress_cpu_us", "us/window"),
    ("wire.decompress_cpu_us", "us/window"),
    ("wire.decode_channel_cpu_us", "us/window"),
    ("wire.channel_raw_bytes", "B/window"),
    ("wire.channel_blob_bytes", "B/window"),
    ("wire.encode_frame_cpu_us", "us/window"),
    ("wire.decode_frame_cpu_us", "us/window"),
    ("wire.frame_bytes", "B/frame"),
    ("sync.net_wait_us", "us/window"),
    ("sync.phys_wait_us", "us/window"),
    ("sync.gil_wait_us", "us/window"),
    ("sync.window_p99_us", "us"),
    ("sync.frames_per_window", "count/window"),
    ("netsim.apply_channel_cpu_us", "us/window"),
    ("netsim.advance_cpu_us", "us/window"),
    ("netsim.queue_depth_mean", "count"),
    ("netsim.queue_depth_max", "count"),
    ("netsim.cleared_per_window", "count/window"),
    ("netsim.dropped_total", "count"),
    ("net_coord.build_manifest_cpu_us", "us/window"),
    ("net_coord.release_cpu_us", "us/window"),
    ("net_coord.capture_cpu_us", "us/window"),
    ("net_coord.apply_ber_cpu_us_per_pkt", "us/pkt"),
    ("net_coord.self_cpu_us", "us/window"),
    ("net_coord.held_mean", "count"),
    ("net_coord.held_max", "count"),
    ("flows.tick_cpu_us", "us/window"),
    ("flows.delivered_per_sent", "ratio"),
    ("scenario.parse_ms", "ms"),
    ("scenario.reduce_ms", "ms"),
    ("metrics.kde_ms", "ms"),
    ("metrics.series_ms", "ms"),
    ("scenario.timeline_samples", "count/window"),
    ("trace.overhead_frac", "ratio"),
)


@dataclass
class Run:
    kind: str  # "probe", "full" or "reference"
    windows: int
    traced: bool
    report: dict = field(default_factory=dict)
    cpu_s: float = 0.0
    error: str | None = None


def environment() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(CPUS),
        "runs": "each pinned to one CPU, the allowed CPUs in turn",
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "split": "static's traced runs join both sides over loopback TCP on one "
                 "host, not a real link",
        "model": "unvalidated: the repo holds no reference measurements, and "
                 "test_output.txt was produced on another machine",
    }


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the host so far, or None where unreadable.

    Steal is time the hypervisor ran something else while a virtual CPU
    wanted to run; it inflates every host-time metric, so each result
    reports its share to tell a noisy host from a slower program.
    """
    try:
        with open("/proc/stat") as fh:
            ticks = [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def spawn(
    run: Run, role: str, scenario: Path, seed: int, chunk: int, cpu: int, out_dir: Path,
) -> Run:
    """Start one run in a fresh process and wait for it, within the limit."""
    cmd = [
        sys.executable, str(CHILD), "--role", role, "--scenario", str(scenario),
        "--seed", str(seed), "--windows", str(run.windows), "--out", str(out_dir),
        "--trace", str(int(run.traced)), "--chunk", str(chunk),
    ]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [*cmd, "--t0", repr(t0)], cwd=ROOT, start_new_session=True,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out, err = b"", b""
        run.error = f"timed out after {RUN_TIMEOUT_S:.0f} s"
    finally:
        try:  # the run's process group: the run and any process it started
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    run.cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    shutil.rmtree(out_dir, ignore_errors=True)
    if run.error is None and proc.returncode != 0:
        tail = err.decode(errors="replace").strip().splitlines()[-1:] or ["no output"]
        run.error = f"exit code {proc.returncode}: {tail[0]}"
    if run.error is None:
        try:
            run.report = json.loads(out.decode().splitlines()[-1])
        except (IndexError, ValueError):
            run.error = "no report on standard output"
        else:
            if run.report["checks"]:
                run.error = "; ".join(run.report["checks"])
    return run


def _median(values) -> float:
    return float(statistics.median(values))


REF_DICTS = 1 << 16  # about 16 MB: past the private caches, like the program's heap
REF_PASS_S = 0.25  # repeated passes before each full run
_ref_heap: list[dict] = []


def reference_pass_s(cpu: int) -> float:
    """Fastest time on `cpu`, over `REF_PASS_S`, of one pass of interpreted
    Python through a fixed heap of small dicts in shuffled order."""
    if not _ref_heap:
        _ref_heap.extend({"key": i, "value": float(i)} for i in range(REF_DICTS))
        random.Random(0).shuffle(_ref_heap)
    os.sched_setaffinity(0, {cpu})
    try:
        best = float("inf")
        end = time.perf_counter() + REF_PASS_S
        while True:
            t = time.perf_counter()
            total = 0.0
            for d in _ref_heap:
                total += d["value"]
            t_end = time.perf_counter()
            best = min(best, t_end - t)
            if t_end >= end:
                return best
    finally:
        os.sched_setaffinity(0, set(CPUS))


def fastest_loop_s(runs: list[Run]) -> float:
    """Loop seconds with each stretch of windows at its fastest run's time."""
    return sum(min(stretch) for stretch in zip(*(r.report["chunk_s"] for r in runs)))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """All runs of one invocation; returns (runs, metrics, notes)."""
    wl = WORKLOADS[name]
    windows = SHORT_WINDOWS if smoke else wl.windows
    work = WORK_ROOT / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runs: list[Run] = []
    ref_passes: list[float] = []
    try:
        if wl.scenario is None:
            generated = swarm.generate(seed, windows)
        elif wl.start_s:
            bundled = json.loads((SCENARIOS / wl.scenario).read_text())
            generated = excerpt.excerpt(bundled, wl.start_s)
        else:
            generated = None
        if generated is None:
            scenario = SCENARIOS / wl.scenario
            document = scenario.read_bytes()
        else:
            document = json.dumps(generated, indent=1).encode()
            scenario = work / f"{name}.json"
            scenario.write_bytes(document)
        notes = {"seed": seed, "document_sha256": hashlib.sha256(document).hexdigest()}

        role = wl.trace_role if trace else "inproc"

        def start(kind, n, traced, turn, role=role):
            runs.append(spawn(
                Run(kind, n, traced), role, scenario, seed, wl.chunk,
                CPUS[turn % len(CPUS)], work / f"run{len(runs)}",
            ))
            if runs[-1].error:
                print(f"run {len(runs)} ({kind}) failed: {runs[-1].error}", file=sys.stderr)
            return runs[-1]

        ticks = cpu_ticks()
        reference = None
        if role == "net":
            reference = start("reference", windows, False, 0, role="inproc")
        clock = time.monotonic()
        if not trace:
            for j in range(1 if smoke else PROBES):
                start("probe", SHORT_WINDOWS, False, j)
        # full runs until the next one would end over half a run past the
        # deadline, so an invocation takes about --seconds whatever a run's
        # length; traced runs alternate with untraced ones, each pair on one CPU
        k = 0
        while True:
            if not trace:
                ref_passes.append(reference_pass_s(CPUS[k % len(CPUS)]))
            t = time.monotonic()
            start("full", windows, trace and k % 2 == 0, k // 2 if trace else k)
            k += 1
            elapsed, last = time.monotonic() - clock, time.monotonic() - t
            if elapsed + last / 2 >= seconds and (not trace or k >= 2):
                break
        end_ticks = cpu_ticks()
        if ticks and end_ticks and end_ticks[1] > ticks[1]:
            notes["steal_frac"] = (end_ticks[0] - ticks[0]) / (end_ticks[1] - ticks[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:  # not empty: another invocation is using it
            pass

    # one digest per (role, length), traced or not
    groups: dict[tuple, set] = {}
    for run in runs:
        if run.error is None:
            key = (run.kind == "reference", run.windows)
            groups.setdefault(key, set()).add(run.report["digest"])
    for run in runs:
        if run.error is None and len(groups[(run.kind == "reference", run.windows)]) > 1:
            run.error = "artifact digest differs between repeats of one seed and length"
    if reference is not None and reference.error is None:
        for run in runs:
            if run.kind == "full" and run.error is None:
                if run.report["outcome"] != reference.report["outcome"]:
                    run.error = "counters or per-flow stats differ from in-process static"

    ok = [r for r in runs if r.error is None]
    full = [r for r in ok if r.kind == "full"]
    if not full:
        return runs, None, notes
    plain = [r for r in full if not r.traced]
    notes["digest"] = full[0].report["digest"]
    notes["model"] = full[0].report["model"]
    if not trace:
        setups = [r.report["setup_s"] for r in ok if r.kind in ("probe", "full")]
        metrics = {
            "setup_s": _median(setups),
            "wall_s": _median(r.report["wall_s"] for r in full),
            "windows_per_s": windows / fastest_loop_s(full),
            "windows_per_ref": windows / fastest_loop_s(full) * min(ref_passes),
            "window_p50_us": _median(r.report["window_p50_us"] for r in full),
            "window_p90_us": _median(r.report["window_p90_us"] for r in full),
            "cpu_s": _median(r.cpu_s for r in full),
            "peak_rss_mb": _median(r.report["peak_rss_mb"] for r in full),
        }
    else:
        traced = [r for r in full if r.traced]
        metrics = {
            key: _median(r.report["layers"][key] for r in traced)
            for key in traced[0].report["layers"]
        } if traced else {}
        if traced and plain:
            wps = _median(r.windows / r.report["loop_s"] for r in plain)
            traced_wps = _median(r.windows / r.report["loop_s"] for r in traced)
            metrics["sync.window_p99_us"] = _median(r.report["window_p99_us"] for r in plain)
            metrics["trace.overhead_frac"] = 1.0 - traced_wps / wps
        if len(metrics) != len(PER_LAYER):
            return runs, None, notes
    return runs, metrics, notes


def report_lines(name, runs, metrics, notes, trace, env) -> list[str]:
    failed = sum(r.error is not None for r in runs)
    lines = [
        "env " + json.dumps(env, sort_keys=True),
        f"workload {name} seed {notes['seed']} trace {int(trace)}: "
        f"{len(runs)} runs, {failed} failed, host steal "
        f"{notes.get('steal_frac', float('nan')):.1%} of CPU time",
    ]

    def metric_lines(catalog):
        return [f"  {key} {metrics[key]!r} {unit}" for key, unit in catalog]

    if trace:
        lines += metric_lines(PER_LAYER)
    else:
        lines += metric_lines(END_TO_END) + ["  not gated:"] + metric_lines(WALL)
    lines.append(f"  {FAILED_FRAC[0]} {failed / len(runs)!r} {FAILED_FRAC[1]}")
    model = {
        "document_sha256": notes["document_sha256"],
        "artifact_digest": notes["digest"],
        **notes["model"],
    }
    lines.append("model " + json.dumps(model, sort_keys=True))
    return lines


def result_line(runs, metrics, trace) -> str:
    failed = sum(r.error is not None for r in runs)
    units = dict(PER_LAYER if trace else END_TO_END)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def smoke() -> int:
    """Every workload for a few windows, untraced and traced; asserts each
    metric is printed with its unit and that BENCHMARK.json agrees."""
    env = environment()
    problems = []
    for name in WORKLOADS:
        for trace in (False, True):
            runs, metrics, notes = run_workload(name, 1, 0.0, trace, smoke=True)
            if metrics is None or any(r.error for r in runs):
                problems.append(f"{name} trace={int(trace)}: runs failed")
                continue
            text = "\n".join(report_lines(name, runs, metrics, notes, trace, env))
            print(text)
            catalog = PER_LAYER if trace else (*END_TO_END, *WALL, FAILED_FRAC)
            for key, unit in catalog:
                if not re.search(rf"^  {re.escape(key)} \S+ {re.escape(unit)}$", text, re.M):
                    problems.append(f"{name} trace={int(trace)}: {key} [{unit}] not printed")
            json.loads(result_line(runs, metrics, trace))
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for section, catalog in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            listed = {(m["name"], m["unit"]) for m in spec[section]}
            if listed != set(catalog):
                problems.append(f"BENCHMARK.json {section} differs from the catalog here")
        if {w["name"] for w in spec["workloads"]} != set(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from the ones defined here")
    for problem in problems:
        print("SMOKE FAIL " + problem, file=sys.stderr)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Lockstep co-simulation benchmark.")
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="quick self-check of every workload")
    args = p.parse_args(argv)
    # on SIGTERM, unwind through spawn() so the running run's group is killed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cosimnet
    except ImportError as exc:
        print(f"cannot import cosimnet from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(cosimnet.__file__).resolve().is_relative_to(src):
        print(f"cosimnet is not the copy under {src}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")

    seed = args.seed % 2**64
    trace = bool(args.trace)
    env = environment()
    runs, metrics, notes = run_workload(args.workload, seed, args.seconds, trace)
    if metrics is None:
        failed = sum(r.error is not None for r in runs)
        print(f"{args.workload}: {failed} of {len(runs)} runs failed and no full-length "
              "run completed; no result", file=sys.stderr)
        return 1
    print("\n".join(report_lines(args.workload, runs, metrics, notes, trace, env)))
    line = result_line(runs, metrics, trace)
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
