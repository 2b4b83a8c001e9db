"""Command line entry points: validate a scenario, or run one to a directory
of CSV/JSON artifacts.

Exit codes: 0 on success, 1 for a rejected scenario document (or unreadable
file), 2 when a run fails mid-flight, whatever the fault.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .metrics import mean
from .scenario import ConfigError, load_scenario, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cosimnet",
        description="Lockstep co-simulation of agent motion and radio networking.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and write artifacts")
    run_p.add_argument("--scenario", required=True, help="scenario JSON file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the document seed")
    run_p.add_argument("--window-ns", type=int, default=None,
                       help="override the lockstep window")
    run_p.add_argument("--duration-ns", type=int, default=None,
                       help="override the run duration")
    run_p.add_argument("--out", default="out", help="artifact directory")
    run_p.add_argument("--plots", action="store_true",
                       help="also write SVG plots")

    val_p = sub.add_parser("validate", help="check a scenario document")
    val_p.add_argument("--scenario", required=True, help="scenario JSON file")
    return parser


def _load(args):
    overrides = {}
    for name in ("seed", "window_ns", "duration_ns"):
        value = getattr(args, name, None)
        if value is not None:
            overrides[name] = value
    return load_scenario(args.scenario, **overrides)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _load(args)
    except ConfigError as exc:
        print(f"invalid scenario: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 1

    if args.command == "validate":
        print(
            f"{args.scenario} is valid: {len(config.tracks)} agents, "
            f"{len(config.flows)} flows, {config.duration_ns / 1e9:.3g} s "
            f"in {config.window_ns / 1e6:.3g} ms windows, seed {config.seed}"
        )
        return 0

    out = Path(args.out)
    try:
        result = run_scenario(config, out, plots=args.plots)
    except Exception as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        summary = getattr(exc, "partial_summary_path", None)
        if summary is not None:  # written by this run
            print(f"partial summary left in {summary}", file=sys.stderr)
        return 2

    mean_goodput = mean(result.goodput_bps) if result.goodput_bps else 0.0
    print(
        f"completed {result.net_summary.windows_completed} windows, "
        f"{len(result.deliveries)} deliveries, "
        f"mean goodput {mean_goodput / 1e6:.3f} Mb/s"
    )
    for name in sorted(result.artifacts):
        print(f"  {out / name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
