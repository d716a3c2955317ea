"""Command-line scenario runner.

    tduality run <scenario> [--seed N] [--samples N] [--out PATH]
    tduality list

Prints a human-readable summary table to stdout and writes one JSON record
per check to the output path.  Each check owns its tolerance: a measured
check records its residual and the tolerance it was compared with, and a
pass/fail check records both as null.  Exit status is zero exactly when every
check passes, one when a check fails, and two for a usage error (an unknown
scenario, a negative ``--seed``, ``--samples`` below 1 or an ``--out`` whose
directory does not exist), which runs nothing and writes no report.  Reports
are bit-identical across runs with the same seed and flags.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import SCENARIOS, check_run, run_scenario


def build_parser():
    parser = argparse.ArgumentParser(prog="tduality",
                                     description="dual-pair scenario runner")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a registered scenario")
    runp.add_argument("scenario", nargs="?", help="scenario name (see 'tduality list')")
    runp.add_argument("--seed", type=int, default=0, help="non-negative RNG seed (default 0)")
    runp.add_argument("--samples", type=int, default=8,
                      help="sample points per scenario (default 8); buscher-random "
                           "takes N entry-space points per chart and reduction-suite "
                           "max(4, N // 4) points per pair")
    runp.add_argument("--out", type=str, default=None,
                      help="report path (default <scenario>.report.jsonl)")
    sub.add_parser("list", help="list registered scenarios")
    return parser


def _list_scenarios():
    for name in sorted(SCENARIOS):
        print(name)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        _list_scenarios()
        return 0
    if args.command != "run" or not getattr(args, "scenario", None):
        parser.print_help()
        return 2
    try:
        check_run(args.scenario, args.seed, args.samples)
    except (KeyError, ValueError) as err:
        print(err.args[0], file=sys.stderr)
        return 2
    out_path = Path(args.out) if args.out else Path(f"{args.scenario}.report.jsonl")
    if not out_path.parent.is_dir():
        print(f"output directory {out_path.parent} does not exist", file=sys.stderr)
        return 2
    report = run_scenario(args.scenario, seed=args.seed, samples=args.samples)
    out_path.write_text(report.to_jsonl())
    print(report.summary_table())
    print(f"report written to {out_path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
