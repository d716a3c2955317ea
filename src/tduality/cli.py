"""Command-line scenario runner.

    tduality run <scenario> [--seed N] [--samples N] [--tol X] [--out PATH]
    tduality list

Prints a human-readable summary table to stdout and writes one JSON record
per check to the output path.  Exit status is zero exactly when every check
passes.  Reports are bit-identical across runs with the same seed and flags.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .scenarios import SCENARIOS, run_scenario


def build_parser():
    parser = argparse.ArgumentParser(prog="tduality",
                                     description="dual-pair scenario runner")
    sub = parser.add_subparsers(dest="command")
    runp = sub.add_parser("run", help="run a registered scenario")
    runp.add_argument("scenario", nargs="?", help="scenario name (see 'tduality list')")
    runp.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    runp.add_argument("--samples", type=int, default=8,
                      help="randomized instances per check (default 8)")
    runp.add_argument("--tol", type=float, default=1e-9,
                      help="base tolerance for structural residuals (default 1e-9)")
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
    if args.scenario not in SCENARIOS:
        print(f"unknown scenario {args.scenario!r}; registered scenarios:",
              file=sys.stderr)
        for name in sorted(SCENARIOS):
            print(f"  {name}", file=sys.stderr)
        return 2
    report = run_scenario(args.scenario, seed=args.seed, samples=args.samples,
                          tol=args.tol)
    out_path = Path(args.out) if args.out else Path(f"{args.scenario}.report.jsonl")
    out_path.write_text(report.to_jsonl())
    print(report.summary_table())
    print(f"report written to {out_path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
