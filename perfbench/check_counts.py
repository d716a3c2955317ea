"""Count-determinism test of the traced pass.

    python3 perfbench/check_counts.py [--seed N] [--workload NAME ...]

Runs each workload's traced pass twice in one process at one seed and asserts
that every count the tracer takes is identical: every ``*.calls``,
``scalar.nodes_built``, ``structures.pointframe.builds``, the repeat counts
behind the repeat shares and the attempts and returns behind the spinor
accept ratio.  A later change may claim a count as a result only if this
holds.  Exit status is zero exactly when every workload repeats its counts.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer      # noqa: E402  (needs the package path above)
import workloads   # noqa: E402


def traced_counts(workload, seed):
    with tracer.Tracer([workloads]) as tr:
        verdict, _ = workload.run(seed)
    assert not verdict.failures, verdict.failures
    return tr.counts()


def check(name, seed):
    workload = workloads.WORKLOADS[name]
    first = traced_counts(workload, seed)
    second = traced_counts(workload, seed)
    differ = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
    assert first.keys() == second.keys() and not differ, differ
    return first


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", nargs="*", default=list(workloads.WORKLOADS),
                        choices=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    failed = False
    for name in args.workload:
        try:
            counts = check(name, args.seed)
        except AssertionError as err:
            failed = True
            print(f"FAIL {name} seed {args.seed}: {err}")
        else:
            print(f"ok   {name} seed {args.seed}: {len(counts)} counts repeat, "
                  f"{counts['scalar.nodes_built']} nodes built")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
