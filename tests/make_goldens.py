"""Rewrite the golden scenario reports under tests/golden/, or show what would change.

    python tests/make_goldens.py            # rewrite every golden file
    python tests/make_goldens.py --diff     # write nothing; print each moved line

One file per scenario, seed and sample count: the exact ``to_jsonl()`` text
of ``run_scenario``.  ``test_golden.py`` compares the current output against
these files byte for byte; it never writes them.  Regenerate only when a
change to the reports is intended, and explain every changed line.

``--diff`` prints one line per check whose record would change, as
``scenario/seed/samples/check`` followed by each changed field with its old
and new value, and exits 1 if a check's ``passed`` flips or a check
disappears (0 otherwise).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
SEEDS = (0, 1, 2)
SAMPLES = (8, 32)


def golden_path(scenario, seed, samples):
    return GOLDEN_DIR / f"{scenario}.seed{seed}.samples{samples}.jsonl"


def _checks(text):
    """{check name: record} of a report's JSON lines (the header is skipped)."""
    records = [json.loads(line) for line in text.splitlines()[1:]]
    return {r["name"]: r for r in records}


def report_diff(where, old_text, new_text):
    """(printable lines, whether a ``passed`` flipped or a check disappeared)."""
    old, new = _checks(old_text), _checks(new_text)
    lines = []
    broken = False
    for name, before in old.items():
        after = new.get(name)
        if after is None:
            lines.append(f"{where}/{name}: disappeared")
            broken = True
            continue
        moved = [f"{key} {before.get(key)!r} -> {after.get(key)!r}"
                 for key in sorted(before.keys() | after.keys())
                 if before.get(key) != after.get(key)]
        if moved:
            lines.append(f"{where}/{name}: " + "; ".join(moved))
        broken = broken or before["passed"] != after["passed"]
    lines += [f"{where}/{name}: new check" for name in new if name not in old]
    return lines, broken


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--diff", action="store_true",
                        help="write nothing; print the lines that would change")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE.parent / "src"))
    from tduality.scenarios import SCENARIOS, run_scenario
    if not args.diff:
        GOLDEN_DIR.mkdir(exist_ok=True)
    broken = False
    for scenario in SCENARIOS:
        for seed in SEEDS:
            for samples in SAMPLES:
                text = run_scenario(scenario, seed=seed, samples=samples).to_jsonl()
                path = golden_path(scenario, seed, samples)
                if not args.diff:
                    path.write_text(text)
                    continue
                lines, flipped = report_diff(f"{scenario}/{seed}/{samples}",
                                             path.read_text(), text)
                for line in lines:
                    print(line)
                broken = broken or flipped
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
