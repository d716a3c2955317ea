"""Rewrite the golden scenario reports under tests/golden/.

    python tests/make_goldens.py

One file per scenario, seed and sample count: the exact ``to_jsonl()`` text
of ``run_scenario``.  ``test_golden.py`` compares the current output against
these files byte for byte; it never writes them.  Regenerate only when a
change to the reports is intended, and explain every changed line.
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN_DIR = HERE / "golden"
SEEDS = (0, 1, 2)
SAMPLES = (8, 32)


def golden_path(scenario, seed, samples):
    return GOLDEN_DIR / f"{scenario}.seed{seed}.samples{samples}.jsonl"


def main():
    sys.path.insert(0, str(HERE.parent / "src"))
    from tduality.scenarios import SCENARIOS, run_scenario
    GOLDEN_DIR.mkdir(exist_ok=True)
    for scenario in SCENARIOS:
        for seed in SEEDS:
            for samples in SAMPLES:
                text = run_scenario(scenario, seed=seed, samples=samples).to_jsonl()
                golden_path(scenario, seed, samples).write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
