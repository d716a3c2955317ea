"""Byte comparison of every scenario report against its frozen golden file.

The goldens are the behavioural oracle for refactors: a change that alters
any report line must regenerate them with ``tests/make_goldens.py`` and
explain each changed line; ``make_goldens.py --diff`` lists those lines
without writing anything.
"""
import json
from pathlib import Path

import pytest

from make_goldens import SAMPLES, SEEDS, golden_path, report_diff
from tduality.scenarios import SCENARIOS, run_scenario

GRID = [(scenario, seed, samples) for scenario in SCENARIOS
        for seed in SEEDS for samples in SAMPLES]


@pytest.mark.parametrize("scenario,seed,samples", GRID,
                         ids=[f"{s}-seed{n}-samples{m}" for s, n, m in GRID])
def test_report_matches_golden(scenario, seed, samples):
    expected = golden_path(scenario, seed, samples).read_text()
    assert run_scenario(scenario, seed=seed, samples=samples).to_jsonl() == expected


EXPECTED_CHECKS = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected_checks.json").read_text())


@pytest.mark.parametrize("scenario", list(EXPECTED_CHECKS))
def test_checks_are_the_ones_the_benchmark_expects(scenario):
    """The benchmark counts a check it does not find as failed; a renamed,
    dropped or added check or scenario fails here instead."""
    assert list(SCENARIOS) == list(EXPECTED_CHECKS)
    report = run_scenario(scenario, seed=0, samples=8)
    assert [c.name for c in report.checks] == EXPECTED_CHECKS[scenario]
    assert all(c.passed for c in report.checks)


def _report(*checks):
    header = json.dumps({"scenario": "s"})
    return "\n".join([header] + [json.dumps(c) for c in checks]) + "\n"


def test_report_diff_flags_flips_and_lost_checks():
    a = {"name": "a", "residual": 1e-16, "passed": True, "notes": ""}
    b = {"name": "b", "residual": None, "passed": True, "notes": ""}
    old = _report(a, b)
    assert report_diff("s/0/8", old, old) == ([], False)
    moved = _report(dict(a, residual=0.0, notes="frame"), b)
    assert report_diff("s/0/8", old, moved) == (
        ["s/0/8/a: notes '' -> 'frame'; residual 1e-16 -> 0.0"], False)
    assert report_diff("s/0/8", old, _report(a, dict(b, passed=False)))[1]
    lines, broken = report_diff("s/0/8", old, _report(a))
    assert broken and lines == ["s/0/8/b: disappeared"]
    lines, broken = report_diff("s/0/8", _report(a), old)
    assert not broken and lines == ["s/0/8/b: new check"]
