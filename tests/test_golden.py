"""Byte comparison of every scenario report against its frozen golden file.

The goldens are the behavioural oracle for refactors: a change that alters
any report line must regenerate them with ``tests/make_goldens.py`` and
explain each changed line.
"""
import pytest

from make_goldens import SAMPLES, SEEDS, golden_path
from tduality.scenarios import SCENARIOS, run_scenario

GRID = [(scenario, seed, samples) for scenario in SCENARIOS
        for seed in SEEDS for samples in SAMPLES]


@pytest.mark.parametrize("scenario,seed,samples", GRID,
                         ids=[f"{s}-seed{n}-samples{m}" for s, n, m in GRID])
def test_report_matches_golden(scenario, seed, samples):
    expected = golden_path(scenario, seed, samples).read_text()
    assert run_scenario(scenario, seed=seed, samples=samples).to_jsonl() == expected
