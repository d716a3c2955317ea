import json

import numpy as np
import pytest

from tduality import scenarios
from tduality.cli import main
from tduality.report import Report
from tduality.scenarios import CHARTS, SCENARIOS, load_chart, run_scenario


def test_all_scenarios_registered():
    assert set(SCENARIOS) == {"s3-hopf", "s3-selfdual", "s2-annulus",
                              "hopf-surface", "gibbons-hawking",
                              "buscher-random", "reduction-suite"}


def test_config_charts_load_and_validate():
    """Every chart validates, and each load builds a new chart on a new
    coframe, so no table kept on a coframe outlives its pass."""
    from tduality.bundle import validate_chart
    assert set(CHARTS) == {"s3_hopf", "s3_flux", "s2", "hopf_surface",
                           "gibbons_hawking", "t2_twisted"}
    for name in CHARTS:
        chart = load_chart(name)
        again = load_chart(name)
        assert chart is not again and chart.coframe is not again.coframe, name
        rep = validate_chart(chart, n=3)
        assert rep.ok, name


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "s2-annulus" in out and "gibbons-hawking" in out


def test_cli_unknown_scenario(capsys):
    assert main(["run", "nope"]) == 2


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    code = main(["run", "s2-annulus", "--seed", "3", "--samples", "3",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    header = json.loads(lines[0])
    assert header["scenario"] == "s2-annulus"
    assert header["passed"] is True
    assert header["seed"] == 3
    for line in lines[1:]:
        rec = json.loads(line)
        assert rec["passed"] is True
        assert rec["anchor"]
    table = capsys.readouterr().out
    assert "all checks passed" in table


def test_cli_report_deterministic(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    main(["run", "buscher-random", "--seed", "11", "--samples", "4",
          "--out", str(out1)])
    main(["run", "buscher-random", "--seed", "11", "--samples", "4",
          "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_report_records_have_anchors():
    rep = run_scenario("s3-selfdual", seed=2, samples=2)
    assert rep.ok
    assert all(c.anchor for c in rep.checks)


def test_report_add_stores_plain_bool():
    rep = Report("synthetic", 0, 1)
    assert rep.add("flag", "numpy outcome", passed=np.bool_(True)).passed is True
    assert rep.add("measured", "numpy residual", residual=np.float64(2e-9),
                   tol=1e-9).passed is False


def test_failed_check_sets_exit_code(tmp_path, monkeypatch):
    import tduality.cli as cli

    def fake_run(name, seed, samples):
        rep = Report(name, seed, samples)
        rep.add("broken", "synthetic failure", residual=1.0, tol=1e-9)
        return rep

    monkeypatch.setattr(cli, "run_scenario", fake_run)
    out = tmp_path / "f.jsonl"
    assert cli.main(["run", "s2-annulus", "--out", str(out)]) == 1


def test_samples_below_one_rejected(tmp_path, capsys):
    for bad in (0, -4):
        with pytest.raises(ValueError, match=f"samples must be at least 1, got {bad}"):
            run_scenario("s3-selfdual", samples=bad)
        out = tmp_path / f"s{bad}.jsonl"
        assert main(["run", "s3-selfdual", "--samples", str(bad),
                     "--out", str(out)]) == 2
        assert f"samples must be at least 1, got {bad}" in capsys.readouterr().err
        assert not out.exists()


def test_negative_seed_rejected(tmp_path, capsys):
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        run_scenario("s2-annulus", seed=-1)
    out = tmp_path / "neg.jsonl"
    assert main(["run", "s2-annulus", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_out_directory_must_exist(tmp_path, capsys, monkeypatch):
    ran = []
    monkeypatch.setattr("tduality.cli.run_scenario", lambda *a, **k: ran.append(a))
    out = tmp_path / "missing" / "r.jsonl"
    assert main(["run", "s3-selfdual", "--out", str(out)]) == 2
    assert f"output directory {out.parent} does not exist" in capsys.readouterr().err
    assert not ran and not out.parent.exists()


def test_tol_flag_removed(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "s3-hopf", "--tol", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err



@pytest.mark.parametrize("samples", [1, 5])
def test_samples_count_the_points(monkeypatch, samples):
    """Every set of sample points has ``samples`` points: points of the chart
    in the five point-based scenarios, and in buscher-random points of the
    generic metric's entry space, one set per chart and no chart points.
    reduction-suite takes max(4, samples // 4) points per pair."""
    from tduality.scalar import Domain
    drawn = []
    real = Domain.sample_many

    def spy(self, rng, n):
        drawn.append(n)
        return real(self, rng, n)

    monkeypatch.setattr(Domain, "sample_many", spy)
    for name in ("s3-hopf", "s3-selfdual", "s2-annulus", "hopf-surface",
                 "gibbons-hawking"):
        drawn.clear()
        report = run_scenario(name, seed=1, samples=samples)
        assert drawn and set(drawn) == {samples}, name
        assert report.ok, name
    entry = []
    real_entry = scenarios._entry_points

    def entry_spy(rng, m, n):
        points = real_entry(rng, m, n)
        entry.append((m, len(points)))
        return points

    monkeypatch.setattr(scenarios, "_entry_points", entry_spy)
    drawn.clear()
    report = run_scenario("buscher-random", seed=1, samples=samples)
    assert entry == [(2, samples), (3, samples)]
    assert not drawn
    assert report.ok
