"""Smoke tests for the ablation suite and the experiments CLI."""

import math
import os

import pytest

from repro.experiments import exhibits
from repro.experiments.__main__ import EXHIBITS, main
from repro.experiments.exhibits import ROWS, Scale, run
from repro.harness import ExperimentResult, ExperimentSettings, RepeatedResult
from repro.txn.priority import Priority
from repro.txn.stats import StatsCollector, TxnOutcome, TxnRecord

TINY = Scale("tiny", duration=2.0, trim=0.5, repeats=1, drain=4.0)


def test_timestamp_margin_ablation_sweeps():
    tables = run(ROWS["abl-margin"], TINY, grid=(0.0, 2.0))
    series = tables["high"].series["Natto-RECSF"]
    assert len(series) == 2
    assert all(not math.isnan(v) for v in series)


def test_pa_skip_rule_ablation_produces_both_variants():
    tables = run(ROWS["abl-skip-rule"], TINY)
    assert len(tables["high"].series["Natto-RECSF"]) == 2
    assert len(tables["low"].series["Natto-RECSF"]) == 2


def test_probe_cadence_ablation_sweeps():
    tables = run(ROWS["abl-probes"], TINY, grid=(10.0, 500.0))
    assert len(tables["high"].series["Natto-RECSF"]) == 2


def test_cli_registry_covers_every_exhibit():
    assert set(EXHIBITS) == {
        "ablations",
        "table1",
        "fig7a",
        "fig7c",
        "fig7e",
        "fig8a",
        "fig8b",
        "fig9",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
    }


def test_cli_runs_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "NSW-SG" in out


def test_cli_rejects_unknown_exhibit():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_cli_rejects_an_unknown_system(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["fig13", "--systems", "Bogus", "--jobs", "1"])
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert "invalid choice: 'Bogus'" in captured.err.strip().splitlines()[-1]
    assert "#####" not in captured.out


def _result(outcomes):
    stats = StatsCollector()
    for i, outcome in enumerate(outcomes):
        stats.add(
            TxnRecord(f"t{i}", Priority.HIGH, "rmw", 1.0, 1.5, 0, outcome)
        )
    return ExperimentResult("Natto-RECSF", stats, (0.0, 10.0), 1000.0)


def test_point_line_reports_failed_over_recorded(monkeypatch, capsys):
    ok, failed = TxnOutcome.COMMITTED, TxnOutcome.FAILED
    repeated = RepeatedResult(
        "Natto-RECSF",
        1000.0,
        [_result([ok, failed, ok]), _result([failed, ok])],
    )
    monkeypatch.setattr(
        exhibits, "run_points", lambda specs, jobs=None: [repeated]
    )
    tables = run(ROWS["fig13"], TINY, systems=("Natto-RECSF",))
    assert tables["high"].value("Natto-RECSF", "hybrid") == 500.0
    assert capsys.readouterr().out.splitlines() == [
        "[Natto-RECSF @ hybrid] high=500.0 failed=2/5"
    ]


def test_cli_trace_exports_one_file_per_point(tmp_path):
    trace_dir = tmp_path / "traces"
    argv = ["fig13", "--systems", "TAPIR", "--scale", "quick",
            "--trace", str(trace_dir), "--jobs", "1"]
    assert main(argv) == 0
    assert os.listdir(trace_dir) == ["fig13-tapir-xhybrid-seed0.trace.jsonl"]
    # The trace directory reached that one sweep, not later settings.
    assert ExperimentSettings().tracing is False
    assert ExperimentSettings().trace_dir is None
