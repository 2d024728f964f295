"""Tests for the experiment harness."""

import math

import pytest

from repro.harness import (
    ExperimentSettings,
    PointSpec,
    WorkloadSpec,
    make_system,
    run_experiment,
    run_point,
)
from repro.harness.systems import SYSTEM_FACTORIES
from repro.txn.priority import Priority
from repro.workloads import YcsbTWorkload

FAST = ExperimentSettings(duration=3.0, trim=0.5, drain=5.0)


def test_registry_covers_all_paper_lines():
    assert set(SYSTEM_FACTORIES) == {
        "2PL+2PC",
        "2PL+2PC(P)",
        "2PL+2PC(POW)",
        "TAPIR",
        "Carousel Basic",
        "Carousel Fast",
        "Natto-TS",
        "Natto-LECSF",
        "Natto-PA",
        "Natto-CP",
        "Natto-RECSF",
    }


def test_unknown_system_rejected():
    with pytest.raises(KeyError):
        make_system("FoundationDB")


def test_run_experiment_produces_metrics():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=200_000),
        60,
        FAST,
    )
    assert result.system_name == "Carousel Basic"
    assert result.committed_per_second > 30
    assert 0.2 < result.p95_high_ms / 1000.0 < 3.0
    assert 0.2 < result.p95_low_ms / 1000.0 < 3.0
    assert result.system is not None


def test_input_rate_is_respected():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=100_000),
        100,
        FAST,
    )
    # Open-loop arrivals at 100/s; goodput close to it at low contention.
    assert 70 < result.committed_per_second < 130


def test_window_trims_warmup_and_cooldown():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=10_000),
        50,
        FAST,
    )
    start, end = result.window
    assert start == FAST.probe_warmup + FAST.trim
    assert end == FAST.probe_warmup + FAST.duration - FAST.trim
    for record in result.stats.committed(window=result.window):
        assert start <= record.start < end


def test_same_seed_reproduces_exactly():
    def run():
        return run_experiment(
            lambda: make_system("Carousel Basic"),
            lambda rng: YcsbTWorkload(rng, num_keys=10_000),
            50,
            FAST.scaled(seed=42),
        )

    a, b = run(), run()
    assert [r.txn_id for r in a.stats.records] == [
        r.txn_id for r in b.stats.records
    ]
    assert a.p95_low_ms == b.p95_low_ms


def test_different_seeds_differ():
    def run(seed):
        return run_experiment(
            lambda: make_system("Carousel Basic"),
            lambda rng: YcsbTWorkload(rng, num_keys=10_000),
            50,
            FAST.scaled(seed=seed),
        )

    assert run(1).p95_low_ms != run(2).p95_low_ms


def test_run_point_aggregates_with_ci():
    repeated = run_point(
        PointSpec(
            system="Carousel Basic",
            x=50,
            input_rate=50,
            workload=WorkloadSpec.of(YcsbTWorkload, num_keys=10_000),
            settings=FAST,
            repeats=2,
        )
    )
    mean, half = repeated.p95_low_ms()
    assert mean > 0
    assert half >= 0
    assert not math.isnan(mean)


def test_priority_split_in_goodput():
    result = run_experiment(
        lambda: make_system("Carousel Basic"),
        lambda rng: YcsbTWorkload(rng, num_keys=100_000),
        100,
        FAST,
    )
    high = result.goodput(Priority.HIGH)
    low = result.goodput(Priority.LOW)
    assert high < low  # 10/90 split
    assert high + low == pytest.approx(result.goodput(), rel=1e-6)
