"""Smoke tests for the exhibit table (tiny scale, subset grids).

These don't re-assert the paper's shapes — the benchmark suite does —
they check that every figure row wires up, sweeps, and produces
well-formed tables.
"""

import math

from repro.experiments import table1
from repro.experiments.exhibits import ROWS, Scale, run

TINY = Scale("tiny", duration=2.0, trim=0.5, repeats=1, drain=4.0)
TWO = ("Carousel Basic", "Natto-RECSF")


def _check(tables, x_count, systems=TWO):
    for table in tables.values():
        for name in systems:
            series = table.series[name]
            assert len(series) == x_count
            assert all(not math.isnan(v) for v in series)


def test_table1_matches_topology():
    measured = table1.run()
    assert len(measured) == 20  # both directions of 10 pairs


def test_figure7_ycsbt(capsys):
    tables = run(ROWS["fig7a"], TINY, systems=TWO, grid=(50,))
    _check(tables, 1)


def test_figure7_retwis():
    tables = run(ROWS["fig7c"], TINY, systems=TWO, grid=(100,))
    _check(tables, 1)


def test_figure7_smallbank():
    tables = run(ROWS["fig7e"], TINY, systems=TWO, grid=(200,))
    _check(tables, 1)


def test_figure8_sweeps_theta():
    tables = run(ROWS["fig8a"], TINY, systems=("Natto-RECSF",))
    assert len(tables["high"].series["Natto-RECSF"]) == 4


def test_figure9_percentages():
    tables = run(ROWS["fig9"], TINY, systems=TWO, grid=(10, 100))
    _check(tables, 2)


def test_figure10_prepends_baseline_rate():
    tables = run(
        ROWS["fig10"], TINY, systems=("Natto-RECSF",), grid=(100, 400)
    )
    increase = tables["increase"].series["Natto-RECSF"]
    assert len(increase) == 2
    assert increase[0] == 0.0  # baseline point is its own reference


def test_figure11_variances():
    tables = run(ROWS["fig11"], TINY, systems=TWO, grid=(0.0, 15.0))
    _check(tables, 2)


def test_figure12_losses():
    tables = run(ROWS["fig12"], TINY, systems=TWO, grid=(0.0, 1.0))
    _check(tables, 2)


def test_figure13_hybrid():
    tables = run(ROWS["fig13"], TINY, systems=TWO)
    _check(tables, 1)


def test_figure14_partitions():
    tables = run(ROWS["fig14"], TINY, systems=("Carousel Basic",), grid=(2,))
    series = tables["throughput"].series["Carousel Basic"]
    assert len(series) == 1
    assert series[0] > 500  # committed load on 2 partitions
