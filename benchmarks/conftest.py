"""Benchmark-suite configuration.

Each benchmark regenerates one of the paper's exhibits at a reduced
grid/duration (endpoints of each sweep, a few simulated seconds per
point) so the whole suite runs in tens of minutes; the printed tables
are the deliverable and the assertions pin the paper's qualitative
shape.  Paper-scale runs: ``python -m repro.experiments <exhibit>
--scale full``.
"""

import pytest

from repro.experiments import Scale

#: The benchmark scale: short but long enough for stable p95s.
BENCH_SCALE = Scale("bench-suite", duration=2.5, trim=0.6, repeats=1, drain=6.0)


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, iterations=1, rounds=1)
