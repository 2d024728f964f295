"""Figure 11: Pareto delay variance sweep.

Paper shape: Natto's latency rises with variance (late arrivals abort
under contention), but even at 40% variance Natto undercuts what the
baselines post at zero variance.
"""

from repro.experiments import exhibits

from benchmarks.conftest import run_once

VARIANCES = (0.0, 40.0)


def test_fig11_delay_variance(benchmark, bench_scale):
    tables = run_once(
        benchmark, lambda: exhibits.run(exhibits.ROWS["fig11"], scale=bench_scale, systems=("2PL+2PC", "TAPIR", "Carousel Basic", "Natto-RECSF"), grid=VARIANCES)
    )
    for table in tables.values():
        table.print()
    high = tables["high"]

    # Natto beats the contemporaries at zero variance...
    for baseline in ("Carousel Basic", "TAPIR", "2PL+2PC"):
        assert high.value("Natto-RECSF", 0.0) < high.value(baseline, 0.0)
    # ... and even Natto at 40% variance beats the baselines at 0%.
    floor = min(
        high.value(b, 0.0)
        for b in ("Carousel Basic", "TAPIR", "2PL+2PC")
    )
    assert high.value("Natto-RECSF", 40.0) < floor
