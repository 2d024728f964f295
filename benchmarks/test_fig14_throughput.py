"""Figure 14: peak throughput scaling with partitions (local cluster).

Paper shape: throughput grows roughly linearly with partitions for
every system, and Carousel Basic and Natto sit close together (the
timestamp machinery costs little CPU).
"""

from dataclasses import replace

from repro.experiments import exhibits

from benchmarks.conftest import run_once

PARTITIONS = (2, 4)
SYSTEMS = ("Carousel Basic", "Natto-RECSF")


def test_fig14_throughput_scaling(benchmark, bench_scale):
    tables = run_once(
        benchmark,
        lambda: exhibits.run(
            # Saturate with fewer events: pricier messages, less load.
            replace(
                exhibits.ROWS["fig14"],
                offered_per_partition=1500,
                service_time=150e-6,
            ),
            scale=bench_scale,
            systems=SYSTEMS,
            grid=PARTITIONS,
        ),
    )
    for table in tables.values():
        table.print()
    throughput = tables["throughput"]

    for name in SYSTEMS:
        small = throughput.value(name, 2)
        large = throughput.value(name, 4)
        # 2x the partitions buys at least 1.5x the throughput.
        assert large > 1.5 * small, (name, small, large)
    # Natto's peak throughput is within ~20% of Carousel Basic's.
    for n in PARTITIONS:
        natto = throughput.value("Natto-RECSF", n)
        carousel = throughput.value("Carousel Basic", n)
        assert natto > 0.8 * carousel, (n, natto, carousel)
