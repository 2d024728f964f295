"""Figure 7(e)/(f): SmallBank on the Azure topology.

Paper shape: short transactions (1-2 users), 90% of traffic on 1K hot
accounts; Natto-TS and Natto-RECSF keep the high-priority tail far
below TAPIR and Carousel at 1500+ txn/s, while low-priority latency
stays comparable at the same goodput.
"""

from repro.experiments import exhibits

from benchmarks.conftest import run_once

SYSTEMS = ("2PL+2PC(P)", "TAPIR", "Carousel Basic",
           "Natto-TS", "Natto-RECSF")
RATES = (500, 2000)


def test_fig7ef_smallbank(benchmark, bench_scale):
    tables = run_once(
        benchmark,
        lambda: exhibits.run(exhibits.ROWS["fig7e"], scale=bench_scale, systems=SYSTEMS, grid=RATES),
    )
    for table in tables.values():
        table.print()
    high = tables["high"]

    assert high.value("Natto-RECSF", 2000) < 0.5 * high.value("TAPIR", 2000)
    assert high.value("Natto-RECSF", 2000) < 0.5 * high.value(
        "Carousel Basic", 2000
    )
    assert high.value("Natto-TS", 2000) < high.value("Carousel Basic", 2000)

    low = tables["low"]
    # Prioritization does not wreck the low-priority class relative to
    # the non-prioritizing baselines.
    assert low.value("Natto-RECSF", 2000) < 1.5 * low.value(
        "Carousel Basic", 2000
    )
