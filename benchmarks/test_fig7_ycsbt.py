"""Figure 7(a)/(b): YCSB+T, all eleven systems, low vs high input rate.

Shape assertions from the paper:

* at 50 txn/s everyone is in the same ballpark (no contention) and
  Carousel Fast is fastest, the 2PL family slowest (~2x);
* at 350 txn/s Carousel and TAPIR tails blow up while every Natto
  variant keeps the high-priority tail within a few hundred ms;
* Natto's low-priority latency stays comparable to Carousel Basic's.
"""

from repro.experiments import exhibits

from benchmarks.conftest import run_once

RATES = (50, 350)


def test_fig7ab_ycsbt(benchmark, bench_scale):
    tables = run_once(
        benchmark,
        lambda: exhibits.run(exhibits.ROWS["fig7a"], scale=bench_scale, grid=RATES),
    )
    for table in tables.values():
        table.print()
    high = tables["high"]

    # Low rate: little contention, everyone commits in one attempt.
    for fast, slow in [
        ("Carousel Fast", "Carousel Basic"),
        ("Carousel Basic", "2PL+2PC"),
    ]:
        assert high.value(fast, 50) < high.value(slow, 50)
    # Natto-TS ~ Carousel Basic at low rate (timestamp wait is masked).
    assert high.value("Natto-TS", 50) < 1.4 * high.value("Carousel Basic", 50)

    # High rate: the paper's headline — Natto's high-priority tail is a
    # small fraction of Carousel's and TAPIR's.
    for natto in ("Natto-TS", "Natto-LECSF", "Natto-PA", "Natto-CP",
                  "Natto-RECSF"):
        assert high.value(natto, 350) < 0.6 * high.value("Carousel Basic", 350)
        assert high.value(natto, 350) < 0.6 * high.value("TAPIR", 350)
    # Prioritized 2PL beats plain 2PL but not Natto.
    assert high.value("2PL+2PC(P)", 350) < high.value("2PL+2PC", 350) * 1.05
    assert high.value("Natto-RECSF", 350) < high.value("2PL+2PC(P)", 350)
