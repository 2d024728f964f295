"""Figure 9: sweep of the high-priority share of the mix.

Paper shape: 2PL+2PC is flat (it never prioritizes); (P)/(POW) degrade
toward it as the pool of preemptible low-priority victims shrinks;
Natto-RECSF stays low until high-priority transactions dominate, and
is not designed for a 100%-high-priority workload.
"""

from repro.experiments import exhibits

from benchmarks.conftest import run_once

PERCENTAGES = (10, 60, 100)


def test_fig9_priority_mix(benchmark, bench_scale):
    tables = run_once(
        benchmark,
        lambda: exhibits.run(exhibits.ROWS["fig9"], scale=bench_scale, grid=PERCENTAGES),
    )
    for table in tables.values():
        table.print()
    high = tables["high"]

    # At a 10% high-priority mix, Natto crushes the 2PL family.
    assert high.value("Natto-RECSF", 10) < 0.6 * high.value("2PL+2PC(P)", 10)
    assert high.value("2PL+2PC(P)", 10) < high.value("2PL+2PC", 10)
    # Preemption's advantage evaporates as the mix saturates.
    p_gain_10 = high.value("2PL+2PC", 10) / high.value("2PL+2PC(P)", 10)
    p_gain_100 = high.value("2PL+2PC", 100) / high.value("2PL+2PC(P)", 100)
    assert p_gain_100 < p_gain_10
    # Natto's own latency rises with the high-priority share.
    assert high.value("Natto-RECSF", 100) > high.value("Natto-RECSF", 10)
