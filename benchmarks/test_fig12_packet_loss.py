"""Figure 12: packet-loss sweep.

Paper shape: everyone's latency grows with loss; Carousel Basic (and
Natto-TS on top of it) saturate around 1.5% because they push the most
replicated bytes; Natto-RECSF lasts to ~2.5%; at typical loss rates
(<1%) Natto still leads.
"""

from repro.experiments import exhibits

from benchmarks.conftest import run_once

LOSSES = (0.0, 1.5)


def test_fig12_packet_loss(benchmark, bench_scale):
    tables = run_once(
        benchmark, lambda: exhibits.run(exhibits.ROWS["fig12"], scale=bench_scale, systems=("2PL+2PC", "TAPIR", "Carousel Basic", "Natto-RECSF"), grid=LOSSES)
    )
    for table in tables.values():
        table.print()
    high = tables["high"]

    # At moderate loss Natto keeps its advantage over the slow
    # baselines (Carousel Basic itself saturates around 1.5%).
    for baseline in ("TAPIR", "2PL+2PC"):
        assert high.value("Natto-RECSF", 1.5) < high.value(baseline, 1.5)
    # Loss hurts: every system is worse at 3% than at 0%.
    for name, series in high.series.items():
        assert series[-1] > series[0], name
