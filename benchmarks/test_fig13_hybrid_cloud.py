"""Figure 13: hybrid AWS+Azure deployment, Retwis at 1000 txn/s.

Paper shape: both Natto-TS and Natto-RECSF have significantly lower
high-priority tails than every baseline in the noisier cross-provider
network.
"""

from repro.experiments import exhibits

from benchmarks.conftest import run_once


def test_fig13_hybrid_cloud(benchmark, bench_scale):
    tables = run_once(benchmark, lambda: exhibits.run(exhibits.ROWS["fig13"], scale=bench_scale, systems=("2PL+2PC", "TAPIR", "Carousel Basic", "Natto-TS", "Natto-RECSF")))
    for table in tables.values():
        table.print()
    high = tables["high"]

    for natto in ("Natto-TS", "Natto-RECSF"):
        for baseline in ("2PL+2PC", "TAPIR", "Carousel Basic"):
            assert high.value(natto, "hybrid") < high.value(
                baseline, "hybrid"
            ), (natto, baseline)
