"""The exhibit table: every sweep in the paper's evaluation, one row each.

A row (:class:`Exhibit`) declares a sweep: its title, trace tag, x
label, default x grid and systems, the point's workload, input rate and
settings as functions of x, and the tables it fills.  :func:`run` turns
a row into one :class:`~repro.harness.parallel.PointSpec` per
(system, x), hands them to :func:`~repro.harness.parallel.run_points`
(``jobs`` workers, default all cores; ``jobs=1`` runs in-process) and
fills the tables in (system, x) order, so they are byte-identical
however many workers ran the sweep.

``ROWS`` is keyed by the experiments CLI's exhibit names (``fig7a``
... ``fig14``) plus one row per ablation (``abl-*``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from operator import methodcaller
from typing import Any, Callable, Dict, NamedTuple, Optional, Sequence, Tuple

from repro.cluster.clock import ClockConfig
from repro.core import Natto
from repro.core.config import natto_recsf
from repro.harness.experiment import ExperimentSettings, slugify
from repro.harness.parallel import PointSpec, WorkloadSpec, run_points
from repro.harness.report import SeriesTable
from repro.harness.systems import ALL_SYSTEMS, AZURE_SYSTEMS
from repro.net.loss import LossConfig
from repro.net.topology import hybrid_cloud_topology, local_cluster_topology
from repro.systems.base import SystemConfig
from repro.txn.priority import Priority
from repro.txn.stats import TxnOutcome
from repro.workloads import RetwisWorkload, SmallBankWorkload, YcsbTWorkload


@dataclass(frozen=True)
class Scale:
    """How long and how often to run each point."""

    name: str
    duration: float
    trim: float
    repeats: int
    drain: float

    def apply(self, settings: ExperimentSettings) -> ExperimentSettings:
        return settings.scaled(
            duration=self.duration, trim=self.trim, drain=self.drain
        )


SCALES: Dict[str, Scale] = {
    "quick": Scale("quick", duration=4.0, trim=1.0, repeats=1, drain=6.0),
    "bench": Scale("bench", duration=6.0, trim=1.5, repeats=1, drain=10.0),
    "full": Scale("full", duration=60.0, trim=10.0, repeats=10, drain=30.0),
}


def trace_label(tag: Optional[str], system_name: str, x) -> Optional[str]:
    """Trace-export stem for one sweep point.

    Derived from (row tag, system, x-value); the harness appends the
    run's seed.  Unique per point by construction — no shared counter,
    so parallel workers can't collide.
    """
    if tag is None:
        return None
    return f"{slugify(tag)}-{slugify(system_name)}-x{slugify(x)}"


class Table(NamedTuple):
    """One table a row fills.

    The full title is ``"<row title> — <title>"``; ``extract`` reads
    ``(value, error)`` off a point's
    :class:`~repro.harness.experiment.RepeatedResult`, or is ``None``
    for a table derived after the sweep (see :attr:`Exhibit.baseline`).
    """

    key: str
    title: str
    extract: Optional[Callable[..., tuple]]
    unit: str = "ms"


P95_HIGH = methodcaller("p95_high_ms")

#: Figures 7 and 8: the tail of each priority class plus low-priority
#: goodput.  The paper's (b)/(d)/(f) sub-figures plot low-priority 95P
#: latency against committed goodput; both series against x carry the
#: same information as that parametric plot.
LATENCY_AND_GOODPUT = (
    Table("high", "95P latency, high-priority", P95_HIGH),
    Table("low", "95P latency, low-priority", methodcaller("p95_low_ms")),
    Table(
        "low_goodput",
        "committed low-priority txn/s",
        methodcaller("goodput", Priority.LOW),
        "txn/s",
    ),
)


def _ycsbt(x) -> WorkloadSpec:
    return WorkloadSpec.of(YcsbTWorkload)


def _default_settings(x) -> ExperimentSettings:
    return ExperimentSettings()


def _tuned(**overrides) -> ExperimentSettings:
    """Default settings with ``SystemConfig`` overrides."""
    return ExperimentSettings(
        system_config=SystemConfig().with_overrides(**overrides)
    )


@dataclass(frozen=True)
class Exhibit:
    """One sweep: every system in ``systems`` at every x in ``grid``."""

    title: str
    #: Trace-file stem prefix (see :func:`trace_label`).
    tag: str
    x_label: str
    grid: tuple
    systems: Tuple[str, ...]
    tables: Tuple[Table, ...]
    workload: Callable[[Any], WorkloadSpec] = _ycsbt
    #: Input rate at x; by default x is the rate.
    rate: Callable[[Any], float] = float
    #: Settings at x, before the scale applies its durations.
    settings: Callable[[Any], ExperimentSettings] = _default_settings
    #: For rows that sweep one unregistered Natto variant (the
    #: ablations): a picklable system factory at x.  Such a row runs
    #: under its single ``systems`` label whatever systems are asked for.
    variant: Optional[Callable[[Any], Any]] = None
    #: The grid always starts here, and the ``increase`` table restates
    #: each ``high`` value as a % change from the one at this x.
    baseline: Any = None

    def point(self, x) -> Tuple[WorkloadSpec, float, ExperimentSettings]:
        """Workload, input rate and unscaled settings at ``x``."""
        return self.workload(x), self.rate(x), self.settings(x)


@dataclass(frozen=True)
class Saturation(Exhibit):
    """Figure 14's row, where x is the partition count.

    Peak throughput is CPU-bound: the row offers load beyond each
    leader's service capacity, so committed goodput reads out the
    saturation point.  Cheap runs raise ``service_time`` and lower
    ``offered_per_partition``: pricier messages saturate with fewer
    simulated events, which keeps the linear-scaling shape.
    """

    offered_per_partition: int = 2600
    #: Per-message CPU cost, calibrated so a partition leader saturates
    #: in the paper's range (~1500 committed txn/s each).
    service_time: float = 60e-6

    def point(self, x) -> Tuple[WorkloadSpec, float, ExperimentSettings]:
        settings = ExperimentSettings(
            topology_factory=local_cluster_topology,
            clients_per_dc=4,
            system_config=SystemConfig().with_overrides(
                num_partitions=x,
                server_service_time=self.service_time,
                clock=ClockConfig(max_offset=0.0002),
            ),
            probe_warmup=1.5,
        )
        return (
            WorkloadSpec.of(RetwisWorkload, uniform_keys=1_000_000),
            float(self.offered_per_partition * x),
            settings,
        )


PRIORITIZING = ("2PL+2PC", "2PL+2PC(P)", "2PL+2PC(POW)", "Natto-RECSF")
ZIPFS = (0.65, 0.75, 0.85, 0.95)
ABLATION_RATE = 250


def _ablation(config) -> Callable[[Any], Any]:
    """A variant factory: ``config`` maps x to a Natto-RECSF config."""
    return lambda x: partial(Natto, config(x))


ROWS: Dict[str, Exhibit] = {
    # Figure 7: impact of transaction input rate.  (a/b) runs on the
    # emulated-WAN cluster; (c/d) and (e/f) on the Azure deployment.
    "fig7a": Exhibit(
        "Figure 7(a/b) YCSB+T", "fig7-ycsbt", "input rate (txn/s)",
        (50, 150, 250, 350), ALL_SYSTEMS, LATENCY_AND_GOODPUT,
    ),
    "fig7c": Exhibit(
        "Figure 7(c/d) Retwis", "fig7-retwis", "input rate (txn/s)",
        (100, 500, 1000, 1500), AZURE_SYSTEMS, LATENCY_AND_GOODPUT,
        workload=lambda x: WorkloadSpec.of(RetwisWorkload),
    ),
    "fig7e": Exhibit(
        "Figure 7(e/f) SmallBank", "fig7-smallbank", "input rate (txn/s)",
        (500, 1000, 1500, 2000), AZURE_SYSTEMS, LATENCY_AND_GOODPUT,
        workload=lambda x: WorkloadSpec.of(SmallBankWorkload),
    ),
    # Figure 8: high contention.  Raising the Zipf coefficient
    # concentrates accesses on a handful of keys; OCC systems retry
    # their way to order-of-magnitude latency increases while Natto's
    # timestamp order keeps the high-priority tail bounded.
    "fig8a": Exhibit(
        "Figure 8(a) YCSB+T @50 txn/s", "fig8-ycsbt", "zipf coefficient",
        ZIPFS, ALL_SYSTEMS, LATENCY_AND_GOODPUT,
        workload=lambda theta: WorkloadSpec.of(
            YcsbTWorkload, zipf_theta=theta
        ),
        rate=lambda theta: 50.0,
    ),
    "fig8b": Exhibit(
        "Figure 8(b) Retwis @100 txn/s", "fig8-retwis", "zipf coefficient",
        ZIPFS, AZURE_SYSTEMS, LATENCY_AND_GOODPUT,
        workload=lambda theta: WorkloadSpec.of(
            RetwisWorkload, zipf_theta=theta
        ),
        rate=lambda theta: 100.0,
    ),
    # Figure 9: the paper shows only the prioritizing systems; plain
    # 2PL is flat and (P)/(POW) converge up to it as fewer low-priority
    # victims exist.
    "fig9": Exhibit(
        "Figure 9", "fig9", "high-priority %", (10, 40, 60, 80, 100),
        PRIORITIZING,
        (Table("high", "95P latency, high-priority (YCSB+T @350 txn/s)",
               P95_HIGH),),
        workload=lambda pct: WorkloadSpec.of(
            YcsbTWorkload, high_priority_fraction=pct / 100.0
        ),
        rate=lambda pct: 350.0,
    ),
    # Figure 10: the paper plots the increase of sendPayment's 95P
    # latency over its value at 100 txn/s, so that rate is always run.
    "fig10": Exhibit(
        "Figure 10", "fig10", "input rate (txn/s)", (100, 1500, 3500, 6000),
        PRIORITIZING,
        (
            Table("high", "95P latency, sendPayment=high (SmallBank)",
                  methodcaller("p95_ms", priority=None,
                               txn_type="send_payment")),
            Table("increase", "95P latency increase vs 100 txn/s", None,
                  "%"),
        ),
        workload=lambda rate: WorkloadSpec.of(
            SmallBankWorkload, high_priority_types=frozenset({"send_payment"})
        ),
        baseline=100,
    ),
    # Figure 11: Pareto delays whose std/mean sweeps 0-40%.  Natto's
    # timestamps come from p95 delay estimates, so rising variance
    # means more late arrivals and timestamp-order aborts.
    "fig11": Exhibit(
        "Figure 11", "fig11", "delay variance (%)", (0.0, 5.0, 15.0, 40.0),
        AZURE_SYSTEMS,
        (Table("high", "95P latency, high-priority vs delay variance "
               "(YCSB+T @350 txn/s)", P95_HIGH),),
        rate=lambda v: 350.0,
        settings=lambda v: _tuned(delay_variance_cv=v / 100.0),
    ),
    # Figure 12: loss costs retransmission latency on every message and
    # a Mathis-bound bandwidth collapse (repro.net.loss) that saturates
    # the systems pushing the most bytes first.
    "fig12": Exhibit(
        "Figure 12", "fig12", "packet loss (%)", (0.0, 1.0, 2.0, 3.0),
        AZURE_SYSTEMS,
        (Table("high", "95P latency, high-priority vs packet loss "
               "(YCSB+T @100 txn/s)", P95_HIGH),),
        rate=lambda loss: 100.0,
        settings=lambda loss: _tuned(loss=LossConfig(loss_rate=loss / 100.0)),
    ),
    # Figure 13: VA/WA replaced by AWS us-east/us-west.  A bar chart in
    # the paper, a one-row table here.  Same-provider links get a 1%
    # baseline jitter, which the topology scales up on cross-provider
    # links.
    "fig13": Exhibit(
        "Figure 13", "fig13", "deployment", ("hybrid",), AZURE_SYSTEMS,
        (Table("high", "95P latency, high-priority, hybrid AWS+Azure "
               "(Retwis @1000 txn/s)", P95_HIGH),),
        workload=lambda x: WorkloadSpec.of(RetwisWorkload),
        rate=lambda x: 1000.0,
        settings=lambda x: ExperimentSettings(
            topology_factory=hybrid_cloud_topology,
            system_config=SystemConfig().with_overrides(
                delay_variance_cv=0.01
            ),
        ),
    ),
    # Figure 14: three simulated DCs 4/6/8 ms apart, uniform keys so
    # contention is out of the picture.
    "fig14": Saturation(
        "Figure 14", "fig14", "partitions", (2, 4, 8, 12),
        ("2PL+2PC", "2PL+2PC(P)", "TAPIR", "Carousel Basic", "Carousel Fast",
         "Natto-RECSF"),
        (Table("throughput", "peak throughput vs partitions "
               "(uniform Retwis, 3-DC local cluster)", methodcaller("goodput"),
               "txn/s"),),
    ),
    # Ablations of three choices the paper sweeps only implicitly.
    # Timestamp margin: too little and requests arrive after their own
    # timestamps (aborts under jitter); too much and every transaction
    # waits longer than necessary.
    "abl-margin": Exhibit(
        "Ablation: timestamp margin", "abl-margin", "margin (ms)",
        (0.0, 2.0, 20.0), ("Natto-RECSF",),
        (Table("high", "95P high-priority latency "
               f"(YCSB+T @{ABLATION_RATE} txn/s, 2% delay jitter)",
               P95_HIGH),),
        rate=lambda ms: float(ABLATION_RATE),
        settings=lambda ms: _tuned(delay_variance_cv=0.02),
        variant=_ablation(lambda ms: natto_recsf(timestamp_margin=ms / 1000.0)),
    ),
    # §3.3.1's completion-time estimate spares a low-priority
    # transaction about to finish anyway; off means always abort.
    "abl-skip-rule": Exhibit(
        "Ablation: PA skip rule", "abl-skip-rule", "variant",
        ("skip rule on", "skip rule off"), ("Natto-RECSF",),
        (
            Table("high", "95P high-priority latency", P95_HIGH),
            Table("low", "95P low-priority latency",
                  methodcaller("p95_low_ms")),
        ),
        rate=lambda label: float(ABLATION_RATE),
        variant=_ablation(
            lambda label: natto_recsf(pa_skip_rule=label == "skip rule on")
        ),
    ),
    # Sparse probing degrades delay estimates, which shows up as
    # late-arrival aborts once delays jitter.
    "abl-probes": Exhibit(
        "Ablation: probe interval", "abl-probes", "probe interval (ms)",
        (10.0, 100.0, 500.0), ("Natto-RECSF",),
        (Table("high", "95P high-priority latency (15% delay variance)",
               P95_HIGH),),
        rate=lambda ms: float(ABLATION_RATE),
        settings=lambda ms: _tuned(
            delay_variance_cv=0.15, probe_interval=ms / 1000.0
        ),
        variant=_ablation(lambda ms: natto_recsf()),
    ),
}


def run(
    row: Exhibit,
    scale="bench",
    systems: Optional[Sequence[str]] = None,
    grid: Optional[Sequence] = None,
    jobs: Optional[int] = None,
    trace_dir: Optional[str] = None,
) -> Dict[str, SeriesTable]:
    """Sweep ``row`` and return its tables by key.

    ``systems`` and ``grid`` override the row's defaults.  ``trace_dir``
    turns tracing on and exports one ``.trace.jsonl`` per run into it.
    Prints one line per point: its table values, ``failed=<k>/<n>``,
    the transactions that used up their retry budget out of all
    recorded, and ``probes=<p>/<m>``, the probe-lane messages out of
    all network messages, each summed over the point's repetitions.
    """
    if isinstance(scale, str):
        scale = SCALES[scale]
    grid = tuple(grid or row.grid)
    if row.baseline is not None and grid[0] != row.baseline:
        grid = (row.baseline,) + grid
    if row.variant is not None or not systems:
        systems = row.systems
    tables = {
        table.key: SeriesTable(
            f"{row.title} — {table.title}", row.x_label, grid, table.unit
        )
        for table in row.tables
    }
    measured = [table for table in row.tables if table.extract is not None]

    points = [(name, x) for name in systems for x in grid]
    specs = []
    for name, x in points:
        workload, rate, settings = row.point(x)
        specs.append(
            PointSpec(
                system=name if row.variant is None else row.variant(x),
                x=x,
                input_rate=rate,
                workload=workload,
                settings=scale.apply(settings).scaled(
                    tracing=trace_dir is not None,
                    trace_dir=trace_dir,
                    trace_label=trace_label(row.tag, name, x),
                ),
                repeats=scale.repeats,
            )
        )

    for (name, x), result in zip(points, run_points(specs, jobs=jobs)):
        for table in measured:
            tables[table.key].add_point(name, *table.extract(result))
        records = [rec for rep in result.results for rec in rep.stats.records]
        failed = sum(rec.outcome is TxnOutcome.FAILED for rec in records)
        probes = sum(rep.probe_messages for rep in result.results)
        messages = sum(rep.messages for rep in result.results)
        values = " ".join(
            f"{table.key}={tables[table.key].series[name][-1]:.1f}"
            for table in measured
        )
        print(f"[{name} @ {x}] {values} failed={failed}/{len(records)} "
              f"probes={probes}/{messages}")

    if row.baseline is not None:
        for name, values in tables["high"].series.items():
            for value in values:
                tables["increase"].add_point(
                    name, 100.0 * (value - values[0]) / values[0]
                )
    return tables
