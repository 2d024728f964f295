"""Run one experiment: deploy, drive load, measure.

Measurement follows §5.1:

* clients are application servers in every datacenter (two per DC by
  default), all generating transactions at the same rate; the
  *transaction input rate* is the total across clients and counts only
  new transactions, not retries;
* aborted transactions retry immediately; 100 failed retries mark the
  transaction failed and drop it from latency stats;
* the measurement window trims a warm-up and cool-down interval (the
  paper trims 10 s off both ends of a 60 s run — scaled runs trim
  proportionally);
* experiments are repeated with independent seeds; aggregates carry a
  95% confidence interval.

Simulated durations are configurable because a full 60 s x 10 repeats
paper run is hours of host CPU; the benchmark suite uses scaled-down
defaults and the CLI exposes ``--full`` for paper-scale runs.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.net.topology import Topology, azure_topology
from repro.obs.core import Observability
from repro.systems.base import Cluster, SystemConfig, TransactionSystem
from repro.systems.client import ClientDriver
from repro.txn.priority import Priority
from repro.txn.stats import StatsCollector
from repro.workloads.base import Workload

SystemFactory = Callable[[], TransactionSystem]
WorkloadFactory = Callable[[np.random.Generator], Workload]

def seed_schedule(base_seed: int, repeats: int) -> tuple:
    """Per-repetition seeds for ``repeats`` runs of base seed ``base_seed``.

    The mapping is ``base_seed * stride + repetition`` with ``stride =
    max(1000, repeats)``: for any two distinct (base seed, repetition)
    pairs produced by one call the seeds differ, because repetition
    indexes never reach the stride.  For up to 1000 repetitions (the
    paper uses 10) the stride is pinned at 1000, which reproduces the
    historical ``seed * 1000 + repetition`` derivation exactly — every
    existing figure keeps its numbers.  Beyond 1000 repetitions the
    stride grows instead of silently colliding with the next base
    seed's block, which the old fixed multiplier did.
    """
    if repeats < 0:
        raise ValueError(f"repeats must be non-negative, got {repeats}")
    stride = max(1000, repeats)
    return tuple(base_seed * stride + rep for rep in range(repeats))


@dataclass(frozen=True)
class ExperimentSettings:
    """Deployment and measurement parameters."""

    topology_factory: Callable[[], Topology] = azure_topology
    system_config: SystemConfig = field(default_factory=SystemConfig)
    clients_per_dc: int = 2
    duration: float = 20.0      # load-generation span (paper: 60 s)
    trim: float = 4.0           # cut from both ends (paper: 10 s)
    probe_warmup: float = 2.0   # delay-estimate warm-up before load
    drain: float = 15.0         # post-load settling time
    seed: int = 0
    #: Attach an :class:`~repro.obs.core.Observability` to the run's
    #: simulator (spans, events, metrics).
    tracing: bool = False
    #: Directory for per-run trace exports when tracing is on; it
    #: travels with the settings into worker processes.  ``None``
    #: disables export.
    trace_dir: Optional[str] = None
    #: Filename stem for this run's trace export, normally derived by
    #: the sweep machinery from (figure tag, system, x-value); the run's
    #: seed is always appended, which keeps names collision-free across
    #: repetitions and parallel workers without any shared counter.
    trace_label: Optional[str] = None

    def scaled(self, **overrides) -> "ExperimentSettings":
        return replace(self, **overrides)


@dataclass
class ExperimentResult:
    """Stats plus the measurement window, with the paper's metrics."""

    system_name: str
    stats: StatsCollector
    window: tuple
    input_rate: float
    #: The deployed system object (stores, counters) for post-hoc
    #: inspection; None after serialization.
    system: Optional[TransactionSystem] = None
    #: The run's observability context when tracing was on (spans,
    #: events, live metrics); None otherwise.
    obs: Optional[Observability] = None
    #: JSON-able metrics/trace-volume snapshot taken at the end of the
    #: run (survives dropping ``obs``); None when tracing was off.
    obs_snapshot: Optional[dict] = None

    def p95_ms(
        self,
        priority: Optional[Priority] = None,
        txn_type: Optional[str] = None,
    ) -> float:
        return 1000.0 * self.stats.p95_latency(
            priority, self.window, txn_type
        )

    @property
    def p95_high_ms(self) -> float:
        return self.p95_ms(Priority.HIGH)

    @property
    def p95_low_ms(self) -> float:
        return self.p95_ms(Priority.LOW)

    def goodput(self, priority: Optional[Priority] = None) -> float:
        return self.stats.goodput(self.window, priority)

    @property
    def committed_per_second(self) -> float:
        return self.goodput()

    def detach(self) -> "ExperimentResult":
        """A transportable copy: no live ``system``/``obs`` objects.

        The detached result pickles cheaply (transaction records plus
        the JSON-able ``obs_snapshot``) and still answers every metric
        query — parallel workers ship these back to the parent, which
        is why serial and parallel sweeps extract identical numbers.
        """
        if self.system is None and self.obs is None:
            return self
        return replace(self, system=None, obs=None)


def run_experiment(
    system_factory: SystemFactory,
    workload_factory: WorkloadFactory,
    input_rate: float,
    settings: ExperimentSettings = ExperimentSettings(),
) -> ExperimentResult:
    """One run of one system at one input rate."""
    system = system_factory()
    cluster = Cluster(
        settings.topology_factory(), settings.system_config, settings.seed
    )
    obs = Observability().attach(cluster.sim) if settings.tracing else None
    system.setup(cluster)
    stats = StatsCollector()
    workload = workload_factory(cluster.streams.stream("workload"))

    clients: List[ClientDriver] = []
    for dc in cluster.topology.datacenters:
        for i in range(settings.clients_per_dc):
            name = f"client-{dc}-{i}"
            client = ClientDriver(
                cluster.sim,
                cluster.network,
                name,
                dc,
                system,
                stats,
                clock=cluster.make_clock(name),
            )
            client.use_streams(cluster.streams)
            clients.append(client)

    per_client_rate = input_rate / len(clients)
    load_start = settings.probe_warmup
    load_end = load_start + settings.duration

    def start_load() -> None:
        for client in clients:
            client.run_open_loop(workload, per_client_rate, until=load_end)

    cluster.sim.schedule(load_start, start_load)
    cluster.sim.run(until=load_end + settings.drain)

    window = (load_start + settings.trim, load_end - settings.trim)
    snapshot = None
    if obs is not None:
        snapshot = obs.snapshot()
        if settings.trace_dir is not None:
            _export_trace(obs, system.name, settings, input_rate)
    return ExperimentResult(
        system.name, stats, window, input_rate, system,
        obs=obs, obs_snapshot=snapshot,
    )


def slugify(text) -> str:
    """Filename-safe form of a system label or x-value."""
    return re.sub(r"[^a-z0-9._-]+", "-", str(text).lower()).strip("-")


def _export_trace(
    obs: Observability,
    system_name: str,
    settings: ExperimentSettings,
    input_rate: float,
) -> None:
    """Write the run's trace under ``settings.trace_dir``.

    The name comes entirely from the run's own settings — the sweep
    machinery bakes (figure tag, system, x-value) into ``trace_label``
    and every repetition has a distinct seed (:func:`seed_schedule`) —
    so concurrent workers can't collide and no shared counter is
    needed.  ``makedirs(exist_ok=True)`` is atomic enough for the
    parallel case: the first worker (or the CLI, which pre-creates the
    directory) wins and the rest pass through.
    """
    stem = settings.trace_label or (
        f"{slugify(system_name)}-r{input_rate:g}"
    )
    os.makedirs(settings.trace_dir, exist_ok=True)
    path = os.path.join(
        settings.trace_dir, f"{stem}-seed{settings.seed}.trace.jsonl"
    )
    obs.export_jsonl(
        path,
        meta={
            "system": system_name,
            "seed": settings.seed,
            "input_rate": input_rate,
            "duration": settings.duration,
        },
    )


@dataclass
class RepeatedResult:
    """Mean and 95% CI over independent repetitions."""

    system_name: str
    input_rate: float
    results: List[ExperimentResult]

    def _ci(self, values: Sequence[float]) -> tuple:
        values = [v for v in values if not math.isnan(v)]
        if not values:
            return (float("nan"), float("nan"))
        mean = float(np.mean(values))
        if len(values) == 1:
            return (mean, 0.0)
        half = 1.96 * float(np.std(values, ddof=1)) / math.sqrt(len(values))
        return (mean, half)

    def p95_high_ms(self) -> tuple:
        return self._ci([r.p95_high_ms for r in self.results])

    def p95_low_ms(self) -> tuple:
        return self._ci([r.p95_low_ms for r in self.results])

    def p95_ms(self, **kwargs) -> tuple:
        return self._ci([r.p95_ms(**kwargs) for r in self.results])

    def goodput(self, priority: Optional[Priority] = None) -> tuple:
        return self._ci([r.goodput(priority) for r in self.results])
