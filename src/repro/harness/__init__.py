"""Experiment harness: deployment, measurement, and reporting.

* :mod:`repro.harness.experiment` — build a deployment (5 partitions x
  3 replicas over 5 DCs, 2 clients per DC by default), drive an
  open-loop workload at a configured input rate, apply the paper's
  measurement rules (warm-up/cool-down trimming, retry-inclusive
  latency, 100-retry failure cap), and aggregate repeats with 95%
  confidence intervals.
* :mod:`repro.harness.parallel` — fan independent sweep points over
  worker processes (``--jobs N``) with deterministic, order-stable
  result assembly.
* :mod:`repro.harness.systems` — the registry of system factories, one
  per line in the paper's plots.
* :mod:`repro.harness.report` — plain-text series tables shaped like
  the paper's figures.
"""

from repro.harness.experiment import (
    ExperimentResult,
    ExperimentSettings,
    RepeatedResult,
    run_experiment,
    seed_schedule,
    slugify,
)
from repro.harness.parallel import (
    PointSpec,
    WorkloadSpec,
    default_jobs,
    run_point,
    run_points,
)
from repro.harness.report import SeriesTable, format_ms
from repro.harness.systems import SYSTEM_FACTORIES, make_system

__all__ = [
    "ExperimentResult",
    "ExperimentSettings",
    "PointSpec",
    "RepeatedResult",
    "SYSTEM_FACTORIES",
    "SeriesTable",
    "WorkloadSpec",
    "default_jobs",
    "format_ms",
    "make_system",
    "run_experiment",
    "run_point",
    "run_points",
    "seed_schedule",
    "slugify",
]
