"""Parallel experiment execution: fan sweep points over worker processes.

Every figure in the paper is a sweep over (system × x-value × seed)
points, and each point is an independent, deterministic discrete-event
run — embarrassingly parallel work that the serial sweep loop left on
the table.  This module turns a sweep into a flat list of
:class:`PointSpec` objects, runs them over a
:class:`~concurrent.futures.ProcessPoolExecutor`, and reassembles the
:class:`~repro.harness.experiment.RepeatedResult` list in submission
order, so tables built from a parallel sweep are byte-identical to the
serial ones.

Determinism contract
--------------------
* A point's outcome depends only on its spec (system, workload recipe,
  rate, settings, seed schedule) — never on scheduling, worker count,
  or completion order.
* Results are reassembled in spec order regardless of completion order.
* Workers return :meth:`~repro.harness.experiment.ExperimentResult.detach`-ed
  results; metric queries on a detached result reproduce the in-process
  answers exactly (the stats indexes are rebuilt from the same records).
* ``jobs=1`` (or a single spec) short-circuits to today's in-process
  loop — no worker processes, no pickling.

Everything in a :class:`PointSpec` must be picklable: systems are named
by their registry label (or any picklable zero-argument factory, e.g. a
``functools.partial``), and workloads travel as :class:`WorkloadSpec`
recipes instead of closures.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence

from repro.harness.experiment import (
    ExperimentSettings,
    RepeatedResult,
    run_experiment,
    seed_schedule,
)
from repro.harness.systems import make_system


def usable_cpus() -> int:
    """Cores this process may actually run on (cgroup/affinity aware).

    ``os.cpu_count()`` reports the machine; a container or ``taskset``
    allowance can be far smaller, and oversubscribing it makes the
    parallel path *slower* than serial (workers time-slice one core
    while paying process startup).
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # platforms without affinity (macOS, Windows)
        return os.cpu_count() or 1


def default_jobs() -> int:
    """Worker-count default for ``--jobs``: every usable core."""
    return usable_cpus()


@dataclass(frozen=True)
class WorkloadSpec:
    """Picklable recipe for a workload factory.

    The sweep machinery can't ship ``lambda rng: YcsbTWorkload(rng)``
    closures to worker processes, so workloads travel as (class, kwargs)
    pairs; :meth:`factory` rebuilds the closure on the worker side.

    ``uniform_keys`` covers the one constructor argument that needs the
    run's own RNG (Figure 14's ``UniformKeys`` chooser) — it is rebuilt
    per run from the generator handed to the factory.
    """

    cls: type
    kwargs: tuple = ()
    uniform_keys: Optional[int] = None

    @classmethod
    def of(cls, workload_cls: type, uniform_keys: Optional[int] = None,
           **kwargs: Any) -> "WorkloadSpec":
        return cls(workload_cls, tuple(kwargs.items()), uniform_keys)

    def factory(self) -> Callable:
        workload_cls = self.cls
        kwargs = dict(self.kwargs)
        if self.uniform_keys is None:
            return lambda rng: workload_cls(rng, **kwargs)
        num_keys = self.uniform_keys

        def factory_with_chooser(rng):
            from repro.workloads import UniformKeys

            return workload_cls(
                rng, key_chooser=UniformKeys(num_keys, rng), **kwargs
            )

        return factory_with_chooser


@dataclass(frozen=True)
class PointSpec:
    """One sweep point: everything a worker needs to run it.

    ``system`` is a registry label (resolved through
    :func:`~repro.harness.systems.make_system`) or any picklable
    zero-argument factory — e.g. ``functools.partial(Natto, config)``
    for the ablation sweeps that run unregistered variants.
    """

    system: Any
    x: Any
    input_rate: float
    workload: WorkloadSpec
    settings: ExperimentSettings = field(default_factory=ExperimentSettings)
    repeats: int = 1

    def system_factory(self) -> Callable:
        system = self.system
        if isinstance(system, str):
            return lambda: make_system(system)
        return system

    def label(self) -> str:
        name = self.system if isinstance(self.system, str) else "<factory>"
        return f"{name} @ {self.x}"


def run_point(spec: PointSpec) -> RepeatedResult:
    """Run every repetition of one point in-process, returning detached
    (transportable) results.

    Repetition seeds come from :func:`~repro.harness.experiment.seed_schedule`,
    which derives a collision-free seed for every (base seed,
    repetition) pair.  This is both the worker entry point and the
    ``jobs=1`` path, so the two produce literally the same object graph.
    """
    system_factory = spec.system_factory()
    workload_factory = spec.workload.factory()
    results = [
        run_experiment(
            system_factory,
            workload_factory,
            spec.input_rate,
            spec.settings.scaled(seed=seed),
        ).detach()
        for seed in seed_schedule(spec.settings.seed, spec.repeats)
    ]
    return RepeatedResult(results[0].system_name, spec.input_rate, results)


def run_points(
    specs: Sequence[PointSpec],
    jobs: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[RepeatedResult]:
    """Run every spec; return results in spec order.

    ``jobs=None`` uses :func:`default_jobs` (all cores); ``jobs=1``
    preserves the serial in-process path.  The executor path submits
    every spec up front and collects in submission order, so the
    returned list — and anything built from it — is independent of
    completion order.
    """
    specs = list(specs)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    # Parallelism has to beat two fixed costs before it helps: each
    # worker's startup (process spawn + imports) and the host's real
    # concurrency.  Cap the pool at half the point count — a worker
    # hired for a single point rarely amortizes its startup — and at
    # the cores this process may actually use; ignoring either made
    # the parallel smoke sweep ~10% slower than serial.
    jobs = min(jobs, len(specs) // 2, usable_cpus())
    if jobs <= 1 or len(specs) <= 1:
        results = []
        for index, spec in enumerate(specs):
            results.append(run_point(spec))
            if progress is not None:
                progress(f"[{index + 1}/{len(specs)}] {spec.label()}")
        return results
    results = []
    with ProcessPoolExecutor(max_workers=min(jobs, len(specs))) as pool:
        futures = [pool.submit(run_point, spec) for spec in specs]
        for index, (spec, future) in enumerate(zip(specs, futures)):
            results.append(future.result())
            if progress is not None:
                progress(f"[{index + 1}/{len(specs)}] {spec.label()}")
    return results
