"""The benchmark's workloads: which system runs which inputs, and for how long.

This module imports nothing from ``repro`` so the orchestrator can read
the table without paying for (or depending on) the simulator's import.
Every workload is an open-loop Poisson arrival process on the simulated
clock: 2 clients in each of the 5 Azure datacenters, immediate retry,
100-attempt retry budget (paper §5.1, as implemented by
``repro.systems.client.ClientDriver``).

A run of one workload is split into ``shards``: independent simulations
with seeds derived from the run's ``--seed`` through
``repro.harness.experiment.seed_schedule``.  Pooling shards gives the
simulated percentiles enough samples without the super-linear cost of
one long overloaded run (a 10 s ``natto-contended`` load costs 2.3x a
6 s one, because its backlog keeps growing).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    #: System label, as registered in ``repro.harness.systems``.
    system: str
    #: ``"ycsbt"`` (6 read-modify-writes) or ``"retwis"`` (the Retwis mix).
    mix: str
    zipf: float
    #: Transaction input rate across all clients, txn/s (simulated).
    rate: float
    #: Simulated seconds of load generation per shard.
    load_s: float
    shards: int
    #: Per-segment packet loss share (the Figure 12 knob).
    loss: float = 0.0
    #: Network delay std/mean (the Figure 11 knob).
    delay_cv: float = 0.0
    #: Simulated seconds trimmed from both ends of the load span.
    trim_s: float = 0.5
    #: Simulated seconds the run continues after the last arrival.
    drain_s: float = 6.0
    why: str = ""

    def smoke(self) -> "Workload":
        """The same workload at self-test scale: one short shard."""
        return Workload(
            self.name, self.system, self.mix, self.zipf, self.rate,
            load_s=1.5, shards=1, loss=self.loss, delay_cv=self.delay_cv,
            trim_s=0.25, drain_s=1.0, why=self.why,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "natto-contended", "Natto-RECSF", "ycsbt", zipf=0.95, rate=50,
            load_s=4.0, shards=4,
            why="Fig 8(a)'s hardest point: retry churn through the Natto "
                "priority-abort, CP and RECSF paths",
        ),
        Workload(
            "natto-lossy", "Natto-RECSF", "ycsbt", zipf=0.65, rate=100,
            load_s=5.0, shards=3, loss=0.01, delay_cv=0.2,
            why="the only workload on the loss, Mathis-pipe and Pareto "
                "jitter paths; probes are half the messages",
        ),
        Workload(
            "twopl-retwis", "2PL+2PC", "retwis", zipf=0.65, rate=500,
            load_s=4.0, shards=3,
            why="Raft and the lock table on every access, no Natto core: "
                "the bypass workload for probe and core changes",
        ),
        Workload(
            "tapir-retwis", "TAPIR", "retwis", zipf=0.65, rate=500,
            load_s=5.0, shards=3,
            why="no Raft and no probes: the bypass workload for Raft "
                "changes and the only one on repro.systems.tapir",
        ),
    )
}
