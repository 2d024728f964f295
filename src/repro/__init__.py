"""natto-repro: a reproduction of Natto (SIGMOD 2022).

Natto is a geo-distributed transactional key-value store with
transaction prioritization: clients stamp transactions with
network-measurement-based arrival-time timestamps, servers process them
in timestamp order, and four mechanisms built on that order (priority
abort, conditional prepare, local/remote early committed state
forwarding) cut the high-priority tail latency under contention.

This package contains the full system and everything its evaluation
depends on, all running on a deterministic discrete-event simulator:

========================  ==============================================
``repro.sim``             event kernel, coroutines, seeded randomness
``repro.net``             simulated WAN (Table 1 delays, jitter, loss),
                          probing (Domino-style delay estimation)
``repro.cluster``         clocks, CPU model, partitioning, placement
``repro.raft``            Raft replication groups
``repro.store``           versioned KV, OCC prepared sets, lock table
``repro.txn``             2FI transactions, priorities, measurements
``repro.core``            **Natto** (TS/LECSF/PA/CP/RECSF variants)
``repro.systems``         Carousel Basic/Fast, TAPIR, 2PL+2PC(+P/POW)
``repro.workloads``       YCSB+T, Retwis, SmallBank
``repro.harness``         experiment runner and reporting
``repro.verify``          conflict-serializability checking
``repro.experiments``     the exhibit table (one row per sweep) + CLI
========================  ==============================================

Quick start: see ``examples/quickstart.py`` and the README.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
