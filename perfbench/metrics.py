"""The benchmark's metric catalogue: name -> (unit, better).

``BENCHMARK.json`` mirrors these lists; ``selftest.py`` checks that the
two agree and that every run prints exactly these names.  For a count of
work a layer does, ``lower`` means less work for the same simulated
outcome; the transaction counts that only the seed sets
(``txn.submitted``, ``workloads.txns``) read ``higher``.
"""

from __future__ import annotations

#: Values of ``repro.obs.abort.AbortReason``; the self-test checks the
#: list against the enum.
ABORT_REASONS = (
    "LOCK_CONFLICT",
    "OCC_CONFLICT",
    "STALE_READ",
    "TIMESTAMP_MISS",
    "PREEMPTED",
    "CONDITION_FAILED",
    "PACKET_LOSS_TIMEOUT",
    "VOLUNTARY",
    "RETRY_EXHAUSTED",
    "UNKNOWN",
)

#: Printed with ``--trace 0``.  Host metrics are measured on the machine
#: running the benchmark; the others are read off the simulated clock
#: and repeat exactly for a fixed seed.
END_TO_END = {
    "txn_per_wall_s": ("txn/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "committed_frac": ("ratio", "higher"),
    "attempts_per_txn": ("ratio", "lower"),
    "p50_high_ms": ("ms", "lower"),
    "p95_low_ms": ("ms", "lower"),
}

#: Printed with ``--trace 1``.  ``*_s`` are host self times (a span minus
#: its child spans); counts are deterministic.
PER_LAYER = {
    "sim.events": ("count", "lower"),
    "sim.cancels": ("count", "lower"),
    "sim.stalls": ("count", "lower"),
    "sim.self_s": ("s", "lower"),
    "sim.events_per_wall_s": ("events/s", "higher"),
    "net.messages": ("count", "lower"),
    "net.bytes": ("bytes", "lower"),
    "net.dropped": ("count", "lower"),
    "net.probe_messages": ("count", "lower"),
    "net.probe_share": ("ratio", "lower"),
    "net.messages_per_commit": ("ratio", "lower"),
    "net.send_s": ("s", "lower"),
    "probing.handle_s": ("s", "lower"),
    "probing.estimate_calls": ("count", "lower"),
    "probing.estimate_s": ("s", "lower"),
    "raft.proposals": ("count", "lower"),
    "raft.propose_s": ("s", "lower"),
    "raft.handler_calls": ("count", "lower"),
    "raft.handler_s": ("s", "lower"),
    "raft.entries_per_wall_s": ("entries/s", "higher"),
    "core.handler_calls": ("count", "lower"),
    "core.handler_s": ("s", "lower"),
    "core.timestamp_s": ("s", "lower"),
    "systems.execute_resumes": ("count", "lower"),
    "systems.execute_s": ("s", "lower"),
    "carousel.handler_s": ("s", "lower"),
    "twopl.handler_s": ("s", "lower"),
    "tapir.handler_s": ("s", "lower"),
    "client.event_s": ("s", "lower"),
    "store.calls": ("count", "lower"),
    "store.s": ("s", "lower"),
    "cluster.clock_reads": ("count", "lower"),
    "cluster.clock_s": ("s", "lower"),
    "cluster.service_s": ("s", "lower"),
    "workloads.txns": ("count", "higher"),
    "workloads.s": ("s", "lower"),
    "txn.submitted": ("count", "higher"),
    "txn.committed": ("count", "higher"),
    "txn.retry_exhausted": ("count", "lower"),
    "txn.unfinished": ("count", "lower"),
    "txn.attempts": ("count", "lower"),
    "txn.failed_frac": ("ratio", "lower"),
    **{f"txn.aborts.{reason}": ("count", "lower") for reason in ABORT_REASONS},
    "txn.add_s": ("s", "lower"),
    "txn.report_s": ("s", "lower"),
    "harness.import_s": ("s", "lower"),
    "harness.build_s": ("s", "lower"),
    "obs.tracing_ratio": ("ratio", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
    "bench.unattributed_s": ("s", "lower"),
}
