"""One execution of one benchmark shard, in a fresh process.

Run by ``run.py``; prints one JSON object as its last stdout line::

    python3 perfbench/worker.py --workload natto-lossy --seed 3 --shard 0 \
        --mode untraced

Modes:

* ``untraced`` — accounting wrappers only (:class:`layers.Ledger`); the
  end-to-end host metrics come from this mode.
* ``traced`` — plus per-layer spans (:class:`layers.Spans`).
* ``obs`` — the simulator's own span tracing on
  (``ExperimentSettings(tracing=True)``), for ``obs.tracing_ratio``.
* ``setup`` — stop at the first entry into ``Simulator.run``: one more
  ``setup_s`` sample without running the load.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
MODES = ("untraced", "traced", "obs", "setup")


class _SetupDone(Exception):
    """Raised at the first ``Simulator.run`` entry in ``setup`` mode."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="the run's seed; shards derive their own")
    parser.add_argument("--shard", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test scale (one short shard)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, HERE)
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.smoke:
        workload = workload.smoke()

    t_import = time.perf_counter()
    from repro.harness import systems as registry
    from repro.harness.experiment import (
        ExperimentSettings,
        run_experiment,
        seed_schedule,
    )
    from repro.net.loss import LossConfig
    from repro.txn.priority import Priority
    from repro.txn.stats import TxnOutcome
    from repro.verify.fingerprint import fingerprint_records, fingerprint_result
    from repro.workloads import RetwisWorkload, YcsbTWorkload

    import layers

    t_imported = time.perf_counter()

    patcher = layers.Patcher()
    ledger = layers.Ledger()
    ledger.install(patcher, count_cancels=args.mode in ("traced", "obs"))
    spans = None
    if args.mode == "traced":
        spans = layers.Spans()
        spans.install(patcher)
    if args.mode == "setup":
        ledger.stop_at_run = _SetupDone()

    seed = seed_schedule(args.seed, workload.shards)[args.shard]
    config = ExperimentSettings().system_config.with_overrides(
        loss=LossConfig(loss_rate=workload.loss),
        delay_variance_cv=workload.delay_cv,
    )
    settings = ExperimentSettings(
        system_config=config,
        duration=workload.load_s,
        trim=workload.trim_s,
        drain=workload.drain_s,
        seed=seed,
        tracing=args.mode == "obs",
        trace_dir=None,
    )
    mix = {"ycsbt": YcsbTWorkload, "retwis": RetwisWorkload}[workload.mix]

    def make_workload(rng):
        return mix(rng, zipf_theta=workload.zipf)

    def make_system():
        return ledger.count_attempts(registry.make_system(workload.system))

    try:
        result = run_experiment(make_system, make_workload, workload.rate,
                                settings)
    except _SetupDone:
        result = None

    out = {
        "workload": workload.name,
        "shard": args.shard,
        "seed": seed,
        "mode": args.mode,
        "import_s": t_imported - t_import,
        "setup_s": ledger.run_entered_at - t_import,
        "build_s": ledger.run_entered_at - t_imported,
    }
    if result is None:
        print(json.dumps(out))
        return 0

    # -- accounting, from outside -------------------------------------
    records = ledger.records
    window = result.window
    recorded = {r.txn_id for r in records}
    unfinished = [t for t in ledger.submitted if t not in recorded]
    committed = sum(1 for r in records if r.outcome is TxnOutcome.COMMITTED)
    exhausted = sum(1 for r in records if r.outcome is TxnOutcome.FAILED)
    problems = []
    if len(recorded) != len(records):
        problems.append("a transaction was recorded twice")
    if not recorded <= set(ledger.submitted):
        problems.append("a record has no submitted transaction")
    if len(ledger.submitted) != committed + exhausted + len(unfinished):
        problems.append("submitted != committed + exhausted + unfinished")
    inflight = sum(client.inflight for client in ledger.clients)
    if inflight != len(unfinished):
        problems.append(f"clients report {inflight} in flight, "
                        f"ledger {len(unfinished)} unfinished")
    crashed = sum(
        1 for _, process in ledger.submitted.values()
        if process.done and process.exception is not None
    )
    if crashed:
        problems.append(f"{crashed} transaction processes raised")
    if records != result.stats.records:
        problems.append("record sink and StatsCollector.records differ")
    for r in records:
        failed_attempts = r.retries + (r.outcome is TxnOutcome.FAILED)
        if r.end < r.start or len(r.abort_reasons) != failed_attempts:
            problems.append(f"inconsistent record {r.txn_id}")
            break
    fingerprint = fingerprint_result(result)
    if fingerprint != fingerprint_records(records):
        problems.append("fingerprint of the sink differs from the result's")

    def in_window(start):
        return window[0] <= start < window[1]

    stats = result.stats
    high = [r.latency for r in stats.committed(Priority.HIGH, window)]
    low = [r.latency for r in stats.committed(Priority.LOW, window)]
    aborts = {}
    for r in records:
        for reason in r.abort_reasons:
            aborts[reason] = aborts.get(reason, 0) + 1
    network = ledger.networks[0]
    out.update(
        loop_wall_s=ledger.loop_wall_s,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        problems=problems,
        # Deterministic for a fixed seed: repeats must agree exactly.
        sim={
            "fingerprint": fingerprint,
            "submitted": len(ledger.submitted),
            "committed": committed,
            "retry_exhausted": exhausted,
            "unfinished": len(unfinished),
            "attempts": ledger.attempts,
            "window_submitted": sum(
                1 for start, _ in ledger.submitted.values()
                if in_window(start)
            ),
            "window_committed": sum(
                1 for r in records
                if r.outcome is TxnOutcome.COMMITTED and in_window(r.start)
            ),
            "high_latencies_s": high,
            "low_latencies_s": low,
            "aborts": aborts,
            "messages": network.messages_sent,
            "bytes": network.bytes_sent,
            "dropped": network.messages_dropped,
            "stalled_at": ledger.stalled_at,
        },
    )
    if args.mode in ("traced", "obs"):
        out["sim"]["events"] = ledger.events_fired()
        out["sim"]["cancels"] = ledger.cancels
    if args.mode == "obs":
        fired = result.obs.metrics.counter("sim.events_fired").value
        if int(fired) != out["sim"]["events"]:
            problems.append(f"kernel fired {int(fired)} events, "
                            f"ledger counted {out['sim']['events']}")
    if spans is not None:
        # Stop timing before the bookkeeping below.
        patcher.restore()
        out["calls"] = dict(spans.calls)
        out["self_s"] = dict(spans.self_s)
        out["probe_calls"] = spans.probe_calls
        out["process_wall_s"] = time.perf_counter() - T_START
        out["pre_import_s"] = t_import - T_START
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
