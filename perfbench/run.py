"""The repository benchmark: one workload, end-to-end or per-layer metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload natto-contended --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` runs the workload's shards, untraced, in fresh processes
(``worker.py``), one at a time, repeating them until ``--seconds`` of
host time have passed (at least one repeat), and prints every
end-to-end metric.  ``--trace 1`` runs each shard untraced, then with
per-layer spans, then shard 0 with the simulator's own tracing on, and
prints every per-layer metric.  Both check the outputs: the transaction
accounting identity, record-sink consistency, and that every execution
of a shard (repeat, traced or not) has the same sha256 record
fingerprint.  The last stdout line is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``attempted`` counts the simulated transactions submitted inside the
measurement windows and ``failed`` those of them that did not commit.
The exit code is 0 when every check passed, 1 when a check failed (the
result line still prints, with ``"correct": false``) and 2 when the run
could not be made at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from metrics import ABORT_REASONS, END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Setup samples per ``--trace 0`` run; executions that fall short of it
#: are topped up with set-up-only processes.
SETUP_SAMPLES = 5
#: Every run must end within this many seconds.
DEADLINE_S = 170.0


class RunError(Exception):
    """The benchmark could not run (missing tree, worker crash, timeout)."""


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload and print its metrics."
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="host seconds to keep repeating the shards")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test scale: one short shard")
    return parser.parse_args(argv)


class Bench:
    """One benchmark run: drives worker processes, checks and reports."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        if args.smoke:
            self.workload = self.workload.smoke()
        self.started = time.perf_counter()
        self.problems = []

    # -- workers ----------------------------------------------------------

    def execute(self, shard: int, mode: str) -> dict:
        remaining = DEADLINE_S - (time.perf_counter() - self.started)
        if remaining <= 0:
            raise RunError(f"out of time before shard {shard} ({mode})")
        command = [
            sys.executable, WORKER,
            "--workload", self.workload.name,
            "--seed", str(self.args.seed),
            "--shard", str(shard),
            "--mode", mode,
        ] + (["--smoke"] if self.args.smoke else [])
        try:
            done = subprocess.run(
                command, cwd=ROOT, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:
            raise RunError(f"shard {shard} ({mode}) ran out of time")
        if done.returncode != 0:
            raise RunError(
                f"shard {shard} ({mode}) exited {done.returncode}:\n"
                + done.stderr[-2000:]
            )
        result = json.loads(done.stdout.splitlines()[-1])
        for problem in result.get("problems", ()):
            self.problems.append(f"shard {shard} ({mode}): {problem}")
        return result

    def repeats_agree(self, runs: list, label: str) -> None:
        """Every execution of a shard must be the same simulation."""
        by_shard = {}
        for run in runs:
            by_shard.setdefault(run["shard"], []).append(run)
        for shard, group in sorted(by_shard.items()):
            first = group[0]["sim"]
            for other in group[1:]:
                keys = first.keys() & other["sim"].keys()
                if any(first[k] != other["sim"][k] for k in keys):
                    self.problems.append(
                        f"shard {shard}: {label} disagree "
                        f"({first['fingerprint'][:16]} vs "
                        f"{other['sim']['fingerprint'][:16]})"
                    )
            digests = sorted({run["sim"]["fingerprint"] for run in group})
            walls = " ".join(f"{run['mode']}={run['loop_wall_s']:.2f}s"
                             for run in group)
            print(f"shard {shard} seed {group[0]['seed']}: sha256 "
                  f"{' '.join(digests)}; Simulator.run wall {walls}")

    # -- the two kinds of run -------------------------------------------

    def end_to_end(self):
        shards = self.workload.shards
        self.execute(0, "setup")  # fills the bytecode cache; not measured
        runs = []
        clock_start = time.perf_counter()
        while (len(runs) <= shards
               or time.perf_counter() - clock_start < self.args.seconds):
            runs.append(self.execute(len(runs) % shards, "untraced"))
        setups = [run["setup_s"] for run in runs]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.execute(0, "setup")["setup_s"])
        self.repeats_agree(runs, "repeats")
        sims = first_per_shard(runs)
        walls = [
            statistics.median(r["loop_wall_s"] for r in runs
                              if r["shard"] == shard)
            for shard in range(shards)
        ]
        submitted = sum(s["submitted"] for s in sims)
        high = [x for s in sims for x in s["high_latencies_s"]]
        low = [x for s in sims for x in s["low_latencies_s"]]
        metrics = {
            "txn_per_wall_s": submitted / sum(walls),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
            "committed_frac": ratio(sum(s["window_committed"] for s in sims),
                                    sum(s["window_submitted"] for s in sims)),
            "attempts_per_txn": ratio(sum(s["attempts"] for s in sims),
                                      submitted),
            "p50_high_ms": 1000 * percentile(high, 50),
            "p95_low_ms": 1000 * percentile(low, 95),
        }
        notes = {
            "txn_per_wall_s": f"host; {submitted} submitted / sum over "
                              "shards of the median Simulator.run wall, "
                              f"{len(runs)} executions",
            "setup_s": f"host; median of {len(setups)} fresh processes, "
                       "import repro to first Simulator.run",
            "peak_rss_mb": "host; median ru_maxrss of the executions",
            "committed_frac": "simulated; committed / submitted inside the "
                              "measurement windows",
            "attempts_per_txn": "simulated; attempts / submitted",
            "p50_high_ms": "simulated (sandbox model, not validated against "
                           f"the paper's testbed); {sample_note(high, 50)}",
            "p95_low_ms": "simulated (sandbox model, not validated against "
                          f"the paper's testbed); {sample_note(low, 95)}",
        }
        return sims, metrics, notes

    def per_layer(self):
        shards = range(self.workload.shards)
        self.execute(0, "setup")  # fills the bytecode cache; not measured
        plain = [self.execute(shard, "untraced") for shard in shards]
        traced = [self.execute(shard, "traced") for shard in shards]
        obs = self.execute(0, "obs")
        self.repeats_agree(plain + traced + [obs],
                           "untraced, traced and obs-traced passes")
        sims = [run["sim"] for run in traced]
        calls, self_s = {}, {}
        for run in traced:
            for key, value in run["calls"].items():
                calls[key] = calls.get(key, 0) + value
            for key, value in run["self_s"].items():
                self_s[key] = self_s.get(key, 0.0) + value

        def total(key):
            return sum(s[key] for s in sims)

        plain_wall = sum(run["loop_wall_s"] for run in plain)
        messages = total("messages")
        probe_messages = (sum(run["probe_calls"] for run in traced)
                          + calls.get("probing.handle", 0))
        aborts = {reason: sum(s["aborts"].get(reason, 0) for s in sims)
                  for reason in ABORT_REASONS}
        unknown = {r for s in sims for r in s["aborts"]} - set(ABORT_REASONS)
        if unknown:
            self.problems.append(f"abort reasons not in the catalogue: "
                                 f"{sorted(unknown)}")
        metrics = {
            "sim.events": total("events"),
            "sim.cancels": total("cancels"),
            "sim.stalls": sum(s["stalled_at"] is not None for s in sims),
            "sim.self_s": self_s.get("sim", 0.0),
            "sim.events_per_wall_s": total("events") / plain_wall,
            "net.messages": messages,
            "net.bytes": total("bytes"),
            "net.dropped": total("dropped"),
            "net.probe_messages": probe_messages,
            "net.probe_share": ratio(probe_messages, messages),
            "net.messages_per_commit": ratio(messages, total("committed")),
            "net.send_s": self_s.get("net.send", 0.0),
            "probing.handle_s": self_s.get("probing.handle", 0.0),
            "probing.estimate_calls": calls.get("probing.estimate", 0),
            "probing.estimate_s": self_s.get("probing.estimate", 0.0),
            "raft.proposals": calls.get("raft.propose", 0),
            "raft.propose_s": self_s.get("raft.propose", 0.0),
            "raft.handler_calls": calls.get("raft.handler", 0),
            "raft.handler_s": self_s.get("raft.handler", 0.0),
            "raft.entries_per_wall_s":
                calls.get("raft.propose", 0) / plain_wall,
            "core.handler_calls": calls.get("core.handler", 0),
            "core.handler_s": self_s.get("core.handler", 0.0),
            "core.timestamp_s": self_s.get("core.timestamp", 0.0),
            "systems.execute_resumes": calls.get("systems.execute", 0),
            "systems.execute_s": self_s.get("systems.execute", 0.0),
            "carousel.handler_s": self_s.get("carousel.handler", 0.0),
            "twopl.handler_s": self_s.get("twopl.handler", 0.0),
            "tapir.handler_s": self_s.get("tapir.handler", 0.0),
            "client.event_s": self_s.get("client.event", 0.0),
            "store.calls": calls.get("store", 0),
            "store.s": self_s.get("store", 0.0),
            "cluster.clock_reads": calls.get("cluster.clock", 0),
            "cluster.clock_s": self_s.get("cluster.clock", 0.0),
            "cluster.service_s": self_s.get("cluster.service", 0.0),
            "workloads.txns": calls.get("workloads", 0),
            "workloads.s": self_s.get("workloads", 0.0),
            "txn.submitted": total("submitted"),
            "txn.committed": total("committed"),
            "txn.retry_exhausted": total("retry_exhausted"),
            "txn.unfinished": total("unfinished"),
            "txn.attempts": total("attempts"),
            "txn.failed_frac": 1.0 - ratio(total("window_committed"),
                                           total("window_submitted")),
            **{f"txn.aborts.{r}": n for r, n in aborts.items()},
            "txn.add_s": self_s.get("txn.add", 0.0),
            "txn.report_s": self_s.get("txn.report", 0.0),
            "harness.import_s": statistics.median(r["import_s"] for r in plain),
            "harness.build_s": statistics.median(r["build_s"] for r in plain),
            "obs.tracing_ratio": obs["loop_wall_s"] / plain[0]["loop_wall_s"],
            "bench.trace_overhead":
                sum(run["loop_wall_s"] for run in traced) / plain_wall,
            "bench.unattributed_s": sum(
                run["process_wall_s"] - run["pre_import_s"] - run["import_s"]
                - run["build_s"] - run["loop_wall_s"]
                - run["self_s"].get("txn.report", 0.0)
                for run in traced
            ),
        }
        notes = {
            "bench.trace_overhead": "traced / untraced Simulator.run wall; "
                                    "the *_s self times carry this overhead",
            "obs.tracing_ratio": "ExperimentSettings(tracing=True) / off, "
                                 "shard 0",
        }
        return sims, metrics, notes

    # -- the run ------------------------------------------------------------

    def run(self) -> int:
        w = self.workload
        print(f"perfbench {w.name} seed={self.args.seed} "
              f"trace={self.args.trace} seconds={self.args.seconds:g}")
        print("machine: " + json.dumps(machine_stamp(self.args.seed)))
        print(f"workload: {w.system}, {w.mix} zipf {w.zipf}, {w.rate:g} txn/s"
              f", loss {w.loss:.0%}, delay cv {w.delay_cv:g}; {w.shards} "
              f"shards x {w.load_s:g} s load (trim {w.trim_s:g} s, drain "
              f"{w.drain_s:g} s); open-loop Poisson arrivals scheduled on the "
              "simulated clock, so the generator is never late")
        if self.args.trace:
            sims, metrics, notes = self.per_layer()
            catalogue = PER_LAYER
        else:
            sims, metrics, notes = self.end_to_end()
            catalogue = END_TO_END
        for shard, s in enumerate(sims):
            if s["submitted"] != (s["committed"] + s["retry_exhausted"]
                                  + s["unfinished"]):
                self.problems.append("accounting identity does not hold")
            if s["stalled_at"] is not None:
                print(f"STALL: shard {shard}: the simulated clock stopped "
                      f"advancing at {s['stalled_at']!r} s (a timer re-armed "
                      "with a delay too small to move it); the run was "
                      "stopped there and its in-flight transactions count "
                      "as unfinished")
        print(f"accounting: submitted={sum(s['submitted'] for s in sims)} "
              f"committed={sum(s['committed'] for s in sims)} "
              f"retry_exhausted={sum(s['retry_exhausted'] for s in sims)} "
              f"unfinished={sum(s['unfinished'] for s in sims)} "
              "(submitted = committed + retry_exhausted + unfinished)")
        for name, value in metrics.items():
            unit = catalogue[name][0]
            note = notes.get(name)
            print(f"  {name:<26} {value:>16.6g} {unit}"
                  + (f"  [{note}]" if note else ""))
        for name, value in metrics.items():
            if not math.isfinite(value):
                self.problems.append(f"{name} is undefined ({value})")
                metrics[name] = None
        attempted = sum(s["window_submitted"] for s in sims)
        failed = attempted - sum(s["window_committed"] for s in sims)
        for problem in self.problems:
            print(f"CHECK FAILED: {problem}")
        correct = not self.problems
        print(json.dumps({
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": catalogue[name][0]}
                for name, value in metrics.items()
            },
        }))
        return 0 if correct else 1


def first_per_shard(runs: list) -> list:
    firsts = {}
    for run in runs:
        firsts.setdefault(run["shard"], run["sim"])
    return [firsts[shard] for shard in sorted(firsts)]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else float("nan")


def percentile(values: list, q: float) -> float:
    """Linear-interpolated percentile, as ``StatsCollector`` computes it."""
    import numpy

    return float(numpy.percentile(values, q)) if values else float("nan")


def sample_note(values: list, q: float) -> str:
    beyond = sum(1 for v in values if v > percentile(values, q))
    return f"n={len(values)}, {beyond} beyond p{q:g}"


def machine_stamp(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "reference_loop_ms": reference_loop_ms(),
    }


def reference_loop_ms() -> float:
    """Host speed right now: best of 5 timings of a fixed Python loop.

    Not a metric.  This 2-vCPU box switches between speed regimes about
    1.4x apart for minutes at a time; printing this next to the host
    metrics shows which regime a run met (about 26 ms fast, 36 ms slow).
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return round(1000 * best, 1)


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no simulator source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    try:
        return Bench(args).run()
    except RunError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
