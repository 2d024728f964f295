"""Smoke-scale self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at self-test scale (one 1.5 s shard) with
``--trace 0`` and ``--trace 1`` and checks that:

* ``BENCHMARK.json`` lists exactly the workloads of ``workloads.py`` and
  the metrics of ``metrics.py``, with the same units and directions;
* every metric name matches ``[A-Za-z0-9_.-]+``;
* the abort-reason list matches ``repro.obs.abort.AbortReason``;
* every run exits 0 and its last line is a JSON object with exactly
  ``correct``, ``attempted``, ``failed`` and ``metrics``, ``correct`` is
  true and the metric names are exactly the catalogue's;
* the printed accounting satisfies submitted = committed +
  retry-exhausted + unfinished;
* the result line survives a strict JSON round trip;
* without the simulator source beside it the benchmark exits non-zero
  and prints no result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import ABORT_REASONS, END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
ACCOUNTING = re.compile(
    r"accounting: submitted=(\d+) committed=(\d+) "
    r"retry_exhausted=(\d+) unfinished=(\d+)"
)


class SelfTest:
    def __init__(self) -> None:
        self.failures = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"FAIL: {message}")

    def catalogue(self) -> None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        self.check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
                   "BENCHMARK.json workloads differ from workloads.py")
        for key, catalogue in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
            listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
            self.check(listed == catalogue,
                       f"BENCHMARK.json {key} differs from metrics.py")
        for name in list(END_TO_END) + list(PER_LAYER):
            self.check(NAME.fullmatch(name) is not None,
                       f"bad metric name {name!r}")
        sys.path.insert(0, os.path.join(ROOT, "src"))
        from repro.obs.abort import AbortReason

        self.check(
            set(ABORT_REASONS) == {r.value for r in AbortReason},
            "metrics.ABORT_REASONS differs from repro's AbortReason",
        )

    def run(self, workload: str, trace: int) -> None:
        label = f"{workload} --trace {trace}"
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.check(done.returncode == 0,
                   f"{label} exited {done.returncode}: {done.stderr[-500:]}")
        lines = done.stdout.splitlines()
        if not lines:
            self.check(False, f"{label} printed nothing")
            return
        result = json.loads(lines[-1])
        self.check(
            sorted(result) == ["attempted", "correct", "failed", "metrics"],
            f"{label}: result keys {sorted(result)}",
        )
        self.check(result["correct"] is True, f"{label}: not correct")
        self.check(
            isinstance(result["attempted"], int) and result["attempted"] >= 1
            and isinstance(result["failed"], int)
            and 0 <= result["failed"] <= result["attempted"],
            f"{label}: attempted/failed {result['attempted']}, "
            f"{result['failed']}",
        )
        catalogue = PER_LAYER if trace else END_TO_END
        metrics = result["metrics"]
        self.check(list(metrics) == list(catalogue),
                   f"{label}: metric names differ from the catalogue")
        for name, entry in metrics.items():
            value = entry["value"]
            self.check(
                isinstance(value, (int, float)) and math.isfinite(value)
                and entry["unit"] == catalogue[name][0],
                f"{label}: {name} = {entry}",
            )
        match = next(filter(None, map(ACCOUNTING.search, lines)), None)
        if match is None:
            self.check(False, f"{label}: no accounting line")
        else:
            submitted, committed, exhausted, unfinished = map(
                int, match.groups()
            )
            self.check(submitted == committed + exhausted + unfinished,
                       f"{label}: accounting identity fails")
        text = json.dumps(result, allow_nan=False)
        self.check(json.loads(text) == result, f"{label}: JSON round trip")
        print(f"ok: {label} ({len(metrics)} metrics, "
              f"attempted={result['attempted']})")

    def without_source(self) -> None:
        """Only the benchmark's files: it must refuse to produce a result."""
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 next(iter(WORKLOADS)), "--seed", "1", "--seconds", "1",
                 "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        self.check(done.returncode != 0 and '"correct"' not in done.stdout,
                   "the benchmark ran without the simulator source")
        print("ok: without the simulator source the run is refused")


def main() -> int:
    test = SelfTest()
    test.catalogue()
    for workload in WORKLOADS:
        for trace in (0, 1):
            test.run(workload, trace)
    test.without_source()
    if test.failures:
        print(f"{len(test.failures)} check(s) failed")
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
