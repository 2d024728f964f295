"""Command-line entry point for the experiment suite.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig7a --scale quick
    python -m repro.experiments fig7a --systems "Natto-RECSF" "Carousel Basic"
    python -m repro.experiments all --scale bench
    python -m repro.experiments fig11 --scale full   # paper-scale (slow!)
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, Tuple

from repro.experiments import table1
from repro.experiments.exhibits import ROWS, SCALES, run
from repro.harness.systems import ALL_SYSTEMS

#: Exhibit name -> the exhibit-table rows it regenerates.  ``table1`` is
#: a probe measurement, not a sweep.
EXHIBITS: Dict[str, Tuple[str, ...]] = {
    "table1": (),
    "ablations": ("abl-margin", "abl-skip-rule", "abl-probes"),
    **{name: (name,) for name in ROWS if name.startswith("fig")},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "exhibit",
        choices=sorted(EXHIBITS) + ["all"],
        help="which exhibit to regenerate",
    )
    parser.add_argument(
        "--scale",
        choices=tuple(SCALES),
        default="bench",
        help="run length/repetitions preset (default: bench)",
    )
    parser.add_argument(
        "--systems",
        nargs="+",
        choices=ALL_SYSTEMS,
        metavar="SYSTEM",
        default=None,
        help="restrict to a subset of systems (paper labels: "
        + ", ".join(ALL_SYSTEMS) + ")",
    )
    parser.add_argument(
        "--trace",
        metavar="DIR",
        default=None,
        help="enable tracing and export one .trace.jsonl per run into "
        "DIR (inspect with python -m repro.trace)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for sweep points (default: all cores; "
        "1 = run in-process). Results are identical at any job count.",
    )
    args = parser.parse_args(argv)

    names = sorted(EXHIBITS) if args.exhibit == "all" else [args.exhibit]
    for name in names:
        started = time.time()
        print(f"\n##### {name} (scale={args.scale}) #####")
        if name == "table1":
            table1.run()
        for row in EXHIBITS[name]:
            tables = run(
                ROWS[row],
                args.scale,
                args.systems,
                jobs=args.jobs,
                trace_dir=args.trace,
            )
            for table in tables.values():
                table.print()
        print(f"##### {name} done in {time.time() - started:.0f}s #####")
    return 0


if __name__ == "__main__":
    sys.exit(main())
