"""Behavior-identity fingerprints over transaction records.

A perf refactor of the protocol layer is only admissible if it is
*behavior bit-identical*: same decisions, same retries, same simulated
timestamps for every transaction.  The cheapest complete witness the
harness has is the :class:`~repro.txn.stats.TxnRecord` list — every
field of every record is a deterministic function of the run's seed and
the code under test, and the ``start``/``end`` floats encode the entire
timing behavior of the kernel, network, and protocol stack (a single
reordered message or extra RNG draw shifts them).

:func:`fingerprint_result` hashes the full record list of one
experiment into a sha256 hex digest.  Floats are rendered with
``repr`` so the digest is sensitive to the last ulp — two runs agree
iff their behavior is bit-identical.

:data:`RECIPES` names the pinned runs and :func:`pins` computes every
pin.  The expected digests live in ``tests/verify/FINGERPRINTS.json``
and are checked by ``tests/verify/test_fingerprint_pinned.py``; a
deliberate behaviour change re-pins them with::

    PYTHONPATH=src python -m repro.verify.fingerprint > tests/verify/FINGERPRINTS.json

and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.harness.experiment import ExperimentSettings
from repro.harness.parallel import PointSpec, WorkloadSpec, run_point
from repro.harness.systems import ALL_SYSTEMS
from repro.txn.stats import TxnRecord
from repro.workloads import YcsbTWorkload


def record_line(record: TxnRecord) -> str:
    """Canonical one-line rendering of a record (all fields, exact)."""
    return "|".join(
        (
            record.txn_id,
            record.priority.name,
            record.txn_type,
            repr(record.start),
            repr(record.end),
            str(record.retries),
            record.outcome.name,
            ",".join(record.abort_reasons),
        )
    )


def fingerprint_records(records: Iterable[TxnRecord]) -> str:
    """sha256 hex digest of a record sequence, order-sensitive."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_line(record).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def fingerprint_result(result) -> str:
    """Digest of an :class:`~repro.harness.experiment.ExperimentResult`.

    Covers every transaction the run completed (committed and failed,
    inside and outside the measurement window) in completion order.
    """
    return fingerprint_records(result.stats.records)


@dataclass(frozen=True)
class Recipe:
    """One pinned YCSB+T point: run length, seed, load and key space.

    A small key space forces contention, so the digest covers the
    abort, retry and priority paths, not just clean commits.
    """

    duration: float
    trim: float
    drain: float
    seed: int
    rate: int
    num_keys: int
    systems: Tuple[str, ...] = ALL_SYSTEMS

    def fingerprint(self, system: str) -> str:
        """Run ``system`` once under this recipe and digest its records."""
        settings = ExperimentSettings().scaled(
            duration=self.duration, trim=self.trim, drain=self.drain,
            seed=self.seed,
        )
        spec = PointSpec(
            system=system,
            x=self.rate,
            input_rate=float(self.rate),
            workload=WorkloadSpec.of(YcsbTWorkload, num_keys=self.num_keys),
            settings=settings,
            repeats=1,
        )
        return fingerprint_result(run_point(spec).results[0])


RECIPES: Dict[str, Recipe] = {
    # Every registered system.
    "main": Recipe(
        duration=2.0, trim=0.5, drain=4.0, seed=0, rate=80, num_keys=600
    ),
    # One shorter point per system family, at another seed and load.
    "fixture": Recipe(
        duration=1.0, trim=0.25, drain=3.0, seed=7, rate=60, num_keys=400,
        systems=("2PL+2PC", "TAPIR", "Carousel Basic", "Natto-RECSF"),
    ),
}


def pins() -> Dict[str, Dict[str, str]]:
    """Every pinned digest, keyed by recipe name, then system."""
    return {
        name: {
            system: recipe.fingerprint(system)
            for system in recipe.systems
        }
        for name, recipe in RECIPES.items()
    }


if __name__ == "__main__":
    print(json.dumps(pins(), indent=2))
