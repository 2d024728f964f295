"""Reproductions of every table and figure in the paper's evaluation.

Every sweep is one row of the exhibit table in
:mod:`repro.experiments.exhibits`; ``exhibits.run(row, scale=...)``
returns the row's tables by key.  Table 1 is a probe measurement
(:mod:`repro.experiments.table1`).  From the command line::

    python -m repro.experiments fig7a --scale quick
    python -m repro.experiments fig11 --scale full
    python -m repro.experiments all --scale bench

Scales trade fidelity for wall-clock time (the paper's runs are 60 s,
repeated 10x, which costs hours of host CPU on a simulator):

* ``quick`` — smoke test: short runs, single repetition, sparse grids.
* ``bench`` — the defaults used by ``benchmarks/``: enough to read the
  shape (who wins, by what factor, where crossovers fall).
* ``full``  — the paper's durations, repetitions, and full grids.

The mapping from exhibits to rows lives in DESIGN.md; measured-vs-
paper numbers live in EXPERIMENTS.md.
"""

from repro.experiments.exhibits import SCALES, Scale

__all__ = ["SCALES", "Scale"]
