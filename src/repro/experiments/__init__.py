"""Reproduction harnesses: one module per table/figure of the paper.

Every module declares a :class:`~repro.harness.points.SweepSpec` named
``SWEEP``, whose ``claims`` state what the paper says the results
show.  Swept experiments rebuild a structured result (a ``render()``
text table) with the spec's ``assemble``; the single-computation analyses (tables 1-3,
Figure 1) return one from ``run(seed)``, and the schedules module
prints Figures 2/3 from ``main()``.  The ``ldlp-experiment`` CLI (see
:mod:`repro.experiments.cli`) drives them from the shell.
"""

from . import (
    ablations,
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    motivation,
    schedules,
    table1,
    table2,
    table3,
)

__all__ = [
    "ablations",
    "figure1",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "motivation",
    "schedules",
    "table1",
    "table2",
    "table3",
]
