"""Reproduction harnesses: one module per table/figure of the paper.

Every module declares a :class:`~repro.harness.points.SweepSpec` named
``SWEEP``: its sweep points, the text table it renders from their
results (``render(points, results)``), its golden quantities, and the
``claims`` that state what the paper says the results show.  Render,
quantities and claims are module functions over
:func:`~repro.experiments.report.point_rows` — each point's params
and decoded result, in declared order — so there are no per-experiment
result classes.  The ``ldlp-experiment`` CLI (see
:mod:`repro.experiments.cli`) prints any experiment's table from the
shell.

Submodules are imported on demand (``from repro.experiments import
figure7``; the registry and ``SweepPoint.resolve`` use
``import_module``), so importing one experiment does not import the
others.
"""
