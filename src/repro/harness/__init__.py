"""Parallel experiment harness: sweep points, result cache, goldens.

Every figure/table module in :mod:`repro.experiments` declares a
:class:`~repro.harness.points.SweepSpec` named ``SWEEP``: the list of
pure, picklable sweep points that make up the experiment, how to
extract its named scalar quantities, and the paper claims its results
must bear out.  On top of that declaration this package provides:

* :mod:`repro.harness.runner` — fan the points out over a
  ``multiprocessing`` worker pool (``--jobs N``), or run them inline
  and assembled (``run_assembled``, the serial ``ldlp-experiment
  <name>`` form);
* :mod:`repro.harness.cache` — an on-disk result cache keyed by a
  content hash of (point function, parameters, every source file of
  the package) so unchanged points are never recomputed;
* :mod:`repro.harness.golden` — the regression gate: checked-in
  per-point result digests under ``goldens/``, compared exactly by
  ``ldlp-experiment regress``, which also checks every
  :class:`~repro.harness.points.Claim` of the spec and, when a digest
  moves, lists the reported quantities that moved with it.

The harness computes and gates results; the simulator's own wall clock
is measured by ``simbench/``.
"""

from .cache import ResultCache, content_key, package_digest
from .golden import Golden, bless, check_claims, check_digests, load_golden
from .points import Claim, SweepPoint, SweepSpec
from .registry import all_specs, get_spec
from .runner import ExperimentRun, run_assembled, run_experiment

__all__ = [
    "Claim",
    "ExperimentRun",
    "Golden",
    "ResultCache",
    "SweepPoint",
    "SweepSpec",
    "all_specs",
    "bless",
    "check_claims",
    "check_digests",
    "content_key",
    "get_spec",
    "load_golden",
    "package_digest",
    "run_assembled",
    "run_experiment",
]
