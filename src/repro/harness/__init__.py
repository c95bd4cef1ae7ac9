"""Parallel experiment harness: sweep points, result cache, goldens.

Every figure/table module in :mod:`repro.experiments` declares a
:class:`~repro.harness.points.SweepSpec` named ``SWEEP``: the list of
pure, picklable sweep points that make up the experiment, how to
extract its paper-expected scalar quantities, and which source modules
its results depend on.  On top of that declaration this package
provides:

* :mod:`repro.harness.runner` — fan the points out over a
  ``multiprocessing`` worker pool (``--jobs N``), with per-point
  wall-clock timing, or inline and assembled (``run_assembled``, the
  serial ``ldlp-experiment <name>`` form);
* :mod:`repro.harness.cache` — an on-disk result cache keyed by a
  content hash of (point function, parameters, repro version, relevant
  source files) so unchanged points are never recomputed;
* :mod:`repro.harness.golden` — a golden-figure regression gate:
  checked-in expected quantities with tolerances under ``goldens/``,
  compared by ``ldlp-experiment regress``;
* :mod:`repro.harness.bench` — the ``BENCH_experiments.json`` writer
  recording per-experiment timings, speedups, and cache hit rates.
"""

from .bench import write_bench
from .cache import ResultCache, content_key, source_digest
from .golden import GoldenBreach, bless, check_quantities, load_golden
from .points import SweepPoint, SweepSpec, Tolerance
from .registry import all_specs, get_spec
from .runner import ExperimentRun, run_assembled, run_experiment

__all__ = [
    "ExperimentRun",
    "write_bench",
    "GoldenBreach",
    "ResultCache",
    "SweepPoint",
    "SweepSpec",
    "Tolerance",
    "all_specs",
    "bless",
    "check_quantities",
    "content_key",
    "get_spec",
    "load_golden",
    "run_assembled",
    "run_experiment",
    "source_digest",
]
