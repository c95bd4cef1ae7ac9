"""Fan an experiment's sweep points out over a worker pool.

Sweep points are pure functions of their parameters, so they
parallelize trivially: uncached points are mapped over a
``multiprocessing`` pool (``jobs > 1``) or executed inline
(``jobs == 1``), and results are keyed by point key *in declared
order*, so the serialized results of a run are byte-identical at any
worker count.  The run's wall clock is printed in its timing line and
never enters a result; the simulator's own speed is measured by
``simbench/``.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any

from ..errors import ConfigurationError
from .cache import ResultCache, content_key
from .points import SweepPoint, SweepSpec


@dataclass
class ExperimentRun:
    """Outcome of one harness run of one experiment."""

    name: str
    points: list[SweepPoint]
    results: dict[str, Any]  # point key -> result, in declared order
    cache_hits: int
    computed: int
    wall_s: float

    @property
    def hit_rate(self) -> float:
        """Fraction of points served from the result cache."""
        total = len(self.points)
        return self.cache_hits / total if total else 0.0

    def quantities(self, spec: SweepSpec) -> dict[str, float]:
        """The experiment's named golden quantities from this run."""
        return spec.quantities(self.points, self.results)

    def timing_summary(self) -> str:
        """One line of run timings (points, cache hits, wall clock)."""
        return (
            f"{self.name}: {len(self.points)} points, "
            f"{self.cache_hits} cached ({100 * self.hit_rate:.0f}%), "
            f"{self.computed} computed in {self.wall_s:.2f}s wall"
        )


def run_experiment(
    spec: SweepSpec,
    scale: str = "ci",
    jobs: int = 1,
    cache: ResultCache | None = None,
) -> ExperimentRun:
    """Run one experiment's sweep, using the cache and a worker pool.

    Results are returned keyed by point key in the order the spec
    declared the points, independent of the completion order in the
    pool — a run at ``jobs=4`` serializes identically to ``jobs=1``.
    """
    if jobs < 1:
        raise ConfigurationError(f"jobs must be >= 1, got {jobs}")
    cache = cache if cache is not None else ResultCache()
    points = spec.points_for(scale)
    start = time.perf_counter()  # det: allow[DET003] wall_s feeds the timing line, never a result

    keys = {point.key: content_key(point) for point in points}
    results: dict[str, Any] = {}
    pending: list[SweepPoint] = []
    for point in points:
        entry = cache.lookup(keys[point.key])
        if entry is None:
            pending.append(point)
        else:
            results[point.key] = entry.result

    if pending:
        if jobs == 1 or len(pending) == 1:
            computed = [point.execute() for point in pending]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(pending))) as pool:
                computed = pool.map(SweepPoint.execute, pending)
        for point, result in zip(pending, computed):
            results[point.key] = result
            cache.store(keys[point.key], point, result)

    # Re-key in declared order so serialization ignores completion order.
    return ExperimentRun(
        name=spec.name,
        points=points,
        results={point.key: results[point.key] for point in points},
        cache_hits=len(points) - len(pending),
        computed=len(pending),
        wall_s=time.perf_counter() - start,  # det: allow[DET003] timing-line metadata
    )


def run_assembled(spec: SweepSpec, scale: str) -> str:
    """Run ``spec`` inline with no result cache and render its table.

    The serial ``ldlp-experiment <name>`` form: every point is computed
    afresh in this process (``jobs=1``), and the spec's ``render``
    builds exactly the table ``ldlp-experiment run <name>`` prints at
    the same scale.
    """
    run = run_experiment(spec, scale, jobs=1, cache=ResultCache(enabled=False))
    return spec.render(run.points, run.results)
