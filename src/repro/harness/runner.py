"""Fan an experiment's sweep points out over a worker pool.

Sweep points are pure functions of their parameters, so they
parallelize trivially: uncached points are mapped over a
``multiprocessing`` pool (``jobs > 1``) or executed inline
(``jobs == 1``), and results are keyed by point key *in declared
order*, so the serialized results of a run are byte-identical at any
worker count.  Every point is timed; the per-experiment timing summary
(wall clock, estimated serial time, speedup, cache hit rate) feeds
``BENCH_experiments.json``.

Every point additionally executes under a metrics-only
:class:`repro.obs.runtime.Recorder` (``keep_spans=False``), so the
instrumented hot paths contribute counter totals — cache misses, mbuf
traffic, scheduler batching — without retaining per-span memory.  The
counters are plain ``dict[str, float]`` so they pickle through the
worker pool, are cached alongside each point result, and aggregate
into :attr:`ExperimentRun.counters` for ``BENCH_experiments.json``.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any

from ..errors import ConfigurationError
from ..obs.runtime import Recorder, recording
from .cache import ResultCache, canonical_json, content_key
from .points import SweepPoint, SweepSpec


def _execute_point(point: SweepPoint) -> tuple[str, Any, float, dict[str, float]]:
    """Worker entry: run one point → (key, result, seconds, counters).

    Runs the point under a metrics-only recorder; the obs layer never
    perturbs model state, so results are identical with or without it.
    """
    start = time.perf_counter()  # det: allow[DET003] times the point for BENCH; never part of the result
    recorder = Recorder(keep_spans=False)
    with recording(recorder):
        result = point.execute()
    counters = recorder.counters.as_dict()
    return point.key, result, time.perf_counter() - start, counters  # det: allow[DET003] elapsed feeds BENCH timing only


def merge_counters(totals: dict[str, float], extra: dict[str, float]) -> None:
    """Accumulate one point's counter dict into a running total."""
    for name, value in extra.items():
        totals[name] = totals.get(name, 0.0) + value


@dataclass
class ExperimentRun:
    """Outcome of one harness run of one experiment."""

    name: str
    scale: str
    jobs: int
    points: list[SweepPoint]
    results: dict[str, Any]  # point key -> result, in declared order
    cache_hits: int
    computed: int
    wall_s: float
    point_elapsed: dict[str, float] = field(default_factory=dict)
    #: Aggregated obs counter totals over every point (cached points
    #: contribute the counters recorded when first computed).
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        """Fraction of points served from the result cache."""
        total = len(self.points)
        return self.cache_hits / total if total else 0.0

    @property
    def serial_s(self) -> float:
        """Estimated serial cost: the sum of every point's own runtime
        (cached points contribute the runtime recorded when they were
        first computed)."""
        return sum(self.point_elapsed.values())

    @property
    def speedup(self) -> float:
        """Serial-estimate over wall-clock; > 1 means the pool or the
        cache saved time."""
        if self.wall_s <= 0:
            return float("nan")
        return self.serial_s / self.wall_s

    def results_json(self) -> str:
        """Canonical serialization used for determinism diffing."""
        return canonical_json(self.results)

    def quantities(self, spec: SweepSpec) -> dict[str, float]:
        """The experiment's named golden quantities from this run."""
        return spec.quantities(self.points, self.results)

    def timing_summary(self) -> str:
        """One line of run timings (points, cache hits, wall, speedup)."""
        return (
            f"{self.name}: {len(self.points)} points, "
            f"{self.cache_hits} cached ({100 * self.hit_rate:.0f}%), "
            f"{self.computed} computed in {self.wall_s:.2f}s wall "
            f"(serial estimate {self.serial_s:.2f}s, {self.speedup:.1f}x)"
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
    start = time.perf_counter()  # det: allow[DET003] wall_s is BENCH timing metadata, not a result

    keys = {point.key: content_key(point) for point in points}
    results: dict[str, Any] = {}
    elapsed: dict[str, float] = {}
    counters: dict[str, float] = {}
    pending: list[SweepPoint] = []
    for point in points:
        entry = cache.lookup(keys[point.key])
        if entry is None:
            pending.append(point)
        else:
            results[point.key] = entry.result
            elapsed[point.key] = entry.elapsed_s
            merge_counters(counters, entry.counters)
    cache_hits = len(points) - len(pending)

    if pending:
        if jobs == 1 or len(pending) == 1:
            computed = [_execute_point(point) for point in pending]
        else:
            with multiprocessing.Pool(processes=min(jobs, len(pending))) as pool:
                computed = pool.map(_execute_point, pending)
        for point, (key, result, seconds, point_counters) in zip(pending, computed):
            results[point.key] = result
            elapsed[point.key] = seconds
            merge_counters(counters, point_counters)
            cache.store(keys[point.key], point, result, seconds, point_counters)

    # Re-key in declared order so serialization ignores completion order.
    ordered = {point.key: results[point.key] for point in points}
    return ExperimentRun(
        name=spec.name,
        scale=scale,
        jobs=jobs,
        points=points,
        results=ordered,
        cache_hits=cache_hits,
        computed=len(pending),
        wall_s=time.perf_counter() - start,  # det: allow[DET003] BENCH timing metadata
        point_elapsed={point.key: elapsed[point.key] for point in points},
        counters={name: counters[name] for name in sorted(counters)},
    )


def run_assembled(spec: SweepSpec, scale: str) -> Any:
    """Run ``spec`` inline with no result cache and assemble its result.

    The serial ``ldlp-experiment <name>`` form: every point is computed
    afresh in this process (``jobs=1``), and the spec's ``assemble``
    rebuilds the rich result, so its ``render()`` is exactly the table
    ``ldlp-experiment run <name>`` prints at the same scale.
    """
    if spec.assemble is None:
        raise ConfigurationError(f"experiment {spec.name!r} declares no assemble")
    run = run_experiment(spec, scale, jobs=1, cache=ResultCache(enabled=False))
    return spec.assemble(run.points, run.results)
