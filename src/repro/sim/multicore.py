"""Multi-core synthetic benchmark: dispatch stage -> N cores -> stats.

A multi-core run is a :class:`~repro.sim.runner.SimulationConfig` with
``num_cores`` and a ``dispatch`` policy set: a receive-side dispatch
stage (:mod:`repro.core.dispatch`) steers each arrival onto one of N
modeled cores, each running its own scheduler instance over private
I/D caches, optionally behind one shared L2.  Admission-time dispatch
composes with admission-time drops: the dispatcher picks the core
*first*, then that core's :class:`~repro.core.overload.DropPolicy`
decides admission, so every drop-policy sweep from :mod:`repro.faults`
carries over unchanged.

The drive loop is the single-core one (:func:`repro.sim.runner.drive`):
cores that share no L2 are each driven on their own stream of
dispatched arrivals, and cores behind a shared L2 (or under a
span-keeping recorder) go through one deterministic event merge over
the per-core CPU clocks.  Each core is stepped by the scalar scheduler
or the vectorized engine (:mod:`repro.sim.vec`), whichever that core
supports.  A one-core
dispatched run therefore reproduces
:func:`repro.sim.runner.run_simulation` bit-identically by
construction (``tests/test_multicore.py`` pins it).  This module adds
only the per-core attribution on top of the shared aggregate and the
harness sweep point.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any

from ..errors import ConfigurationError
from ..traffic.base import ArrivalColumns, TrafficSource
from ..traffic.poisson import PoissonSource
from .runner import SimulationConfig, simulate
from .stats import RunResult, merge_results


@dataclass(frozen=True)
class CoreStats:
    """Per-core attribution of one multi-core run."""

    core: int
    dispatched: int
    completed: int
    drops: int
    icache_misses: int
    dcache_misses: int
    cycles: float
    stall_cycles: float
    service_cycles: float

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (harness result cache)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CoreStats":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass(frozen=True)
class MultiCoreRunResult:
    """One multi-core run: the aggregate plus per-core attribution."""

    dispatch: str
    num_cores: int
    aggregate: RunResult
    cores: tuple[CoreStats, ...]

    @property
    def dispatch_imbalance(self) -> float:
        """Max over mean of per-core dispatched counts (1.0 = perfect).

        The load-balance figure of merit for a dispatch policy: RSS
        should sit near 1, sticky policies may trade imbalance for
        locality.
        """
        counts = [core.dispatched for core in self.cores]
        mean = sum(counts) / len(counts)
        if mean == 0:
            return 1.0
        return max(counts) / mean

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (harness result cache)."""
        return {
            "dispatch": self.dispatch,
            "num_cores": self.num_cores,
            "aggregate": self.aggregate.to_dict(),
            "cores": [core.to_dict() for core in self.cores],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "MultiCoreRunResult":
        """Inverse of :meth:`to_dict`."""
        return cls(
            dispatch=data["dispatch"],
            num_cores=int(data["num_cores"]),
            aggregate=RunResult.from_dict(data["aggregate"]),
            cores=tuple(CoreStats.from_dict(core) for core in data["cores"]),
        )


def run_multicore(
    source: TrafficSource,
    config: SimulationConfig,
    seed: int = 0,
    columns: ArrivalColumns | None = None,
) -> MultiCoreRunResult:
    """Run one dispatched configuration against one traffic source.

    ``config`` must name a ``dispatch`` policy.  ``columns`` overrides
    the source's stream (used to replay the identical arrival sequence
    against several dispatch policies or core counts).  The aggregate
    is :func:`repro.sim.runner.run_simulation`'s accounting; the
    per-core stats serialize the drive's per-core lists and each core's
    machine counters.
    """
    if config.dispatch is None:
        raise ConfigurationError("run_multicore() needs a dispatch policy")
    aggregate, cores, outcome = simulate(source, config, seed, columns)
    core_stats = tuple(
        CoreStats(
            core=index,
            dispatched=outcome.dispatched_per_core[index],
            completed=outcome.completed_per_core[index],
            drops=scheduler.drops,
            icache_misses=scheduler.binding.cpu.icache_misses,  # type: ignore[union-attr]
            dcache_misses=scheduler.binding.cpu.dcache_misses,  # type: ignore[union-attr]
            cycles=float(scheduler.binding.cpu.cycles),  # type: ignore[union-attr]
            stall_cycles=float(scheduler.binding.cpu.stall_cycles),  # type: ignore[union-attr]
            service_cycles=outcome.service_cycles_per_core[index],
        )
        for index, scheduler in enumerate(cores)
    )
    return MultiCoreRunResult(
        dispatch=config.dispatch,
        num_cores=config.num_cores,
        aggregate=aggregate,
        cores=core_stats,
    )


def merge_multicore_results(
    results: list[MultiCoreRunResult],
) -> MultiCoreRunResult:
    """Merge same-configuration multi-core runs across seeds.

    The aggregate is seed-merged like the single-core benchmark
    (:func:`repro.sim.stats.merge_results`); per-core stats are summed
    element-wise (core i of every seed is the same modeled core).
    """
    if not results:
        raise ConfigurationError("cannot merge zero multi-core results")
    num_cores = results[0].num_cores
    summed = [field.name for field in fields(CoreStats) if field.name != "core"]
    merged_cores = tuple(
        CoreStats(
            core=index,
            **{
                name: sum(getattr(r.cores[index], name) for r in results)
                for name in summed
            },
        )
        for index in range(num_cores)
    )
    return MultiCoreRunResult(
        dispatch=results[0].dispatch,
        num_cores=num_cores,
        aggregate=merge_results([r.aggregate for r in results]),
        cores=merged_cores,
    )


def multicore_point(
    scheduler: str,
    dispatch: str,
    cores: int,
    rate: float,
    seeds: list[int],
    duration: float,
    policy: str = "tail",
    num_flows: int = 64,
    app_classes: int = 8,
    message_size: int = 552,
    engine: str = "vec",
) -> dict[str, Any]:
    """One (scheduler, dispatch, core count) sweep point.

    Module-level and fully determined by its JSON parameters (the
    harness contract: parallel workers resolve it by dotted name, the
    result cache keys it by content hash).  Per seed, draw a Poisson
    arrival stream at the *aggregate* rate, dispatch it over ``cores``
    cores, and merge.  ``conservation_violations`` is always 0 (every
    run enforces conservation per core) and kept for the digests.
    ``engine`` pins each core's service step for the harness; both
    engines return identical bytes.
    """
    config = SimulationConfig(
        scheduler=scheduler,
        dispatch=dispatch,
        num_cores=cores,
        num_flows=num_flows,
        app_classes=app_classes,
        duration=duration,
        drop_policy=policy,
        engine=engine,
    )
    results = []
    for seed in seeds:
        source = PoissonSource(rate, size=message_size, rng=seed)
        results.append(run_multicore(source, config, seed=seed))
    merged = merge_multicore_results(results)
    return {
        "result": merged.to_dict(),
        "dispatch": dispatch,
        "cores": cores,
        "conservation_violations": 0,
        "dispatch_imbalance": merged.dispatch_imbalance,
    }
