"""Driving the synthetic benchmark with flow-lookup charging attached.

Composes the pieces the rest of the package already provides: a
:class:`~repro.traffic.zipf.ZipfFlowSource` supplies arrival columns
with a skewed destination-flow column,
:func:`repro.sim.runner.build_scheduler` builds the Section-4 stack, a
:class:`~repro.flows.lookup.FlowLookup` is attached to the machine
binding, and the standard drive loop runs
(:func:`repro.sim.runner.simulate`; this module only turns the flow
column into each message's meta dict).
The scheduler hooks (:func:`repro.core.scheduler.charge_flow_lookups`)
then charge one route/PCB lookup per distinct flow per service batch —
so under load, LDLP and Grouped batches amortize lookup misses the same
way they amortize instruction misses, while Conventional and ILP pay
per message.

The vectorized engine (:mod:`repro.sim.vec`) calls the same hook at
the same point of its service step, and places the lookups of the
conventional/ILP steps it replays ahead where the scalar steps would
charge them, so ``engine="vec"`` runs replay flow-charged points on
step templates and both engine passes produce byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from ..core.dispatch import FLOW_KEY
from ..core.scheduler import Scheduler
from ..errors import ConfigurationError
from ..sim.runner import SimulationConfig, simulate
from ..sim.stats import RunResult, merge_results
from ..traffic.base import ArrivalColumns, TrafficSource
from ..traffic.onoff import ParetoOnOffSource
from ..traffic.poisson import PoissonSource
from ..traffic.zipf import ZipfFlowSource
from .lookup import FlowCacheSpec


@dataclass(frozen=True)
class FlowRunResult:
    """One flow-charged run: the standard result plus lookup accounting.

    ``lookups`` counts lookups actually performed (after per-batch
    dedup); ``demand`` counts the lookups messages would have performed
    without batching, so ``lookups / demand`` is the batch-amortization
    factor and ``misses / completed`` is the headline
    lookup-misses-per-message the experiment pins.  ``untagged`` counts
    table walks by messages with no flow tag at all (gossip's control
    datagrams; always zero for :func:`run_flow_simulation`, which tags
    every message).

    The one lookup-counters record: :class:`repro.gossip.runner.GossipRunResult`
    extends it with wire totals, and :meth:`to_dict`, :meth:`from_dict`
    and :func:`merge_flow_results` cover every integer field a subclass
    adds.
    """

    run: RunResult
    lookups: int
    demand: int
    hits: int
    misses: int
    evictions: int
    untagged: int

    @classmethod
    def of(cls, run: RunResult, cores: list[Scheduler], **totals: int):
        """``run`` plus the lookup counters summed over the cores' caches."""
        counters = [core.binding.flow_lookup.counters() for core in cores]  # type: ignore[union-attr]
        summed = {name: sum(c[name] for c in counters) for name in counters[0]}
        return cls(run=run, **summed, **totals)

    @property
    def hit_ratio(self) -> float:
        """Fraction of *tagged* lookups served from the cache."""
        performed = self.lookups - self.untagged
        if performed == 0:
            return float("nan")
        return self.hits / performed

    @property
    def lookup_misses_per_message(self) -> float:
        """Full table walks per completed message."""
        return self.misses / max(self.run.completed, 1)

    def to_dict(self) -> dict:
        """JSON-serializable form (harness result cache)."""
        data: dict = {"run": self.run.to_dict()}
        for counter in _counters(type(self)):
            data[counter] = getattr(self, counter)
        return data

    @classmethod
    def from_dict(cls, data: dict):
        """Inverse of :meth:`to_dict`."""
        return cls(
            run=RunResult.from_dict(data["run"]),
            **{counter: int(data[counter]) for counter in _counters(cls)},
        )


def _counters(cls: type) -> list[str]:
    """The integer counter fields of a flow-charged result type."""
    return [field.name for field in fields(cls) if field.name != "run"]


def merge_flow_results(results: list[FlowRunResult]) -> FlowRunResult:
    """Merge per-seed runs: averaged run stats, summed counters."""
    cls = type(results[0])
    return cls(
        run=merge_results([result.run for result in results]),
        **{
            counter: sum(getattr(result, counter) for result in results)
            for counter in _counters(cls)
        },
    )


def _flow_metas(columns: ArrivalColumns) -> list[dict[str, int]]:
    """Each message's meta: its arrival's flow under
    :data:`~repro.core.dispatch.FLOW_KEY`; a stream with no ``"flow"``
    column (plain arrivals) is all flow 0."""
    flows = columns.get("flow") or [0] * len(columns["time"])
    return [{FLOW_KEY: flow} for flow in flows]


def run_flow_simulation(
    source: TrafficSource,
    config: SimulationConfig | None = None,
    cache: FlowCacheSpec | None = None,
    seed: int | np.random.Generator | None = 0,
    columns: ArrivalColumns | None = None,
) -> FlowRunResult:
    """Run one configuration with flow-lookup charging attached.

    Each message is tagged with its arrival's flow id (the ``"flow"``
    column, as :class:`~repro.traffic.zipf.ZipfFlowSource` draws it)
    under :data:`~repro.core.dispatch.FLOW_KEY`; a stream without one
    maps every arrival to flow 0 — one destination, the degenerate case
    where every lookup after the first hits.  ``columns`` overrides the
    source's stream (to replay the identical sequence against several
    schedulers or cache organizations).
    """
    config = config or SimulationConfig()
    if columns is None:
        columns = source.arrival_columns(config.duration)
    run, cores, _ = simulate(
        source,
        config,
        seed,
        columns,
        flow_cache=cache or FlowCacheSpec(),
        metas=_flow_metas(columns),
    )
    return FlowRunResult.of(run, cores)


def make_flow_base(
    base: str, rate: float, message_size: int, seed: int
) -> TrafficSource:
    """Build the base arrival process for one flow-tagged run.

    ``"poisson"`` is the memoryless classic; ``"bellcore"`` is the
    self-similar Pareto ON/OFF aggregate
    (:class:`~repro.traffic.onoff.ParetoOnOffSource`) configured so its
    long-run mean rate equals ``rate`` — the bursty base whose stateful
    RNG is exactly what the ZipfFlowSource snapshot fix protects.
    """
    if base == "poisson":
        return PoissonSource(rate, size=message_size, rng=seed)
    if base == "bellcore":
        num_sources = 16
        source = ParetoOnOffSource(
            num_sources=num_sources,
            packet_rate_on=rate / (num_sources * 0.2),
            size=message_size,
            rng=seed,
        )
        return source
    raise ConfigurationError(
        f"unknown flow base {base!r}; expected 'poisson' or 'bellcore'"
    )


def flows_point(
    scheduler: str,
    organization: str,
    entries: int,
    skew: float,
    rate: float,
    seeds: list[int],
    duration: float,
    num_flows: int = 64,
    policy: str = "tail",
    message_size: int = 552,
    hit_cycles: float = 4.0,
    miss_cycles: float = 120.0,
    engine: str = "vec",
    base: str = "poisson",
) -> dict[str, Any]:
    """One (scheduler, organization, entries, skew) sweep point.

    Module-level and fully determined by its JSON parameters (the
    harness contract: parallel workers resolve it by dotted name, the
    result cache keys it by content hash).  Per seed, a base stream at
    mean ``rate`` — Poisson by default, the Bellcore-style self-similar
    aggregate with ``base="bellcore"`` — is flow-tagged by a
    Zipf(``skew``) draw over ``num_flows`` destinations and driven
    through the flow-charged stack; results merge across seeds.
    ``conservation_violations`` is always 0 (every run enforces
    conservation) and kept for the digests.  ``engine`` pins the drive
    loop for the harness; both engines return identical bytes.
    """
    cache = FlowCacheSpec(
        entries=entries,
        organization=organization,
        hit_cycles=hit_cycles,
        miss_cycles=miss_cycles,
    )
    config = SimulationConfig(
        scheduler=scheduler,
        duration=duration,
        drop_policy=policy,
        engine=engine,
    )
    results = []
    for seed in seeds:
        source = ZipfFlowSource(
            make_flow_base(base, rate, message_size, seed),
            num_flows=num_flows,
            skew=skew,
            seed=seed,
        )
        results.append(run_flow_simulation(source, config, cache, seed=seed))
    merged = merge_flow_results(results)
    return {
        "result": merged.to_dict(),
        "organization": organization,
        "entries": entries,
        "conservation_violations": 0,
    }
