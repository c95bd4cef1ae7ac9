"""The flow-lookup cache: route/PCB lookup modeled as a small cache.

Every message entering the stack must have its destination resolved —
a routing-table / protocol-control-block walk in a real stack.  Jain's
DEC-TR-592 measured that destinations are so skewed that a tiny cache
in front of those tables absorbs most lookups; this module models
exactly that cache so the simulation can charge a cheap ``hit_cycles``
for cached destinations and an expensive ``miss_cycles`` full table
walk otherwise.

The cache itself reuses the paper-model cache classes
(:mod:`repro.cache.cache`) with ``line_size=1``: a flow id *is* a line
number, so an ``entries``-slot lookup cache is just an ``entries``-byte
cache of 1-byte lines.  The sweepable organizations live in
:data:`FLOW_CACHE_ORGS` — direct-mapped, N-way LRU, and N-way FIFO —
and the HARN003 analysis rule pins that every registered organization
is exercised by the ``flows`` experiment sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict

from ..cache.cache import Cache, DirectMappedCache, SetAssociativeCache
from ..cache.stats import CacheStats
from ..errors import ConfigurationError

#: Registered lookup-cache organizations: name -> builder taking the
#: entry count.  Direct-mapped, and 2-/4-way set-associative under both
#: replacement policies; ``entries`` must be a power of two >= the
#: organization's associativity (the cache constructors validate).
FLOW_CACHE_ORGS: Dict[str, Callable[[int], Cache]] = {
    "direct": lambda entries: DirectMappedCache(entries, line_size=1),
    "lru2": lambda entries: SetAssociativeCache(
        entries, line_size=1, ways=2, policy="lru"
    ),
    "fifo2": lambda entries: SetAssociativeCache(
        entries, line_size=1, ways=2, policy="fifo"
    ),
    "lru4": lambda entries: SetAssociativeCache(
        entries, line_size=1, ways=4, policy="lru"
    ),
    "fifo4": lambda entries: SetAssociativeCache(
        entries, line_size=1, ways=4, policy="fifo"
    ),
}


def make_flow_cache(organization: str, entries: int) -> Cache:
    """Build one registered lookup-cache organization by name."""
    try:
        builder = FLOW_CACHE_ORGS[organization]
    except KeyError:
        raise ConfigurationError(
            f"unknown flow-cache organization {organization!r}; expected "
            f"one of {tuple(sorted(FLOW_CACHE_ORGS))}"
        ) from None
    return builder(entries)


@dataclass(frozen=True)
class FlowCacheSpec:
    """Geometry and cost model of the flow-lookup cache.

    ``hit_cycles`` is the cached-destination fast path (a compare and a
    pointer chase); ``miss_cycles`` is the full routing/PCB table walk
    Jain's study amortizes away.  The defaults keep a miss roughly the
    cost of a layer's fixed overhead share, which is what makes lookup
    locality visible without dominating the Section-4 cost model.
    """

    entries: int = 16
    organization: str = "direct"
    hit_cycles: float = 4.0
    miss_cycles: float = 120.0

    def __post_init__(self) -> None:
        if self.organization not in FLOW_CACHE_ORGS:
            raise ConfigurationError(
                f"unknown flow-cache organization {self.organization!r}; "
                f"expected one of {tuple(sorted(FLOW_CACHE_ORGS))}"
            )
        # NaN fails every comparison below, so check finiteness first.
        if not (math.isfinite(self.hit_cycles) and math.isfinite(self.miss_cycles)):
            raise ConfigurationError(
                f"hit_cycles ({self.hit_cycles}) and miss_cycles "
                f"({self.miss_cycles}) must be finite"
            )
        if self.hit_cycles < 0:
            raise ConfigurationError(
                f"hit_cycles must be non-negative, got {self.hit_cycles}"
            )
        if self.miss_cycles < self.hit_cycles:
            raise ConfigurationError(
                f"miss_cycles ({self.miss_cycles}) must be at least "
                f"hit_cycles ({self.hit_cycles})"
            )
        # Entry-count validity (power of two, >= ways) is delegated to
        # the cache constructor; build one eagerly so a bad spec fails
        # here rather than deep inside a harness worker.
        make_flow_cache(self.organization, self.entries)

    def build(self) -> "FlowLookup":
        """A fresh :class:`FlowLookup` with cold cache and zero stats."""
        return FlowLookup(self)

    def describe(self) -> dict:
        """Static description for analysis and reports."""
        return {
            "entries": self.entries,
            "organization": self.organization,
            "hit_cycles": self.hit_cycles,
            "miss_cycles": self.miss_cycles,
        }


@dataclass
class FlowLookup:
    """Live lookup-cache state plus cycle-cost accounting for one run.

    Attached to a :class:`~repro.core.binding.MachineBinding` as its
    ``flow_lookup``; the scheduler hooks in :mod:`repro.core.scheduler`
    call :meth:`charge_batch` once per service batch, so batched
    schedulers (LDLP, Grouped) pay one lookup per *distinct* flow per
    batch — the layer holds the resolved route while it sweeps the
    batch — while per-message schedulers pay one lookup per message.
    """

    spec: FlowCacheSpec
    cache: Cache = field(init=False)
    #: Lookups actually performed (after batch dedup).
    lookups: int = field(default=0, init=False)
    #: Lookups messages would have performed without batch dedup.
    demand: int = field(default=0, init=False)
    #: Full table walks by messages carrying *no* flow tag at all.
    untagged: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.cache = make_flow_cache(self.spec.organization, self.spec.entries)

    @property
    def stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the underlying cache."""
        return self.cache.stats

    def lookup(self, flow: int) -> float:
        """Resolve one flow; returns the cycle cost of doing so."""
        self.lookups += 1
        if self.cache.access_line(flow):
            return self.spec.miss_cycles
        return self.spec.hit_cycles

    def charge_batch(self, binding, flows: list[int | None]) -> float:
        """Charge one service batch's lookups to the bound CPU.

        :meth:`resolve_batch`, then execute the cycles it returns on
        ``binding.cpu``.  Returns the cycles charged.
        """
        cycles = self.resolve_batch(flows)
        if cycles:
            binding.cpu.execute(cycles)
        return cycles

    def resolve_batch(self, flows: list[int | None]) -> float:
        """Resolve one service batch's lookups; returns their cycle cost.

        Looks up the first occurrence of each distinct flow in the
        batch (order-preserving, so the cache sees flows in arrival
        order) and bumps the lookup counters and the ``flows.*`` obs
        counters, but charges no CPU: the vec engine
        (:mod:`repro.sim.vec`) places the cycles of steps it replays
        ahead in its own addend timeline.

        A ``None`` entry is a message with *no* flow tag — there is no
        destination to cache, so it can neither be deduplicated against
        other untagged messages nor share a resolved route with tagged
        flow 0.  Each one pays the full ``miss_cycles`` table walk
        without touching the cache (the mixed control/data batches of
        the gossip workload are the motivating case; collapsing them
        onto flow 0 was the dedup-accounting bug this distinction
        fixes).
        """
        seen: set[int] = set()
        cycles = 0.0
        hits_before = self.stats.hits
        misses_before = self.stats.misses
        performed = 0
        walked = 0
        for flow in flows:
            if flow is None:
                walked += 1
                cycles += self.spec.miss_cycles
                continue
            if flow in seen:
                continue
            seen.add(flow)
            cycles += self.lookup(flow)
            performed += 1
        self._account(
            len(flows), performed + walked, walked, hits_before, misses_before
        )
        return cycles

    def resolve_each(self, flows: list[int | None]) -> list[float]:
        """:meth:`resolve_batch` over each entry as its own batch of one,
        in order; returns each one's cycle cost.

        No dedup across entries: the vec engine's multi-step replay
        resolves the flows of the steps it runs ahead, one per step.
        The ``flows.*`` obs counters are bumped once per call, with the
        keys and totals the per-entry calls give.
        """
        hits_before = self.stats.hits
        misses_before = self.stats.misses
        miss_cycles = self.spec.miss_cycles
        cycles = []
        walked = 0
        for flow in flows:
            if flow is None:
                walked += 1
                cycles.append(miss_cycles)
            else:
                cycles.append(self.lookup(flow))
        self._account(len(flows), len(flows), walked, hits_before, misses_before)
        return cycles

    def _account(
        self, demand: int, resolved: int, walked: int, hits_before: int,
        misses_before: int,
    ) -> None:
        """Bump the counters for one call over ``demand`` entries that
        resolved ``resolved`` lookups, ``walked`` of them untagged table
        walks (:meth:`lookup` counts the rest), and emit the ``flows.*``
        obs counters; ``hits_before``/``misses_before`` are the cache
        stats before the call."""
        from ..obs.runtime import active_recorder

        self.demand += demand
        self.lookups += walked
        self.untagged += walked
        recorder = active_recorder()
        if recorder is not None and resolved:
            recorder.count("flows.lookups", float(resolved))
            recorder.count("flows.hits", float(self.stats.hits - hits_before))
            recorder.count("flows.misses", float(self.stats.misses - misses_before))
            if walked:
                recorder.count("flows.untagged", float(walked))

    def counters(self) -> dict[str, int]:
        """The live lookup counters, keyed as run results report them."""
        return {
            "lookups": self.lookups,
            "demand": self.demand,
            "hits": self.stats.hits,
            "misses": self.stats.misses,
            "evictions": self.stats.evictions,
            "untagged": self.untagged,
        }

    def describe(self) -> dict:
        """Spec plus live counters, for reports."""
        return {**self.spec.describe(), **self.counters()}
