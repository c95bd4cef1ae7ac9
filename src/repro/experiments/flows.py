"""Flow-lookup cache sweep — hit ratio and lookup misses per message.

The ``flows`` experiment sweeps lookup-cache size x organization x
Zipf skew x scheduler over the Section-4 stack with route/PCB lookup
charging attached (:mod:`repro.flows`), and reports each combination's
lookup-cache hit ratio and full-table-walks per completed message.
A companion grid (``bellcore/`` keys) runs the same Zipf flow tagging
over the self-similar Pareto ON/OFF base — the bursty stateful source
whose per-batch re-materialization exposed the ``ZipfFlowSource``
snapshot bug this sweep regression-guards.

Its claims are Jain's DEC-TR-592 qualitative results transplanted onto
the paper's machine model:

* hit ratio grows monotonically with lookup-cache size at fixed skew
  (the classic lookup-cache curve), for every (scheduler,
  organization, skew) curve;
* batching schedulers (LDLP, Grouped) incur *at most* the per-message
  schedulers' lookup misses per message at equal load over the Poisson
  grid, because one batch resolves each distinct destination once
  (:meth:`FlowSweepResult.amortization_ok`).  Over the bursty Bellcore
  grid only the performed-lookup *fraction* reduction is guaranteed
  (:meth:`FlowSweepResult.lookup_reduction_ok`): batch dedup also skips
  LRU recency refreshes, so an LRU organization can miss slightly more
  per message while still performing a smaller share of its demanded
  lookups.

Every sweep point is the pure module-level
:func:`repro.flows.runner.flows_point`, so the sweep parallelizes over
the harness worker pool and caches by content hash like any other
experiment.  Points accept ``engine`` for the CI dual-engine passes;
the vec engine charges lookups at the same point of the service step as
the scalar loop, so both passes share one set of byte-identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Any

from ..flows.runner import FlowRunResult
from ..harness.points import Claim, SweepPoint, SweepSpec
from .report import render_table

#: Slack for the amortization comparison: misses/msg are ratios of
#: exact integer counters, so equality up to float noise still counts.
_EPSILON = 1e-9


@dataclass(frozen=True)
class FlowRow:
    """One rendered (scheduler, organization, skew, entries) combination."""

    scheduler: str
    organization: str
    skew: float
    entries: int
    result: FlowRunResult
    #: Base arrival process ("poisson" or "bellcore" self-similar).
    base: str = "poisson"


@dataclass(frozen=True)
class FlowSweepResult:
    """The assembled flow sweep: one row per combination."""

    rows: tuple[FlowRow, ...]

    def hit_ratios_monotonic(self) -> bool:
        """Whether no (scheduler, organization, skew, base) curve's hit
        ratio drops as the cache grows."""
        curves: dict[tuple[str, str, float, str], list[tuple[int, float]]] = {}
        for row in self.rows:
            curves.setdefault(
                (row.scheduler, row.organization, row.skew, row.base), []
            ).append((row.entries, row.result.hit_ratio))
        return all(
            earlier <= later + _EPSILON
            for curve in curves.values()
            for (_, earlier), (_, later) in pairwise(sorted(curve))
        )

    def amortization_ok(self, base: str = "poisson") -> bool:
        """Batching schedulers never exceed conventional lookup misses.

        For every (organization, skew, entries) combination over one
        base process where both the conventional scheduler and a
        batching scheduler (ldlp, grouped) ran, the batching
        scheduler's lookup misses per completed message must be at most
        conventional's.  This is an *empirical* pin, not a theorem: it
        holds over the memoryless Poisson grid, but batch dedup also
        skips the LRU recency refresh a repeated in-batch access would
        have given a hot flow, so over bursty self-similar traffic an
        LRU organization can genuinely miss slightly *more* per message
        while still performing fewer lookups — which is why this pin is
        scoped per base and the guaranteed property is
        :meth:`lookup_reduction_ok`.
        """
        baseline: dict[tuple[str, float, int], float] = {}
        for row in self.rows:
            if row.scheduler == "conventional" and row.base == base:
                key = (row.organization, row.skew, row.entries)
                baseline[key] = row.result.lookup_misses_per_message
        for row in self.rows:
            if row.scheduler not in ("ldlp", "grouped") or row.base != base:
                continue
            reference = baseline.get(
                (row.organization, row.skew, row.entries)
            )
            if reference is None:
                continue
            if row.result.lookup_misses_per_message > reference + _EPSILON:
                return False
        return True

    def lookup_reduction_ok(self) -> bool:
        """Batching never performs a larger *fraction* of demanded lookups.

        The dedup guarantee proper, normalized so it holds for any base
        process: every row performs at most as many lookups as its
        messages demanded (``lookups <= demand``), and a batching
        scheduler's performed fraction ``lookups / demand`` never
        exceeds the conventional counterpart's (which is exactly 1 —
        size-one batches have nothing to deduplicate).  Raw lookup
        *counts* are deliberately not compared: schedulers drop
        different amounts under load, so a batching scheduler that
        completes more messages may legitimately perform more total
        lookups.
        """
        baseline: dict[tuple[str, str, float, int], float] = {}
        for row in self.rows:
            if row.result.lookups > row.result.demand:
                return False
            if row.scheduler == "conventional" and row.result.demand:
                key = (row.base, row.organization, row.skew, row.entries)
                baseline[key] = row.result.lookups / row.result.demand
        for row in self.rows:
            if row.scheduler not in ("ldlp", "grouped"):
                continue
            if not row.result.demand:
                continue
            reference = baseline.get(
                (row.base, row.organization, row.skew, row.entries)
            )
            if reference is None:
                continue
            ratio = row.result.lookups / row.result.demand
            if ratio > reference + _EPSILON:
                return False
        return True

    def render(self) -> str:
        """The flow-sweep table (hit ratio, misses, amortization)."""
        table_rows = []
        for row in self.rows:
            result = row.result
            run = result.run
            table_rows.append(
                [
                    row.base,
                    row.scheduler,
                    row.organization,
                    f"{row.skew:g}",
                    row.entries,
                    run.completed,
                    f"{100.0 * result.hit_ratio:.1f}%",
                    f"{result.lookup_misses_per_message:.3f}",
                    f"{result.lookups / max(result.demand, 1):.2f}",
                    f"{run.mean_batch_size:.1f}",
                ]
            )
        return render_table(
            [
                "base",
                "scheduler",
                "org",
                "skew",
                "entries",
                "done",
                "hit%",
                "miss/msg",
                "lkup/dmnd",
                "batch",
            ],
            table_rows,
            title=(
                "Flow-lookup cache sweep: hit ratio and lookup misses vs "
                "cache size x organization x Zipf skew x scheduler"
            ),
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

#: (organizations, entry counts, skews, schedulers, seeds, duration)
#: per harness scale.  The offered load is fixed and high enough that
#: batching schedulers assemble real batches — that is what exposes
#: lookup amortization.  The default and paper scales cover every
#: registered organization (HARN003 gates that this stays true).
SWEEP_SCALES: dict[
    str,
    tuple[
        tuple[str, ...],
        tuple[int, ...],
        tuple[float, ...],
        tuple[str, ...],
        tuple[int, ...],
        float,
    ],
] = {
    "ci": (
        ("direct", "lru4", "fifo4"),
        (4, 16, 64),
        (1.1,),
        ("conventional", "ldlp"),
        (0, 1),
        0.05,
    ),
    "default": (
        ("direct", "lru2", "fifo2", "lru4", "fifo4"),
        (4, 16, 64),
        (0.6, 1.1),
        ("conventional", "ilp", "ldlp", "grouped"),
        (0, 1, 2),
        0.1,
    ),
    "paper": (
        ("direct", "lru2", "fifo2", "lru4", "fifo4"),
        (4, 8, 16, 32, 64, 128),
        (0.5, 1.0, 1.5),
        ("conventional", "ilp", "ldlp", "grouped"),
        tuple(range(10)),
        0.3,
    ),
}

#: Poisson arrival rate (messages/s): just above the conventional
#: scheduler's capacity, so queues form and batches are non-trivial.
SWEEP_RATE = 11000.0

#: Modeled destination population the Zipf draw ranks over.
SWEEP_NUM_FLOWS = 64

#: Bellcore-base companion grid per scale: (organizations, entry
#: counts, skews, schedulers, seeds, duration).  A smaller grid than
#: the Poisson one — the point is Zipf flows over a *bursty* stateful
#: base (the ROADMAP PR-9 headroom item and the snapshot-bug regression
#: surface), not a second full organization sweep.
BELLCORE_SCALES: dict[
    str,
    tuple[
        tuple[str, ...],
        tuple[int, ...],
        tuple[float, ...],
        tuple[str, ...],
        tuple[int, ...],
        float,
    ],
] = {
    "ci": (
        ("direct",),
        (4, 16, 64),
        (1.1,),
        ("conventional", "ldlp"),
        (0, 1),
        0.05,
    ),
    "default": (
        ("direct", "lru4"),
        (4, 16, 64),
        (1.1,),
        ("conventional", "ilp", "ldlp", "grouped"),
        (0, 1, 2),
        0.1,
    ),
    "paper": (
        ("direct", "lru2", "lru4"),
        (4, 16, 64, 128),
        (1.0, 1.5),
        ("conventional", "ilp", "ldlp", "grouped"),
        (0, 1, 2, 3, 4),
        0.3,
    ),
}


def sweep_points(scale: str) -> list[SweepPoint]:
    """Cache size x organization x skew x scheduler at fixed load.

    Poisson points keep their original keys and parameters (stable
    content hashes, stable golden names); the Bellcore companion grid
    rides along under ``bellcore/``-prefixed keys with
    ``base="bellcore"``.
    """
    organizations, entries_list, skews, schedulers, seeds, duration = (
        SWEEP_SCALES[scale]
    )
    points = [
        SweepPoint(
            experiment="flows",
            key=(
                f"{scheduler}/{organization}/skew={skew:g}/"
                f"entries={entries}"
            ),
            func="repro.flows.runner:flows_point",
            params={
                "scheduler": scheduler,
                "organization": organization,
                "entries": entries,
                "skew": skew,
                "rate": SWEEP_RATE,
                "seeds": list(seeds),
                "duration": duration,
                "num_flows": SWEEP_NUM_FLOWS,
            },
        )
        for scheduler in schedulers
        for organization in organizations
        for skew in skews
        for entries in entries_list
    ]
    organizations, entries_list, skews, schedulers, seeds, duration = (
        BELLCORE_SCALES[scale]
    )
    points.extend(
        SweepPoint(
            experiment="flows",
            key=(
                f"bellcore/{scheduler}/{organization}/skew={skew:g}/"
                f"entries={entries}"
            ),
            func="repro.flows.runner:flows_point",
            params={
                "scheduler": scheduler,
                "organization": organization,
                "entries": entries,
                "skew": skew,
                "rate": SWEEP_RATE,
                "seeds": list(seeds),
                "duration": duration,
                "num_flows": SWEEP_NUM_FLOWS,
                "base": "bellcore",
            },
        )
        for scheduler in schedulers
        for organization in organizations
        for skew in skews
        for entries in entries_list
    )
    return points


def assemble(
    points: list[SweepPoint], results: dict[str, Any]
) -> FlowSweepResult:
    """Rebuild the sweep table from point results."""
    rows = []
    for point in points:
        data = results[point.key]
        rows.append(
            FlowRow(
                scheduler=point.params["scheduler"],
                organization=point.params["organization"],
                skew=float(point.params["skew"]),
                entries=int(point.params["entries"]),
                result=FlowRunResult.from_dict(data["result"]),
                base=str(point.params.get("base", "poisson")),
            )
        )
    return FlowSweepResult(rows=tuple(rows))


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """The flow-lookup curves: per combination, the lookup-cache hit
    ratio and lookup misses per completed message."""
    quantities: dict[str, float] = {}
    for row in assemble(points, results).rows:
        mark = "bellcore/" if row.base == "bellcore" else ""
        prefix = (
            f"{mark}{row.scheduler}/{row.organization}/skew={row.skew:g}/"
            f"entries={row.entries}"
        )
        quantities[f"{prefix}/hit_ratio"] = row.result.hit_ratio
        quantities[f"{prefix}/lookup_misses_per_msg"] = (
            row.result.lookup_misses_per_message
        )
    return quantities


SWEEP = SweepSpec(
    name="flows",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    claims=(
        Claim("hit ratio never falls as the lookup cache grows, every scheduler, "
              "organization, skew and base", "Jain, DEC-TR-592",
              lambda p, r: assemble(p, r).hit_ratios_monotonic()),
        Claim("batching schedulers miss no more per message than conventional over "
              "the Poisson grid", "§4; Jain, DEC-TR-592",
              lambda p, r: assemble(p, r).amortization_ok()),
        Claim("batching never performs a larger share of its demanded lookups than "
              "conventional, any base", "§4; Jain, DEC-TR-592",
              lambda p, r: assemble(p, r).lookup_reduction_ok()),
    ),
)
