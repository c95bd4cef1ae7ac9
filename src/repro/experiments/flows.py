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
  (:func:`amortization_ok`).  Over the bursty Bellcore grid only the
  performed-lookup *fraction* reduction is guaranteed
  (:func:`lookup_reduction_ok`): batch dedup also skips LRU recency
  refreshes, so an LRU organization can miss slightly more per message
  while still performing a smaller share of its demanded lookups.

Every sweep point is the pure module-level
:func:`repro.flows.runner.flows_point`, so the sweep parallelizes over
the harness worker pool and caches by content hash like any other
experiment.  Points accept ``engine`` for the CI dual-engine passes;
the vec engine charges lookups at the same point of the service step as
the scalar loop, so both passes share one set of byte-identical
results.
"""

from __future__ import annotations

from itertools import pairwise
from typing import Any

from ..flows.runner import FlowRunResult
from ..harness.points import Claim, SweepPoint, SweepSpec
from .report import point_rows, render_table

#: Slack for the amortization comparison: misses/msg are ratios of
#: exact integer counters, so equality up to float noise still counts.
_EPSILON = 1e-9


#: One ``(params, result)`` row of the sweep (see :func:`rows`).
Row = tuple[dict[str, Any], FlowRunResult]


def rows(points: list[SweepPoint], results: dict[str, Any]) -> list[Row]:
    """``(params, flow run result)`` per point, in declared order."""
    return point_rows(
        points, results, lambda data: FlowRunResult.from_dict(data["result"])
    )


def base_of(params: dict[str, Any]) -> str:
    """A point's base arrival process ("poisson" or "bellcore")."""
    return params.get("base", "poisson")


def hit_ratios_monotonic(rows: list[Row]) -> bool:
    """Whether no (scheduler, organization, skew, base) curve's hit
    ratio drops as the cache grows."""
    curves: dict[tuple[str, str, float, str], list[tuple[int, float]]] = {}
    for params, result in rows:
        curves.setdefault(
            (params["scheduler"], params["organization"], params["skew"], base_of(params)),
            [],
        ).append((params["entries"], result.hit_ratio))
    return all(
        earlier <= later + _EPSILON
        for curve in curves.values()
        for (_, earlier), (_, later) in pairwise(sorted(curve))
    )


def amortization_ok(rows: list[Row], base: str = "poisson") -> bool:
    """Batching schedulers never exceed conventional lookup misses.

    For every (organization, skew, entries) combination over one base
    process where both the conventional scheduler and a batching
    scheduler (ldlp, grouped) ran, the batching scheduler's lookup
    misses per completed message must be at most conventional's.  This
    is an *empirical* pin, not a theorem: it holds over the memoryless
    Poisson grid, but batch dedup also skips the LRU recency refresh a
    repeated in-batch access would have given a hot flow, so over
    bursty self-similar traffic an LRU organization can genuinely miss
    slightly *more* per message while still performing fewer lookups —
    which is why this pin is scoped per base and the guaranteed
    property is :func:`lookup_reduction_ok`.
    """
    baseline: dict[tuple[str, float, int], float] = {}
    for params, result in rows:
        if params["scheduler"] == "conventional" and base_of(params) == base:
            key = (params["organization"], params["skew"], params["entries"])
            baseline[key] = result.lookup_misses_per_message
    for params, result in rows:
        if params["scheduler"] not in ("ldlp", "grouped") or base_of(params) != base:
            continue
        reference = baseline.get(
            (params["organization"], params["skew"], params["entries"])
        )
        if reference is None:
            continue
        if result.lookup_misses_per_message > reference + _EPSILON:
            return False
    return True


def lookup_reduction_ok(rows: list[Row]) -> bool:
    """Batching never performs a larger *fraction* of demanded lookups.

    The dedup guarantee proper, normalized so it holds for any base
    process: every row performs at most as many lookups as its messages
    demanded (``lookups <= demand``), and a batching scheduler's
    performed fraction ``lookups / demand`` never exceeds the
    conventional counterpart's (which is exactly 1 — size-one batches
    have nothing to deduplicate).  Raw lookup *counts* are deliberately
    not compared: schedulers drop different amounts under load, so a
    batching scheduler that completes more messages may legitimately
    perform more total lookups.
    """
    baseline: dict[tuple[str, str, float, int], float] = {}
    for params, result in rows:
        if result.lookups > result.demand:
            return False
        if params["scheduler"] == "conventional" and result.demand:
            key = (base_of(params), params["organization"], params["skew"],
                   params["entries"])
            baseline[key] = result.lookups / result.demand
    for params, result in rows:
        if params["scheduler"] not in ("ldlp", "grouped") or not result.demand:
            continue
        reference = baseline.get(
            (base_of(params), params["organization"], params["skew"], params["entries"])
        )
        if reference is None:
            continue
        if result.lookups / result.demand > reference + _EPSILON:
            return False
    return True


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


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """The flow-sweep table (hit ratio, misses, amortization)."""
    table_rows = []
    for params, result in rows(points, results):
        run = result.run
        table_rows.append(
            [
                base_of(params),
                params["scheduler"],
                params["organization"],
                f"{params['skew']:g}",
                params["entries"],
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


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """The flow-lookup curves: per combination, the lookup-cache hit
    ratio and lookup misses per completed message."""
    quantities: dict[str, float] = {}
    for point, (_, result) in zip(points, rows(points, results)):
        quantities[f"{point.key}/hit_ratio"] = result.hit_ratio
        quantities[f"{point.key}/lookup_misses_per_msg"] = result.lookup_misses_per_message
    return quantities


SWEEP = SweepSpec(
    name="flows",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
    claims=(
        Claim("hit ratio never falls as the lookup cache grows, every scheduler, "
              "organization, skew and base", "Jain, DEC-TR-592",
              lambda p, r: hit_ratios_monotonic(rows(p, r))),
        Claim("batching schedulers miss no more per message than conventional over "
              "the Poisson grid", "§4; Jain, DEC-TR-592",
              lambda p, r: amortization_ok(rows(p, r))),
        Claim("batching never performs a larger share of its demanded lookups than "
              "conventional, any base", "§4; Jain, DEC-TR-592",
              lambda p, r: lookup_reduction_ok(rows(p, r))),
    ),
)
