"""Multi-core dispatch sweep — throughput and per-core miss rate.

The ``multicore`` experiment sweeps core count x dispatch policy x
scheduler over the synthetic Section-4 stack dispatched across N
modeled cores (:mod:`repro.sim.multicore`), and reports aggregate
throughput, misses per message, and dispatch imbalance for each
combination.  Its claims are the locality argument behind receive-side
dispatch: at the top swept core count, LDLP-aware dispatch at least
halves a batching scheduler's I-cache misses per message against
flow-hash RSS, because chunked steering lets each core batch arrivals
and keep layer code resident — while under a per-message scheduler the
ratio stays at 1, since per-message processing cannot profit from
steering.

Every sweep point is the pure module-level
:func:`repro.sim.multicore.multicore_point`, so the sweep parallelizes
over the harness worker pool and caches by content hash like any other
experiment.  Points take the ``engine`` parameter like every other
simulation point, so each CI engine pass really runs its engine (the
results are bit-identical; the pinned engine only namespaces the cache).
"""

from __future__ import annotations

from typing import Any

from ..harness.points import Claim, SweepPoint, SweepSpec
from ..sim.multicore import MultiCoreRunResult
from .report import point_rows, render_table

#: Dispatch policies the sweep compares (all registered policies —
#: HARN002 gates that this stays in sync with the registry).
SWEEP_DISPATCH = ("rss", "app", "ldlp")


#: (core counts, schedulers, seeds, duration) per harness scale.  The
#: aggregate arrival rate is fixed: scaling cores at constant offered
#: load is what exposes the locality difference between policies.
SWEEP_SCALES: dict[
    str, tuple[tuple[int, ...], tuple[str, ...], tuple[int, ...], float]
] = {
    "ci": ((1, 2, 4), ("conventional", "ldlp"), (0, 1), 0.06),
    "default": (
        (1, 2, 4, 8),
        ("conventional", "ilp", "ldlp", "grouped"),
        (0, 1, 2),
        0.1,
    ),
    "paper": (
        (1, 2, 4, 8, 16),
        ("conventional", "ilp", "ldlp", "grouped"),
        tuple(range(10)),
        0.3,
    ),
}

#: Aggregate Poisson arrival rate (messages/s) offered to the dispatcher.
SWEEP_RATE = 12000.0


def sweep_points(scale: str) -> list[SweepPoint]:
    """Core count x dispatch policy x scheduler at fixed offered load."""
    core_counts, schedulers, seeds, duration = SWEEP_SCALES[scale]
    return [
        SweepPoint(
            experiment="multicore",
            key=f"{scheduler}/{dispatch}/cores={cores}",
            func="repro.sim.multicore:multicore_point",
            params={
                "scheduler": scheduler,
                "dispatch": dispatch,
                "cores": cores,
                "rate": SWEEP_RATE,
                "seeds": list(seeds),
                "duration": duration,
            },
        )
        for scheduler in schedulers
        for dispatch in SWEEP_DISPATCH
        for cores in core_counts
    ]


def decode(data: dict[str, Any]) -> tuple[MultiCoreRunResult, float]:
    """One point result as its run result and dispatch imbalance."""
    return MultiCoreRunResult.from_dict(data["result"]), float(data["dispatch_imbalance"])


def imiss_ratio(
    rows: list[tuple[dict[str, Any], tuple[MultiCoreRunResult, float]]],
    scheduler: str, improved: str = "ldlp", baseline: str = "rss",
) -> float:
    """I-miss/msg ratio of two dispatch policies at the top core count,
    over ``point_rows(points, results, decode)``.

    Below 1 means ``improved`` keeps layer code more cache-resident
    than ``baseline`` — the receive-side-dispatch locality claim.
    """
    top = max(params["cores"] for params, _ in rows)
    by_dispatch = {
        params["dispatch"]: result.aggregate.misses.instruction
        for params, (result, _) in rows
        if params["scheduler"] == scheduler and params["cores"] == top
    }
    base = by_dispatch.get(baseline, float("nan"))
    new = by_dispatch.get(improved, float("nan"))
    if not base or base != base:
        return float("nan")
    return new / base


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """The dispatch-sweep table (throughput, misses, imbalance)."""
    table_rows = []
    for params, (result, imbalance) in point_rows(points, results, decode):
        aggregate = result.aggregate
        table_rows.append(
            [
                params["scheduler"],
                params["dispatch"],
                params["cores"],
                aggregate.offered,
                aggregate.completed,
                aggregate.dropped,
                f"{aggregate.delivered_rate / 1e3:.1f}k/s",
                f"{aggregate.misses.instruction:.0f}",
                f"{aggregate.misses.data:.0f}",
                f"{imbalance:.2f}",
            ]
        )
    return render_table(
        [
            "scheduler",
            "dispatch",
            "cores",
            "offered",
            "done",
            "drops",
            "tput",
            "I/msg",
            "D/msg",
            "imbal",
        ],
        table_rows,
        title=(
            "Multi-core dispatch sweep: throughput and misses vs "
            "core count x dispatch policy x scheduler"
        ),
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """The pinned multi-core curves.

    Per (scheduler, dispatch) at the top swept core count: I-misses per
    message and delivered throughput.  Per scheduler: the LDLP-vs-RSS
    I-miss ratio at that core count, which the claims bound.
    """
    rows = point_rows(points, results, decode)
    top = max(params["cores"] for params, _ in rows)
    quantities: dict[str, float] = {}
    schedulers: dict[str, None] = {}
    for params, (result, _) in rows:
        if params["cores"] != top:
            continue
        schedulers.setdefault(params["scheduler"])
        prefix = f"{params['scheduler']}/{params['dispatch']}/cores={top}"
        quantities[f"{prefix}/imiss_per_msg"] = result.aggregate.misses.instruction
        quantities[f"{prefix}/kmsg_per_s"] = result.aggregate.delivered_rate / 1e3
    for scheduler in schedulers:
        quantities[f"{scheduler}/ldlp_vs_rss_imiss"] = imiss_ratio(rows, scheduler)
    return quantities


def _locality_holds(points, results) -> bool:
    """Batching schedulers' LDLP-vs-RSS I-miss ratio below 0.5, the
    per-message schedulers' within 5% of 1."""
    rows = point_rows(points, results, decode)
    return all(
        imiss_ratio(rows, scheduler) < 0.5
        if scheduler in ("ldlp", "grouped")
        else abs(imiss_ratio(rows, scheduler) - 1) <= 0.05
        for scheduler in {params["scheduler"] for params, _ in rows}
    )


SWEEP = SweepSpec(
    name="multicore",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
    claims=(
        Claim("at the top core count LDLP-aware dispatch at least halves a batching "
              "scheduler's I-misses/msg against RSS, and leaves a per-message "
              "scheduler's within 5%", "§4, N-core dispatch extension",
              _locality_holds),
    ),
)
