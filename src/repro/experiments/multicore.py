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

from dataclasses import dataclass
from typing import Any

from ..harness.points import Claim, SweepPoint, SweepSpec
from ..sim.multicore import MultiCoreRunResult
from .report import render_table

#: Dispatch policies the sweep compares (all registered policies —
#: HARN002 gates that this stays in sync with the registry).
SWEEP_DISPATCH = ("rss", "app", "ldlp")


@dataclass(frozen=True)
class MultiCoreRow:
    """One rendered (scheduler, dispatch, core count) combination."""

    scheduler: str
    dispatch: str
    cores: int
    result: MultiCoreRunResult
    imbalance: float


@dataclass(frozen=True)
class MultiCoreSweepResult:
    """The assembled dispatch sweep: one row per combination."""

    rows: tuple[MultiCoreRow, ...]

    def top_cores(self) -> int:
        """The highest swept core count."""
        return max(row.cores for row in self.rows)

    def imiss_ratio(self, scheduler: str, improved: str = "ldlp",
                    baseline: str = "rss") -> float:
        """I-miss/msg ratio of two dispatch policies at the top core count.

        Below 1 means ``improved`` keeps layer code more cache-resident
        than ``baseline`` — the receive-side-dispatch locality claim.
        """
        top = self.top_cores()
        by_dispatch = {
            row.dispatch: row.result.aggregate.misses.instruction
            for row in self.rows
            if row.scheduler == scheduler and row.cores == top
        }
        base = by_dispatch.get(baseline, float("nan"))
        new = by_dispatch.get(improved, float("nan"))
        if not base or base != base:
            return float("nan")
        return new / base

    def render(self) -> str:
        """The dispatch-sweep table (throughput, misses, imbalance)."""
        table_rows = []
        for row in self.rows:
            aggregate = row.result.aggregate
            table_rows.append(
                [
                    row.scheduler,
                    row.dispatch,
                    row.cores,
                    aggregate.offered,
                    aggregate.completed,
                    aggregate.dropped,
                    f"{aggregate.delivered_rate / 1e3:.1f}k/s",
                    f"{aggregate.misses.instruction:.0f}",
                    f"{aggregate.misses.data:.0f}",
                    f"{row.imbalance:.2f}",
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


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

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


def assemble(
    points: list[SweepPoint], results: dict[str, Any]
) -> MultiCoreSweepResult:
    """Rebuild the sweep table from point results."""
    rows = []
    for point in points:
        data = results[point.key]
        rows.append(
            MultiCoreRow(
                scheduler=point.params["scheduler"],
                dispatch=point.params["dispatch"],
                cores=int(point.params["cores"]),
                result=MultiCoreRunResult.from_dict(data["result"]),
                imbalance=float(data["dispatch_imbalance"]),
            )
        )
    return MultiCoreSweepResult(rows=tuple(rows))


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """The pinned multi-core curves.

    Per (scheduler, dispatch) at the top swept core count: I-misses per
    message and delivered throughput.  Per scheduler: the LDLP-vs-RSS
    I-miss ratio at that core count, which the claims bound.
    """
    sweep = assemble(points, results)
    top = sweep.top_cores()
    quantities: dict[str, float] = {}
    schedulers = []
    for row in sweep.rows:
        if row.cores != top:
            continue
        if row.scheduler not in schedulers:
            schedulers.append(row.scheduler)
        prefix = f"{row.scheduler}/{row.dispatch}/cores={top}"
        quantities[f"{prefix}/imiss_per_msg"] = (
            row.result.aggregate.misses.instruction
        )
        quantities[f"{prefix}/kmsg_per_s"] = (
            row.result.aggregate.delivered_rate / 1e3
        )
    for scheduler in schedulers:
        quantities[f"{scheduler}/ldlp_vs_rss_imiss"] = sweep.imiss_ratio(
            scheduler
        )
    return quantities


def _locality_holds(points, results) -> bool:
    """Batching schedulers' LDLP-vs-RSS I-miss ratio below 0.5, the
    per-message schedulers' within 5% of 1."""
    sweep = assemble(points, results)
    return all(
        sweep.imiss_ratio(scheduler) < 0.5
        if scheduler in ("ldlp", "grouped")
        else abs(sweep.imiss_ratio(scheduler) - 1) <= 0.05
        for scheduler in {row.scheduler for row in sweep.rows}
    )


SWEEP = SweepSpec(
    name="multicore",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    claims=(
        Claim("at the top core count LDLP-aware dispatch at least halves a batching "
              "scheduler's I-misses/msg against RSS, and leaves a per-message "
              "scheduler's within 5%", "§4, N-core dispatch extension",
              _locality_holds),
    ),
)
