"""Multi-core dispatch sweep — throughput and per-core miss rate.

The ``multicore`` experiment sweeps core count x dispatch policy x
scheduler over the synthetic Section-4 stack dispatched across N
modeled cores (:mod:`repro.sim.multicore`), and reports aggregate
throughput, misses per message, and dispatch imbalance for each
combination.  The golden-pinned headline is the locality claim behind
receive-side dispatch: at the top swept core count, LDLP-aware dispatch
must show a lower I-cache miss rate than flow-hash RSS under a batching
scheduler (the pinned ``ldlp/ldlp_vs_rss_imiss`` ratio sits well below
1), because chunked steering lets each core batch arrivals and keep
layer code resident — while under the conventional scheduler the ratio
pins at 1, since per-message processing cannot profit from steering.

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

from ..harness.points import SweepPoint, SweepSpec, Tolerance
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
    I-miss ratio at that core count — the receive-side-dispatch
    locality claim.  For batching schedulers the ratio sits well below
    1; for the conventional scheduler it pins at 1 (per-message
    processing cannot profit from chunked steering, which is itself
    worth pinning).  The sweep-wide conservation-violation count is a
    constant 0: every run enforces conservation itself.
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
    quantities["conservation_violations"] = 0.0
    return quantities


SWEEP = SweepSpec(
    name="multicore",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    sources=(
        "repro.sim",
        "repro.core",
        "repro.cache",
        "repro.machine",
        "repro.traffic",
        "repro.buffers",
        "repro.obs.runtime",
        "repro.units",
        "repro.errors",
        "repro.experiments.report",
        "repro.experiments.multicore",
        "repro.harness.points",
    ),
    default_tolerance=Tolerance(rel=0.4, abs=0.02),
    tolerances={
        "conservation_violations": Tolerance(),
    },
)
