"""Fault campaigns: degradation sweeps through the parallel harness.

The ``faults`` experiment sweeps overload level x drop policy x
scheduler with a fixed wire-fault plan (loss, duplication, reordering,
jitter) plus periodic cache flushes, and reports each combination's
drop rate and tail latency — the degradation curves the robustness
claims pin as goldens.

Every sweep point is the pure module-level :func:`fault_point`, so the
campaign parallelizes over the harness worker pool and caches by
content hash like any other experiment; the whole fault plan rides in
the point parameters as JSON (see
:meth:`repro.faults.plan.FaultPlan.to_params`), making runs
byte-identical at any ``--jobs``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..cache.hierarchy import MachineSpec
from ..experiments.report import render_table
from ..harness.points import SweepPoint, SweepSpec
from ..sim.runner import SimulationConfig, run_simulation
from ..sim.stats import RunResult, merge_results
from ..traffic.poisson import PoissonSource
from ..units import format_duration
from .injectors import DelayFault, DuplicateFault, LossFault, ReorderFault
from .plan import FaultPlan

#: Schedulers the degradation campaign compares (the paper's three).
CAMPAIGN_SCHEDULERS = ("conventional", "ilp", "ldlp")


def campaign_plan(loss: float = 0.02) -> FaultPlan:
    """The standard degradation-campaign fault plan.

    A representative dirty network: ``loss`` wire loss, 1% duplication,
    2% reordering over a 4-packet span, 1% exponential jitter — plus a
    cache flush every 2M cycles (a ~50 Hz interrupt at the paper's
    100 MHz clock) to keep the caches honest mid-overload.
    """
    return FaultPlan(
        stages=(
            LossFault(rate=loss),
            DuplicateFault(rate=0.01, delay=1e-4),
            ReorderFault(rate=0.02, span=4),
            DelayFault(rate=0.01, mean=2e-4),
        ),
        flush_period_cycles=2e6,
    )


def fault_point(
    scheduler: str,
    policy: str,
    rate: float,
    seeds: list[int],
    duration: float,
    plan: dict[str, Any],
    engine: str = "vec",
) -> dict[str, Any]:
    """One (scheduler, policy, overload-rate) campaign point.

    Pure function of its JSON parameters (harness contract): per seed,
    draw a Poisson arrival stream, push it through the fault plan, and
    run the synthetic benchmark with the requested drop policy, derated
    clock and flush period.  Returns the seed-merged
    :class:`~repro.sim.stats.RunResult`; ``conservation_violations`` is
    always 0 (every run enforces conservation) and kept for the digests.
    """
    fault_plan = FaultPlan.from_params(plan)
    spec = fault_plan.derated_spec(MachineSpec())
    config = SimulationConfig(
        scheduler=scheduler,
        duration=duration,
        spec=spec,
        drop_policy=policy,
        flush_period_cycles=fault_plan.flush_period_cycles,
        engine=engine,
    )
    results = []
    for seed in seeds:
        source = PoissonSource(rate, rng=seed)
        arrivals = fault_plan.apply(source.arrival_list(duration), seed)
        results.append(run_simulation(source, config, seed=seed, arrivals=arrivals))
    return {
        "result": merge_results(results).to_dict(),
        "policy": policy,
        "conservation_violations": 0,
    }


@dataclass(frozen=True)
class FaultRow:
    """One rendered campaign combination."""

    scheduler: str
    policy: str
    rate: float
    result: RunResult


@dataclass(frozen=True)
class FaultsResult:
    """The assembled degradation campaign: one row per combination."""

    rows: tuple[FaultRow, ...]

    def top_rate(self) -> float:
        """The highest (most overloaded) swept arrival rate."""
        return max(row.rate for row in self.rows)

    def render(self) -> str:
        """The degradation-curve table (drops and tail latency)."""
        table_rows = []
        for row in self.rows:
            result = row.result
            table_rows.append(
                [
                    row.scheduler,
                    row.policy,
                    f"{row.rate:.0f}",
                    result.offered,
                    result.completed,
                    result.dropped,
                    f"{100 * result.drop_fraction:.1f}%",
                    format_duration(result.latency.p99),
                ]
            )
        return render_table(
            [
                "scheduler",
                "policy",
                "rate/s",
                "offered",
                "done",
                "drops",
                "drop%",
                "p99",
            ],
            table_rows,
            title=(
                "Fault campaign: degradation under overload "
                "(lossy/reordering network + periodic cache flushes)"
            ),
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

#: (rates, policies, seeds, duration) per harness scale.
SWEEP_SCALES: dict[
    str, tuple[tuple[int, ...], tuple[str, ...], tuple[int, ...], float]
] = {
    "ci": ((6000, 9000, 12000), ("tail", "head"), (0, 1), 0.08),
    "default": (
        (6000, 9000, 12000, 15000),
        ("tail", "head", "batch-cap", "adaptive"),
        (0, 1, 2),
        0.1,
    ),
    "paper": (
        (6000, 9000, 12000, 15000),
        ("tail", "head", "batch-cap", "adaptive"),
        tuple(range(10)),
        0.3,
    ),
}


def sweep_points(scale: str) -> list[SweepPoint]:
    """Overload rate x policy x scheduler, under the standard plan."""
    rates, policies, seeds, duration = SWEEP_SCALES[scale]
    plan = campaign_plan().to_params()
    return [
        SweepPoint(
            experiment="faults",
            key=f"{scheduler}/{policy}/rate={rate}",
            func="repro.faults.campaigns:fault_point",
            params={
                "scheduler": scheduler,
                "policy": policy,
                "rate": rate,
                "seeds": list(seeds),
                "duration": duration,
                "plan": plan,
            },
        )
        for scheduler in CAMPAIGN_SCHEDULERS
        for policy in policies
        for rate in rates
    ]


def assemble(points: list[SweepPoint], results: dict[str, Any]) -> FaultsResult:
    """Rebuild the campaign table from point results."""
    rows = []
    for point in points:
        data = results[point.key]
        rows.append(
            FaultRow(
                scheduler=point.params["scheduler"],
                policy=point.params["policy"],
                rate=float(point.params["rate"]),
                result=RunResult.from_dict(data["result"]),
            )
        )
    return FaultsResult(rows=tuple(rows))


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """The pinned degradation curves.

    Per (scheduler, policy): drop fraction and p99 latency at the most
    overloaded swept rate — the degradation end-point of each
    combination.
    """
    campaign = assemble(points, results)
    top = campaign.top_rate()
    quantities: dict[str, float] = {}
    for row in campaign.rows:
        if row.rate != top:
            continue
        prefix = f"{row.scheduler}/{row.policy}"
        quantities[f"{prefix}/drop_frac"] = row.result.drop_fraction
        quantities[f"{prefix}/p99_ms"] = 1e3 * row.result.latency.p99
    return quantities


SWEEP = SweepSpec(
    name="faults",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
)
