"""Experiment F5 — Figure 5: cache misses per message vs arrival rate.

Runs the Section-4 synthetic benchmark (five 6 KB layers, 552-byte
Poisson messages, 100 MHz CPU, 8 KB direct-mapped I/D caches, 20-cycle
miss penalty) for conventional and LDLP scheduling across arrival rates,
and reports instruction and data misses per message — the paper's
Figure 5 series.

Expected shape: conventional stays flat near ~1000 misses/message;
LDLP's instruction misses fall steeply as batching kicks in, data misses
rise slightly, and the curve flattens beyond ~8500 msgs/s where the
batch cap (14 messages in the 8 KB data cache) binds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..harness.points import Claim, SweepPoint, SweepSpec
from ..sim.stats import RunResult
from .report import render_table

#: The paper sweeps 1000..10000 msgs/sec.
PAPER_RATES = tuple(range(1000, 10001, 1000))

#: Default experiment scale: full paper methodology is 100 placements x
#: 1 s; the default here is sized for minutes-scale runs.  The ``paper``
#: scale (``ldlp-experiment figure5 --paper-scale``) is the full version.
DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_DURATION = 0.15


@dataclass(frozen=True)
class Figure5Result:
    rates: tuple[int, ...]
    conventional: list[RunResult]
    ldlp: list[RunResult]

    def series(self, scheduler: str, component: str) -> list[float]:
        """One plotted series: scheduler in {conventional, ldlp},
        component in {instruction, data, total}."""
        results = self.conventional if scheduler == "conventional" else self.ldlp
        return [getattr(r.misses, component, r.misses.total) if component != "total"
                else r.misses.total for r in results]

    def render(self) -> str:
        rows = []
        for index, rate in enumerate(self.rates):
            conv = self.conventional[index]
            ldlp = self.ldlp[index]
            rows.append(
                [
                    rate,
                    f"{conv.misses.instruction:.0f}",
                    f"{conv.misses.data:.0f}",
                    f"{ldlp.misses.instruction:.0f}",
                    f"{ldlp.misses.data:.0f}",
                    f"{ldlp.mean_batch_size:.1f}",
                ]
            )
        return render_table(
            ["rate/s", "conv I", "conv D", "LDLP I", "LDLP D", "batch"],
            rows,
            title="Figure 5: cache misses per message (Poisson, 552-byte messages)",
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

#: (rates, seeds, duration) per harness scale.
SWEEP_SCALES: dict[str, tuple[tuple[int, ...], tuple[int, ...], float]] = {
    "ci": ((1000, 4000, 7000, 9500), (0, 1), 0.1),
    "default": (PAPER_RATES, DEFAULT_SEEDS, DEFAULT_DURATION),
    "paper": (PAPER_RATES, tuple(range(100)), 1.0),
}

SCHEDULERS = ("conventional", "ldlp")


def sweep_points(scale: str) -> list[SweepPoint]:
    """One point per (scheduler, arrival rate): a pure Section-4 run."""
    rates, seeds, duration = SWEEP_SCALES[scale]
    return [
        SweepPoint(
            experiment="figure5",
            key=f"{scheduler}/rate={rate}",
            func="repro.sim.runner:poisson_point",
            params={
                "scheduler": scheduler,
                "rate": rate,
                "seeds": list(seeds),
                "duration": duration,
            },
        )
        for scheduler in SCHEDULERS
        for rate in rates
    ]


def point_series(
    points: list[SweepPoint], results: dict[str, Any], scheduler: str
) -> tuple[tuple[int, ...], list[RunResult]]:
    """Reassemble one scheduler's rate-ordered series from point results."""
    rates: list[int] = []
    series: list[RunResult] = []
    for point in points:
        if point.params["scheduler"] != scheduler:
            continue
        rates.append(int(point.params["rate"]))
        series.append(RunResult.from_dict(results[point.key]))
    return tuple(rates), series


def assemble(points: list[SweepPoint], results: dict[str, Any]) -> Figure5Result:
    rates, conventional = point_series(points, results, "conventional")
    _, ldlp = point_series(points, results, "ldlp")
    return Figure5Result(rates=rates, conventional=conventional, ldlp=ldlp)


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Figure 5's levels: conventional misses/message, LDLP instruction
    misses at both ends of the sweep and their fall, and the top-rate
    miss-count advantage and batch size."""
    figure = assemble(points, results)
    conv_total = [r.misses.total for r in figure.conventional]
    ldlp_i = [r.misses.instruction for r in figure.ldlp]
    return {
        "conv_total_misses_mean": sum(conv_total) / len(conv_total),
        "conv_total_misses_top": conv_total[-1],
        "ldlp_instruction_first": ldlp_i[0],
        "ldlp_instruction_last": ldlp_i[-1],
        "ldlp_instruction_fall_ratio": ldlp_i[0] / max(ldlp_i[-1], 1e-9),
        "ldlp_data_last": figure.ldlp[-1].misses.data,
        "ldlp_over_conv_total_top": (
            figure.ldlp[-1].misses.total / figure.conventional[-1].misses.total
        ),
        "ldlp_batch_top": figure.ldlp[-1].mean_batch_size,
    }


def _conventional_flat_near_1000(points, results) -> bool:
    totals = [r.misses.total for r in assemble(points, results).conventional]
    mean = sum(totals) / len(totals)
    return all(870 <= t <= 1130 and abs(t - mean) < 0.15 * mean for t in totals)


def _ldlp_data_does_not_fall(points, results) -> bool:
    ldlp = assemble(points, results).ldlp
    return ldlp[-1].misses.data >= 0.8 * ldlp[0].misses.data


SWEEP = SweepSpec(
    name="figure5",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    claims=(
        Claim("conventional flat near 1000 misses/msg: every rate in [870, 1130] "
              "and within 15% of the mean", "§4, Fig. 5", _conventional_flat_near_1000),
        Claim("LDLP instruction misses fall over 5x across the sweep", "§4, Fig. 5",
              lambda p, r: golden_quantities(p, r)["ldlp_instruction_fall_ratio"] > 5),
        Claim("LDLP data misses do not fall (top rate >= 0.8x lowest)", "§4, Fig. 5",
              _ldlp_data_does_not_fall),
        Claim("at the top rate LDLP takes under 35% of conventional's misses",
              "§4, Fig. 5",
              lambda p, r: golden_quantities(p, r)["ldlp_over_conv_total_top"] < 0.35),
    ),
)
