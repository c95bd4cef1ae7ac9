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

from typing import Any

from ..harness.points import Claim, SweepPoint, SweepSpec
from ..sim.stats import RunResult
from .report import render_table, scheduler_pairs

#: The paper sweeps 1000..10000 msgs/sec.
PAPER_RATES = tuple(range(1000, 10001, 1000))

#: Default experiment scale: full paper methodology is 100 placements x
#: 1 s; the default here is sized for minutes-scale runs.  The ``paper``
#: scale (``ldlp-experiment figure5 --paper-scale``) is the full version.
DEFAULT_SEEDS = (0, 1, 2)
DEFAULT_DURATION = 0.15


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


def pairs(points: list[SweepPoint], results: dict[str, Any]) -> list:
    """``(rate, conventional, LDLP)`` run results per swept rate."""
    return scheduler_pairs(points, results, "rate", RunResult.from_dict)


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Both schedulers' misses per message, and LDLP's batch, per rate."""
    return render_table(
        ["rate/s", "conv I", "conv D", "LDLP I", "LDLP D", "batch"],
        [
            [
                rate,
                f"{conv.misses.instruction:.0f}",
                f"{conv.misses.data:.0f}",
                f"{ldlp.misses.instruction:.0f}",
                f"{ldlp.misses.data:.0f}",
                f"{ldlp.mean_batch_size:.1f}",
            ]
            for rate, conv, ldlp in pairs(points, results)
        ],
        title="Figure 5: cache misses per message (Poisson, 552-byte messages)",
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Figure 5's levels: conventional misses/message, LDLP instruction
    misses at both ends of the sweep and their fall, and the top-rate
    miss-count advantage and batch size."""
    swept = pairs(points, results)
    conv_total = [conv.misses.total for _, conv, _ in swept]
    ldlp_i = [ldlp.misses.instruction for _, _, ldlp in swept]
    _, top_conv, top_ldlp = swept[-1]
    return {
        "conv_total_misses_mean": sum(conv_total) / len(conv_total),
        "conv_total_misses_top": conv_total[-1],
        "ldlp_instruction_first": ldlp_i[0],
        "ldlp_instruction_last": ldlp_i[-1],
        "ldlp_instruction_fall_ratio": ldlp_i[0] / max(ldlp_i[-1], 1e-9),
        "ldlp_data_last": top_ldlp.misses.data,
        "ldlp_over_conv_total_top": top_ldlp.misses.total / top_conv.misses.total,
        "ldlp_batch_top": top_ldlp.mean_batch_size,
    }


def _conventional_flat_near_1000(points, results) -> bool:
    totals = [conv.misses.total for _, conv, _ in pairs(points, results)]
    mean = sum(totals) / len(totals)
    return all(870 <= t <= 1130 and abs(t - mean) < 0.15 * mean for t in totals)


def _ldlp_data_does_not_fall(points, results) -> bool:
    swept = pairs(points, results)
    return swept[-1][2].misses.data >= 0.8 * swept[0][2].misses.data


SWEEP = SweepSpec(
    name="figure5",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
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
