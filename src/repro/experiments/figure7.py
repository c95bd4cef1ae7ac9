"""Experiment F7 — Figure 7: latency vs CPU clock on Ethernet traces.

The paper replays the Bellcore October-1989 Ethernet trace and varies
the simulated CPU clock from 10 to 80 MHz: "In general, as CPU speed
falls, latency increases.  When processor speed falls below 40 MHz, the
LDLP version batches packets to maintain throughput."

We substitute a synthetic self-similar trace (see DESIGN.md): aggregated
Pareto ON/OFF sources with the 1989 LAN packet-size mix.  A real
Bellcore trace file replays through ``read_bellcore_trace`` and
``run_simulation`` (see EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Any

from ..cache.hierarchy import MachineSpec
from ..harness.points import Claim, SweepPoint, SweepSpec
from ..sim.runner import SimulationConfig, run_simulation
from ..sim.stats import RunResult, merge_results
from ..traffic.bellcore import bellcore_like_source
from ..units import format_duration, mhz
from .report import render_table, scheduler_pairs

#: Clock sweep from the figure's x-axis.
PAPER_CLOCKS_MHZ = (10, 20, 30, 40, 50, 60, 70, 80)

DEFAULT_DURATION = 0.6
DEFAULT_MEAN_RATE = 1200.0
DEFAULT_SEEDS = (0, 1)


def clock_point(
    scheduler: str,
    clock_mhz: int,
    seeds: list[int],
    duration: float,
    mean_rate: float,
    engine: str = "vec",
) -> dict:
    """One (scheduler, CPU clock) point on the self-similar trace.

    Each seed's trace is synthesized inside the point from the seed
    alone, so the point stays a pure function of its parameters; the
    run takes the source's columns straight.
    """
    spec = MachineSpec(clock_hz=mhz(clock_mhz))
    per_seed = []
    for seed in seeds:
        source = bellcore_like_source(mean_rate=mean_rate, rng=seed)
        config = SimulationConfig(
            scheduler=scheduler,
            duration=duration,
            spec=spec,
            # Ethernet frames reach 1518 bytes.
            buffer_size=2048,
            engine=engine,
        )
        per_seed.append(run_simulation(source, config, seed=seed))
    return merge_results(per_seed).to_dict()


#: (clocks, seeds, duration, mean rate) per harness scale.
SWEEP_SCALES: dict[str, tuple[tuple[int, ...], tuple[int, ...], float, float]] = {
    "ci": ((10, 20, 40, 80), (0,), 0.4, 1000.0),
    "default": (PAPER_CLOCKS_MHZ, DEFAULT_SEEDS, DEFAULT_DURATION, DEFAULT_MEAN_RATE),
    "paper": (PAPER_CLOCKS_MHZ, tuple(range(10)), 1.0, DEFAULT_MEAN_RATE),
}


def sweep_points(scale: str) -> list[SweepPoint]:
    """One point per (scheduler, CPU clock) on the self-similar trace."""
    clocks, seeds, duration, mean_rate = SWEEP_SCALES[scale]
    return [
        SweepPoint(
            experiment="figure7",
            key=f"{scheduler}/clock={clock}MHz",
            func="repro.experiments.figure7:clock_point",
            params={
                "scheduler": scheduler,
                "clock_mhz": clock,
                "seeds": list(seeds),
                "duration": duration,
                "mean_rate": mean_rate,
            },
        )
        for scheduler in ("conventional", "ldlp")
        for clock in clocks
    ]


def pairs(points: list[SweepPoint], results: dict[str, Any]) -> list:
    """``(clock MHz, conventional, LDLP)`` run results per swept clock."""
    return scheduler_pairs(points, results, "clock_mhz", RunResult.from_dict)


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Both schedulers' mean latency and drops, and LDLP's batch, per
    clock."""
    return render_table(
        ["MHz", "conv mean", "conv drops", "LDLP mean", "LDLP drops", "batch"],
        [
            [
                clock,
                format_duration(conv.latency.mean),
                conv.dropped,
                format_duration(ldlp.latency.mean),
                ldlp.dropped,
                f"{ldlp.mean_batch_size:.1f}",
            ]
            for clock, conv, ldlp in pairs(points, results)
        ],
        title="Figure 7: latency vs CPU clock (self-similar Ethernet-like trace)",
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Figure 7's levels: latency at both clock extremes and near
    40 MHz, and LDLP's batch size at both extremes."""
    clocks, conv, ldlp = zip(*pairs(points, results))
    mid = min(range(len(clocks)), key=lambda i: abs(clocks[i] - 40))
    return {
        "conv_latency_slowest_ms": 1e3 * conv[0].latency.mean,
        "conv_latency_fastest_ms": 1e3 * conv[-1].latency.mean,
        "ldlp_latency_mid_ms": 1e3 * ldlp[mid].latency.mean,
        "conv_over_ldlp_mid": conv[mid].latency.mean / ldlp[mid].latency.mean,
        "ldlp_batch_slowest": ldlp[0].mean_batch_size,
        "ldlp_batch_fastest": ldlp[-1].mean_batch_size,
    }


def _latency_rises_as_clock_falls(points, results) -> bool:
    _, conv, ldlp = zip(*pairs(points, results))
    return all(series[0].latency.mean > series[-1].latency.mean for series in (conv, ldlp))


def _ldlp_batches_when_slow(points, results) -> bool:
    swept = pairs(points, results)
    return swept[0][2].mean_batch_size > swept[-1][2].mean_batch_size


SWEEP = SweepSpec(
    name="figure7",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
    claims=(
        Claim("latency rises as the CPU clock falls, both schedulers", "Fig. 7",
              _latency_rises_as_clock_falls),
        Claim("near 40 MHz LDLP's mean latency is below conventional's", "Fig. 7",
              lambda p, r: golden_quantities(p, r)["conv_over_ldlp_mid"] > 1),
        Claim("LDLP batches as the clock falls: slowest-clock mean batch above the "
              "fastest's", "Fig. 7", _ldlp_batches_when_slow),
    ),
)
