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

from dataclasses import dataclass
from typing import Any

from ..cache.hierarchy import MachineSpec
from ..harness.points import SweepPoint, SweepSpec, Tolerance
from ..sim.runner import SimulationConfig, run_simulation
from ..sim.stats import RunResult, merge_results
from ..traffic.bellcore import TraceSource, synthesize_bellcore_like
from ..units import format_duration, mhz
from .report import render_table

#: Clock sweep from the figure's x-axis.
PAPER_CLOCKS_MHZ = (10, 20, 30, 40, 50, 60, 70, 80)

DEFAULT_DURATION = 0.6
DEFAULT_MEAN_RATE = 1200.0
DEFAULT_SEEDS = (0, 1)


@dataclass(frozen=True)
class Figure7Result:
    clocks_mhz: tuple[int, ...]
    conventional: list[RunResult]
    ldlp: list[RunResult]

    def shape_holds(self) -> bool:
        """Latency falls as the clock rises, and LDLP tolerates much
        lower clock rates than conventional before saturating."""
        conv = [r.latency.mean for r in self.conventional]
        ldlp = [r.latency.mean for r in self.ldlp]
        falling_conv = conv[0] > conv[-1]
        falling_ldlp = ldlp[0] > ldlp[-1]
        # At mid-range clocks conventional is already saturated while
        # LDLP is not: compare at 30-40 MHz.
        mid = min(range(len(self.clocks_mhz)),
                  key=lambda i: abs(self.clocks_mhz[i] - 40))
        advantage = ldlp[mid] < conv[mid]
        return falling_conv and falling_ldlp and advantage

    def render(self) -> str:
        rows = []
        for index, clock in enumerate(self.clocks_mhz):
            conv = self.conventional[index]
            ldlp = self.ldlp[index]
            rows.append(
                [
                    clock,
                    format_duration(conv.latency.mean),
                    conv.dropped,
                    format_duration(ldlp.latency.mean),
                    ldlp.dropped,
                    f"{ldlp.mean_batch_size:.1f}",
                ]
            )
        return render_table(
            ["MHz", "conv mean", "conv drops", "LDLP mean", "LDLP drops", "batch"],
            rows,
            title="Figure 7: latency vs CPU clock (self-similar Ethernet-like trace)",
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)


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
    alone, so the point stays a pure function of its parameters.
    """
    spec = MachineSpec(clock_hz=mhz(clock_mhz))
    per_seed = []
    for seed in seeds:
        stream = synthesize_bellcore_like(duration, mean_rate=mean_rate, rng=seed)
        config = SimulationConfig(
            scheduler=scheduler,
            duration=duration,
            spec=spec,
            # Ethernet frames reach 1518 bytes.
            buffer_size=2048,
            engine=engine,
        )
        per_seed.append(
            run_simulation(TraceSource(stream), config, seed=seed, arrivals=stream)
        )
    return merge_results(per_seed).to_dict()


#: (clocks, seeds, duration, mean rate) per harness scale.
SWEEP_SCALES: dict[str, tuple[tuple[int, ...], tuple[int, ...], float, float]] = {
    "ci": ((10, 20, 40, 80), (0,), 0.4, 1000.0),
    "default": (PAPER_CLOCKS_MHZ, DEFAULT_SEEDS, DEFAULT_DURATION, DEFAULT_MEAN_RATE),
    "paper": (PAPER_CLOCKS_MHZ, tuple(range(10)), 1.0, DEFAULT_MEAN_RATE),
}


def sweep_points(scale: str) -> list[SweepPoint]:
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


def _series(
    points: list[SweepPoint], results: dict[str, Any], scheduler: str
) -> tuple[tuple[int, ...], list[RunResult]]:
    clocks: list[int] = []
    series: list[RunResult] = []
    for point in points:
        if point.params["scheduler"] != scheduler:
            continue
        clocks.append(int(point.params["clock_mhz"]))
        series.append(RunResult.from_dict(results[point.key]))
    return tuple(clocks), series


def assemble(points: list[SweepPoint], results: dict[str, Any]) -> Figure7Result:
    clocks, conventional = _series(points, results, "conventional")
    _, ldlp = _series(points, results, "ldlp")
    return Figure7Result(
        clocks_mhz=clocks, conventional=conventional, ldlp=ldlp
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Figure 7's claims: latency falls with the clock, LDLP batches to
    survive slow clocks, and holds a mid-range (~40 MHz) advantage."""
    figure = assemble(points, results)
    mid = min(
        range(len(figure.clocks_mhz)),
        key=lambda i: abs(figure.clocks_mhz[i] - 40),
    )
    return {
        "conv_latency_slowest_ms": 1e3 * figure.conventional[0].latency.mean,
        "conv_latency_fastest_ms": 1e3 * figure.conventional[-1].latency.mean,
        "ldlp_latency_mid_ms": 1e3 * figure.ldlp[mid].latency.mean,
        "conv_over_ldlp_mid": (
            figure.conventional[mid].latency.mean / figure.ldlp[mid].latency.mean
        ),
        "ldlp_batch_slowest": figure.ldlp[0].mean_batch_size,
        "ldlp_batch_fastest": figure.ldlp[-1].mean_batch_size,
    }


SWEEP = SweepSpec(
    name="figure7",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    default_tolerance=Tolerance(rel=0.3),
    tolerances={
        "conv_over_ldlp_mid": Tolerance(rel=0.5),
        "ldlp_batch_fastest": Tolerance(rel=0.3, abs=0.5),
    },
)
