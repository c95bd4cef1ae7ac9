"""Experiment F6 — Figure 6: latency vs arrival rate (Poisson traffic).

Same setup as Figure 5, reporting mean message latency.  Expected
shape: identical at low load; conventional saturates (latency pinned
near the 500-packet buffer bound, with drops) well before 10 k msgs/s;
LDLP holds sub-millisecond-to-few-millisecond latency almost to 10 k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..harness.points import Claim, SweepPoint, SweepSpec
from ..sim.stats import RunResult
from ..units import format_duration
from .figure5 import DEFAULT_DURATION, DEFAULT_SEEDS, PAPER_RATES, point_series
from .report import render_table


@dataclass(frozen=True)
class Figure6Result:
    rates: tuple[int, ...]
    conventional: list[RunResult]
    ldlp: list[RunResult]

    def render(self) -> str:
        rows = []
        for index, rate in enumerate(self.rates):
            conv = self.conventional[index]
            ldlp = self.ldlp[index]
            rows.append(
                [
                    rate,
                    format_duration(conv.latency.mean),
                    format_duration(conv.latency.p99),
                    conv.dropped,
                    format_duration(ldlp.latency.mean),
                    format_duration(ldlp.latency.p99),
                    ldlp.dropped,
                ]
            )
        return render_table(
            [
                "rate/s",
                "conv mean",
                "conv p99",
                "conv drops",
                "LDLP mean",
                "LDLP p99",
                "LDLP drops",
            ],
            rows,
            title="Figure 6: latency vs arrival rate (Poisson, 500-packet buffer)",
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

#: (rates, seeds, duration) per harness scale.  The point function and
#: parameters are shared with Figure 5 (the same simulations produce
#: both figures), so at matching scales the result cache serves both
#: experiments from one set of computed points.
SWEEP_SCALES: dict[str, tuple[tuple[int, ...], tuple[int, ...], float]] = {
    "ci": ((1000, 4000, 7000, 9000, 10000), (0, 1), 0.1),
    "default": (PAPER_RATES, DEFAULT_SEEDS, DEFAULT_DURATION),
    "paper": (PAPER_RATES, tuple(range(100)), 1.0),
}


def sweep_points(scale: str) -> list[SweepPoint]:
    rates, seeds, duration = SWEEP_SCALES[scale]
    return [
        SweepPoint(
            experiment="figure6",
            key=f"{scheduler}/rate={rate}",
            func="repro.sim.runner:poisson_point",
            params={
                "scheduler": scheduler,
                "rate": rate,
                "seeds": list(seeds),
                "duration": duration,
            },
        )
        for scheduler in ("conventional", "ldlp")
        for rate in rates
    ]


def assemble(points: list[SweepPoint], results: dict[str, Any]) -> Figure6Result:
    rates, conventional = point_series(points, results, "conventional")
    _, ldlp = point_series(points, results, "ldlp")
    return Figure6Result(rates=rates, conventional=conventional, ldlp=ldlp)


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Figure 6's levels: the low-load latency ratio, conventional's
    saturated latency and drops, and LDLP's latency near 9 k msgs/s."""
    figure = assemble(points, results)
    conv, ldlp = figure.conventional, figure.ldlp
    ldlp_index = figure.rates.index(9000) if 9000 in figure.rates else -1
    return {
        "low_rate_conv_over_ldlp": conv[0].latency.mean / ldlp[0].latency.mean,
        "conv_latency_top_ms": 1e3 * conv[-1].latency.mean,
        "conv_drops_top": float(conv[-1].dropped),
        "ldlp_latency_9000_ms": 1e3 * ldlp[ldlp_index].latency.mean,
        "ldlp_drops_total": float(sum(r.dropped for r in ldlp)),
    }


def _conventional_saturates(points, results) -> bool:
    quantities = golden_quantities(points, results)
    return quantities["conv_latency_top_ms"] > 10 and quantities["conv_drops_top"] > 0


def _ldlp_never_much_worse(points, results) -> bool:
    figure = assemble(points, results)
    return all(
        ldlp.latency.mean < max(3 * conv.latency.mean, 2e-3)
        for conv, ldlp in zip(figure.conventional, figure.ldlp)
    )


SWEEP = SweepSpec(
    name="figure6",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    claims=(
        Claim("comparable at low load: mean latencies within 1.5x at the lowest rate",
              "§4, Fig. 6",
              lambda p, r: 1 / 1.5 <= golden_quantities(p, r)["low_rate_conv_over_ldlp"] <= 1.5),
        Claim("conventional saturates: over 10 ms mean latency, with drops, at the "
              "top rate", "§4, Fig. 6", _conventional_saturates),
        Claim("LDLP holds mean latency under 10 ms at 9000 msgs/s", "§4, Fig. 6",
              lambda p, r: golden_quantities(p, r)["ldlp_latency_9000_ms"] < 10),
        Claim("LDLP latency never above max(3x conventional, 2 ms)", "§4, Fig. 6",
              _ldlp_never_much_worse),
    ),
)
