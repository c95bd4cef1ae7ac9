"""Experiment F6 — Figure 6: latency vs arrival rate (Poisson traffic).

Same setup as Figure 5, reporting mean message latency.  Expected
shape: identical at low load; conventional saturates (latency pinned
near the 500-packet buffer bound, with drops) well before 10 k msgs/s;
LDLP holds sub-millisecond-to-few-millisecond latency almost to 10 k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..harness.points import SweepPoint, SweepSpec, Tolerance
from ..sim.stats import RunResult
from ..units import format_duration
from .figure5 import DEFAULT_DURATION, DEFAULT_SEEDS, PAPER_RATES, point_series
from .report import render_table


@dataclass(frozen=True)
class Figure6Result:
    rates: tuple[int, ...]
    conventional: list[RunResult]
    ldlp: list[RunResult]

    def shape_holds(self) -> bool:
        """The paper's qualitative claims about Figure 6."""
        conv = self.conventional
        ldlp = self.ldlp
        # Comparable at the lowest rate (within 3x either way).
        low_ratio = conv[0].latency.mean / ldlp[0].latency.mean
        comparable = 1 / 3 <= low_ratio <= 3
        # Conventional saturates: latency at the top rate beyond 10 ms
        # and drops occur; LDLP stays below 10 ms at 9000/s.
        conv_saturated = conv[-1].latency.mean > 10e-3 and conv[-1].dropped > 0
        ldlp_index = self.rates.index(9000) if 9000 in self.rates else -1
        ldlp_ok = ldlp[ldlp_index].latency.mean < 10e-3
        # LDLP latency is never dramatically worse than conventional.
        never_worse = all(
            l.latency.mean < max(3 * c.latency.mean, 2e-3)
            for c, l in zip(conv, ldlp)
        )
        return comparable and conv_saturated and ldlp_ok and never_worse

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
    """Figure 6's claims: comparable at low load, conventional saturates
    with drops well before 10 k msgs/s, LDLP holds low latency to ~9 k."""
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


SWEEP = SweepSpec(
    name="figure6",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    default_tolerance=Tolerance(rel=0.25),
    tolerances={
        "low_rate_conv_over_ldlp": Tolerance(rel=0.5),
        "conv_drops_top": Tolerance(rel=0.3, abs=50.0),
        "ldlp_latency_9000_ms": Tolerance(rel=0.5),
        "ldlp_drops_total": Tolerance(rel=0.5, abs=100.0),
    },
)
