"""Ablations: design-choice sweeps behind the headline figures.

* **A1 batch cap** — why Figure 5's LDLP curve flattens: sweep the
  maximum batch size at a high arrival rate.
* **A2 miss penalty** — Section 1.2's trend argument: sweep the primary
  miss penalty (10 = DEC 3000/400, 20 = the paper's synthetic machine,
  60 instruction slots ≈ 30 cycles = Rosenblum's 1998 projection).
* **A3 layer code size** — Figure 4's large- vs small-message boundary:
  sweep per-layer code size; LDLP's advantage should vanish when the
  whole stack fits in the instruction cache and grow with code size.
* **A4 CISC code density** (Section 5.2) — scale per-layer code size by
  a density factor (1.0 = Alpha, 0.45 = i386) with compute cost held
  fixed.  Denser code means better locality for the conventional
  schedule and a smaller LDLP advantage.
* **A6 instruction prefetch** (Section 4 remark) — sweep the fraction
  of instruction stall hidden by prefetching from the next level.
  Prefetch narrows LDLP's advantage but cannot remove it while any
  instruction stall remains.

A5, the Cord layout compaction, is :mod:`repro.netbsd.cord`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from ..cache.hierarchy import MachineSpec
from ..errors import ConfigurationError
from ..harness.points import Claim, SweepPoint, SweepSpec
from ..sim.runner import SimulationConfig, run_simulation
from ..sim.stats import RunResult
from ..traffic.poisson import PoissonSource
from ..units import format_duration
from .report import render_table

DEFAULT_RATE = 9000.0
DEFAULT_DURATION = 0.15

#: Section 5.2: "The NetBSD TCP and IP code ... is 55% smaller on the
#: i386"; typical i386 code about 40% smaller.  We model the i386 as the
#: same stack at 0.45x code density.
I386_DENSITY = 0.45

#: Per sweep: (parameter column, table title before the arrival rate).
TABLES: dict[str, tuple[str, str]] = {
    "batch_cap": ("cap", "A1: LDLP batch-size cap"),
    "miss_penalty": ("penalty", "A2: miss-penalty sweep"),
    "code_size": ("code B", "A3: per-layer code size"),
    "cisc_density": ("density", "A4: CISC code density (1.0 = Alpha, 0.45 = i386)"),
    "prefetch": ("prefetch", "A6: instruction-prefetch efficiency"),
}


@dataclass(frozen=True)
class SweepResult:
    """One ablation: parameter values and per-scheduler results."""

    title: str
    parameter: str
    values: tuple[float, ...]
    conventional: list[RunResult]
    ldlp: list[RunResult]

    def render(self) -> str:
        rows = []
        for index, value in enumerate(self.values):
            conv = self.conventional[index]
            ldlp = self.ldlp[index]
            rows.append(
                [
                    value,
                    f"{conv.misses.total:.0f}",
                    format_duration(conv.latency.mean),
                    f"{ldlp.misses.total:.0f}",
                    format_duration(ldlp.latency.mean),
                    f"{ldlp.cycles_per_message:.0f}",
                ]
            )
        return render_table(
            [self.parameter, "conv miss", "conv lat", "LDLP miss", "LDLP lat",
             "LDLP cyc/msg"],
            rows,
            title=self.title,
        )


@dataclass(frozen=True)
class AblationsResult:
    """Every swept ablation, in declared order."""

    sweeps: tuple[SweepResult, ...]

    def render(self) -> str:
        return "\n\n".join(sweep.render() for sweep in self.sweeps)


def _run_pair(config_conv: SimulationConfig, config_ldlp: SimulationConfig,
              rate: float, seed: int) -> tuple[RunResult, RunResult]:
    source = PoissonSource(rate, rng=seed)
    arrivals = source.arrival_list(config_conv.duration)
    conv = run_simulation(source, config_conv, seed=seed, arrivals=arrivals)
    ldlp = run_simulation(source, config_ldlp, seed=seed, arrivals=arrivals)
    return conv, ldlp


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)


def _configs_for(
    sweep: str, value: float, duration: float
) -> tuple[SimulationConfig, SimulationConfig]:
    """Conventional and LDLP configurations for one ablation value."""
    if sweep == "batch_cap":
        conv = SimulationConfig(scheduler="conventional", duration=duration)
        ldlp = SimulationConfig(
            scheduler="ldlp", duration=duration, batch_limit=int(value)
        )
    elif sweep == "miss_penalty":
        spec = MachineSpec(miss_penalty=int(value))
        conv = SimulationConfig(
            scheduler="conventional", duration=duration, spec=spec
        )
        ldlp = SimulationConfig(scheduler="ldlp", duration=duration, spec=spec)
    elif sweep in ("code_size", "cisc_density"):
        # Density scales the 6 KB layer with compute cost held fixed.
        code = (
            int(value)
            if sweep == "code_size"
            else max(512, int(6144 * value) // 32 * 32)
        )
        conv = SimulationConfig(
            scheduler="conventional", duration=duration, layer_code_bytes=code
        )
        ldlp = SimulationConfig(
            scheduler="ldlp", duration=duration, layer_code_bytes=code
        )
    elif sweep == "prefetch":
        spec = MachineSpec(iprefetch_efficiency=float(value))
        conv = SimulationConfig(
            scheduler="conventional", duration=duration, spec=spec
        )
        ldlp = SimulationConfig(scheduler="ldlp", duration=duration, spec=spec)
    else:
        raise ConfigurationError(f"unknown ablation sweep {sweep!r}")
    return conv, ldlp


def compute_point(
    sweep: str, value: float, rate: float, duration: float, seed: int = 0,
    engine: str = "vec",
) -> dict:
    """One ablation value: conventional vs LDLP on the same arrivals."""
    conv_cfg, ldlp_cfg = _configs_for(sweep, value, duration)
    conv_cfg = replace(conv_cfg, engine=engine)
    ldlp_cfg = replace(ldlp_cfg, engine=engine)
    conv, ldlp = _run_pair(conv_cfg, ldlp_cfg, rate, seed)
    return {"conventional": conv.to_dict(), "ldlp": ldlp.to_dict()}


#: Per scale: {sweep: (values, rate)} plus the shared duration.
SWEEP_SCALES: dict[str, tuple[dict[str, tuple[tuple[float, ...], float]], float]] = {
    "ci": (
        {
            "batch_cap": ((1, 8, 14), DEFAULT_RATE),
            "miss_penalty": ((0, 20, 60), 6000.0),
            "code_size": ((1024, 6144, 12288), 4000.0),
            "prefetch": ((0.0, 0.5), 6000.0),
        },
        0.08,
    ),
    "default": (
        {
            "batch_cap": ((1, 2, 4, 8, 14, 24, 32), DEFAULT_RATE),
            "miss_penalty": ((0, 10, 20, 30, 60), 6000.0),
            "code_size": ((1024, 2048, 4096, 6144, 8192, 12288), 4000.0),
            "cisc_density": ((1.0, I386_DENSITY), 5000.0),
            "prefetch": ((0.0, 0.25, 0.5, 0.75), 6000.0),
        },
        DEFAULT_DURATION,
    ),
    "paper": (
        {
            "batch_cap": ((1, 2, 4, 8, 14, 24, 32), DEFAULT_RATE),
            "miss_penalty": ((0, 10, 20, 30, 60), 6000.0),
            "code_size": ((1024, 2048, 4096, 6144, 8192, 12288), 4000.0),
            "cisc_density": ((1.0, I386_DENSITY), 5000.0),
            "prefetch": ((0.0, 0.25, 0.5, 0.75), 6000.0),
        },
        0.5,
    ),
}


def sweep_points(scale: str) -> list[SweepPoint]:
    sweeps, duration = SWEEP_SCALES[scale]
    return [
        SweepPoint(
            experiment="ablations",
            key=f"{sweep}={value:g}",
            func="repro.experiments.ablations:compute_point",
            params={
                "sweep": sweep,
                "value": value,
                "rate": rate,
                "duration": duration,
                "seed": 0,
            },
        )
        for sweep, (values, rate) in sweeps.items()
        for value in values
    ]


def _pair(results: dict[str, Any], key: str) -> tuple[RunResult, RunResult]:
    data = results[key]
    return (
        RunResult.from_dict(data["conventional"]),
        RunResult.from_dict(data["ldlp"]),
    )


def assemble(points: list[SweepPoint], results: dict[str, Any]) -> AblationsResult:
    """Group the point results into one titled table per sweep."""
    grouped: dict[str, list[SweepPoint]] = {}
    for point in points:
        grouped.setdefault(point.params["sweep"], []).append(point)
    sweeps = []
    for sweep, members in grouped.items():
        parameter, label = TABLES[sweep]
        pairs = [_pair(results, point.key) for point in members]
        sweeps.append(
            SweepResult(
                title=f"{label} at {members[0].params['rate']:.0f} msgs/s",
                parameter=parameter,
                values=tuple(float(point.params["value"]) for point in members),
                conventional=[conv for conv, _ in pairs],
                ldlp=[ldlp for _, ldlp in pairs],
            )
        )
    return AblationsResult(sweeps=tuple(sweeps))


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """LDLP-over-conventional ratios at each sweep's two ends: misses
    for the batch cap, cycles per message for the rest."""
    del points
    quantities: dict[str, float] = {}
    for key, label in (
        ("batch_cap=1", "batch1"),
        ("batch_cap=14", "batch14"),
        ("miss_penalty=0", "penalty0"),
        ("miss_penalty=60", "penalty60"),
        ("code_size=1024", "code_small"),
        ("code_size=12288", "code_big"),
        ("prefetch=0.5", "prefetch_half"),
    ):
        if key not in results:
            continue
        conv, ldlp = _pair(results, key)
        if key.startswith("batch_cap"):
            quantities[f"{label}_miss_ratio"] = (
                ldlp.misses.total / max(conv.misses.total, 1e-9)
            )
        else:
            quantities[f"{label}_cycles_ratio"] = (
                ldlp.cycles_per_message / max(conv.cycles_per_message, 1e-9)
            )
    return quantities


def _advantage_vanishes(points, results) -> bool:
    quantities = golden_quantities(points, results)
    return all(
        0.95 <= quantities[name] <= 1.05
        for name in ("batch1_miss_ratio", "penalty0_cycles_ratio", "code_small_cycles_ratio")
    )


SWEEP = SweepSpec(
    name="ablations",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    claims=(
        Claim("LDLP's advantage vanishes with a batch cap of 1, a zero miss penalty "
              "or cache-resident code: LDLP within 5% of conventional",
              "§1.2, Fig. 4", _advantage_vanishes),
    ),
)
