"""Experiment F8 — Figure 8: cache effects in checksum routines.

Compares the elaborate 4.4BSD ``in_cksum`` (992 bytes of active code)
against the simple routine (288 bytes) over message sizes 0..1000, with
warm and cold instruction caches, using the DEC 3000/400 cost model
(10-cycle primary-miss penalty).  The cold costs are produced by
actually running the routines' code footprints through the cache
simulator, not by closed-form arithmetic.

Expected shape: warm — the elaborate routine wins at nearly all sizes;
cold — the simple routine wins up to ~900 bytes; cold-start intercepts
near 426 (4.4BSD) and 176 (simple) cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..machine.cpu import CPU
from ..cache.hierarchy import DEC3000_400
from ..harness.points import SweepPoint, SweepSpec, Tolerance
from ..machine.layout import MemoryLayout
from ..machine.program import Region, RegionKind
from ..protocols.checksum import (
    BSD_CKSUM_MODEL,
    SIMPLE_CKSUM_MODEL,
    ChecksumCostModel,
)
from .report import render_table

PAPER_SIZES = tuple(range(0, 1001, 50))

#: Figure 8's annotated cold-start costs.
PAPER_BSD_COLD_INTERCEPT = 426.0
PAPER_SIMPLE_COLD_INTERCEPT = 176.0
PAPER_COLD_CROSSOVER = 900.0


def checksum_cycles(
    model: ChecksumCostModel,
    message_bytes: int,
    cold: bool,
    spec=DEC3000_400,
) -> float:
    """Cycle cost of one checksum call under the machine model.

    The routine's active code is swept through the instruction cache
    (flushed first when ``cold``); data is assumed cached, as in the
    paper's measurement ("the data being checksummed was in the cache
    in all cases").
    """
    cpu = CPU(spec)
    layout = MemoryLayout(line_size=spec.icache.line_size, rng=0)
    region = Region(model.name, model.active_code_bytes, RegionKind.CODE)
    layout.place_sequential(region)
    lines = region.line_numbers(spec.icache.line_size)
    if not cold:
        # Fill the instruction cache with a throwaway pass, then charge
        # the real call: its fetches must all hit.
        cpu.fetch_code_lines(lines)
        before = cpu.cycles
        cpu.fetch_code_lines(lines)
        stall = cpu.cycles - before
        assert stall == 0, "warm pass must not miss"
        return stall + model.warm_cycles(message_bytes)
    cpu.cold_start()
    before = cpu.cycles
    cpu.fetch_code_lines(lines)
    return (cpu.cycles - before) + model.warm_cycles(message_bytes)


@dataclass(frozen=True)
class Figure8Result:
    sizes: tuple[int, ...]
    bsd_warm: list[float]
    simple_warm: list[float]
    bsd_cold: list[float]
    simple_cold: list[float]

    def cold_crossover(self) -> float:
        """Message size where the elaborate routine overtakes, cold."""
        for size, bsd, simple in zip(self.sizes, self.bsd_cold, self.simple_cold):
            if bsd <= simple:
                return float(size)
        return float("inf")

    def shape_holds(self) -> bool:
        warm_ok = sum(
            bsd <= simple
            for bsd, simple in zip(self.bsd_warm[3:], self.simple_warm[3:])
        ) == len(self.sizes) - 3
        crossover = self.cold_crossover()
        crossover_ok = 700 <= crossover <= 1000
        intercepts_ok = (
            abs(self.bsd_cold[0] - PAPER_BSD_COLD_INTERCEPT) < 40
            and abs(self.simple_cold[0] - PAPER_SIMPLE_COLD_INTERCEPT) < 40
        )
        return warm_ok and crossover_ok and intercepts_ok

    def render(self) -> str:
        rows = []
        for index, size in enumerate(self.sizes):
            rows.append(
                [
                    size,
                    f"{self.bsd_warm[index]:.0f}",
                    f"{self.simple_warm[index]:.0f}",
                    f"{self.bsd_cold[index]:.0f}",
                    f"{self.simple_cold[index]:.0f}",
                ]
            )
        table = render_table(
            ["size B", "4.4BSD warm", "simple warm", "4.4BSD cold", "simple cold"],
            rows,
            title="Figure 8: checksum cost (CPU cycles), DEC 3000/400 model",
        )
        return (
            table
            + f"\ncold crossover: {self.cold_crossover():.0f} B "
            f"(paper ~{PAPER_COLD_CROSSOVER:.0f} B); cold intercepts "
            f"{self.bsd_cold[0]:.0f}/{self.simple_cold[0]:.0f} "
            f"(paper {PAPER_BSD_COLD_INTERCEPT:.0f}/{PAPER_SIMPLE_COLD_INTERCEPT:.0f})"
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

_MODELS = {"bsd": BSD_CKSUM_MODEL, "simple": SIMPLE_CKSUM_MODEL}


def checksum_point(model: str, cold: bool, sizes: list[int]) -> dict:
    """One checksum series: a routine swept over message sizes."""
    cost_model = _MODELS[model]
    return {
        "cycles": [
            checksum_cycles(cost_model, size, cold=cold) for size in sizes
        ]
    }


def sweep_points(scale: str) -> list[SweepPoint]:
    """Four points (routine x cache temperature); the experiment is
    deterministic and fast, so every scale runs the full size sweep."""
    del scale
    return [
        SweepPoint(
            experiment="figure8",
            key=f"{model}/{'cold' if cold else 'warm'}",
            func="repro.experiments.figure8:checksum_point",
            params={"model": model, "cold": cold, "sizes": list(PAPER_SIZES)},
        )
        for model in ("bsd", "simple")
        for cold in (False, True)
    ]


def assemble(points: list[SweepPoint], results: dict[str, Any]) -> Figure8Result:
    del points
    return Figure8Result(
        sizes=PAPER_SIZES,
        bsd_warm=results["bsd/warm"]["cycles"],
        simple_warm=results["simple/warm"]["cycles"],
        bsd_cold=results["bsd/cold"]["cycles"],
        simple_cold=results["simple/cold"]["cycles"],
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Figure 8's annotated numbers: the 426/176-cycle cold intercepts
    and the ~900-byte cold crossover, plus warm endpoints."""
    figure = assemble(points, results)
    return {
        "bsd_cold_intercept": figure.bsd_cold[0],
        "simple_cold_intercept": figure.simple_cold[0],
        "cold_crossover_bytes": figure.cold_crossover(),
        "bsd_warm_at_1000": figure.bsd_warm[-1],
        "simple_warm_at_1000": figure.simple_warm[-1],
    }


SWEEP = SweepSpec(
    name="figure8",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    # The checksum model is deterministic: exact reproduction (a hair of
    # absolute slack for float accumulation across numpy builds).
    default_tolerance=Tolerance(abs=1e-6),
)
