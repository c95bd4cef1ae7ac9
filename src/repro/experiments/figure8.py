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

from typing import Any

from ..machine.cpu import CPU
from ..cache.hierarchy import DEC3000_400
from ..harness.points import Claim, SweepPoint, SweepSpec
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


#: The four series in column order: (point key, column header).
SERIES = (
    ("bsd/warm", "4.4BSD warm"),
    ("simple/warm", "simple warm"),
    ("bsd/cold", "4.4BSD cold"),
    ("simple/cold", "simple cold"),
)


def cold_crossover(points: list[SweepPoint], results: dict[str, Any]) -> float:
    """Message size where the elaborate routine overtakes, cold."""
    sizes = points[0].params["sizes"]
    cold = zip(sizes, results["bsd/cold"]["cycles"], results["simple/cold"]["cycles"])
    for size, bsd, simple in cold:
        if bsd <= simple:
            return float(size)
    return float("inf")


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Every series' cycles per size, then the cold crossover and
    intercepts against the paper's."""
    columns = [results[key]["cycles"] for key, _ in SERIES]
    table = render_table(
        ["size B"] + [header for _, header in SERIES],
        [
            [size] + [f"{column[index]:.0f}" for column in columns]
            for index, size in enumerate(points[0].params["sizes"])
        ],
        title="Figure 8: checksum cost (CPU cycles), DEC 3000/400 model",
    )
    return (
        table
        + f"\ncold crossover: {cold_crossover(points, results):.0f} B "
        f"(paper ~{PAPER_COLD_CROSSOVER:.0f} B); cold intercepts "
        f"{columns[2][0]:.0f}/{columns[3][0]:.0f} "
        f"(paper {PAPER_BSD_COLD_INTERCEPT:.0f}/{PAPER_SIMPLE_COLD_INTERCEPT:.0f})"
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Figure 8's annotated numbers: the 426/176-cycle cold intercepts
    and the ~900-byte cold crossover, plus warm endpoints."""
    return {
        "bsd_cold_intercept": results["bsd/cold"]["cycles"][0],
        "simple_cold_intercept": results["simple/cold"]["cycles"][0],
        "cold_crossover_bytes": cold_crossover(points, results),
        "bsd_warm_at_1000": results["bsd/warm"]["cycles"][-1],
        "simple_warm_at_1000": results["simple/warm"]["cycles"][-1],
    }


def _cold_intercepts_exact(points, results) -> bool:
    return (results["bsd/cold"]["cycles"][0], results["simple/cold"]["cycles"][0]) == (
        PAPER_BSD_COLD_INTERCEPT, PAPER_SIMPLE_COLD_INTERCEPT
    )


def _warm_elaborate_wins(points, results) -> bool:
    return all(
        bsd <= simple
        for bsd, simple in zip(
            results["bsd/warm"]["cycles"][3:], results["simple/warm"]["cycles"][3:]
        )
    )


SWEEP = SweepSpec(
    name="figure8",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
    claims=(
        Claim("cold-start intercepts are exactly 426 (4.4BSD) and 176 (simple) "
              "cycles", "§5, Fig. 8", _cold_intercepts_exact),
        Claim("cold, the simple routine wins below exactly 900 bytes", "§5, Fig. 8",
              lambda p, r: cold_crossover(p, r) == PAPER_COLD_CROSSOVER),
        Claim("warm, the elaborate routine is never slower from 150 bytes up",
              "§5, Fig. 8", _warm_elaborate_wins),
    ),
)
