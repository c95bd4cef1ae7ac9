"""Experiment T3 — Table 3: working-set sensitivity to cache line size.

Reanalyzes the receive-path trace at 4/8/16/32/64-byte lines and prints
the percentage change in bytes and lines versus the 32-byte baseline,
next to the published Table 3.
"""

from __future__ import annotations

from typing import Any

from ..cache.workingset import Category
from ..harness.points import Claim, SweepPoint, SweepSpec
from ..netbsd.layers import PAPER_TABLE3
from ..netbsd.receive_path import ReceivePathModel
from .report import pct, render_table

#: Cell-name prefix per working-set category, in column order.
CATEGORIES = (
    ("code", Category.CODE),
    ("ro", Category.READONLY),
    ("mut", Category.MUTABLE),
)

#: Every Table-3 cell name, in column order; the published value of a
#: cell is the paper row's ``<cell>_pct``.
CELLS = tuple(f"{key}_{unit}" for key, _ in CATEGORIES for unit in ("bytes", "lines"))


def within_tolerance(
    rows: dict[str, dict[str, float]], tolerance_points: float = 15.0
) -> bool:
    """True when every published cell has a measured value within
    ``tolerance_points`` percentage points (scaled up beyond 75%)."""
    for paper_row in PAPER_TABLE3:
        measured = rows[str(paper_row.line_size)]
        for cell in CELLS:
            want = getattr(paper_row, f"{cell}_pct")
            if want is None:
                continue
            got = measured.get(cell)
            if got is None:
                return False
            allowed = tolerance_points * max(1.0, abs(want) / 75.0)
            if abs(got - want) > allowed:
                return False
    return True


def compute_point(seed: int) -> dict:
    """Every defined Table-3 cell (percent change vs 32-byte lines),
    keyed by line size; a category not defined at a line size has no
    cells there."""
    table = ReceivePathModel(seed=seed).analyze().line_size_table()
    rows: dict[str, dict[str, float]] = {}
    for paper_row in PAPER_TABLE3:
        deltas = table.row(paper_row.line_size).deltas
        cells: dict[str, float] = {}
        for key, category in CATEGORIES:
            delta = deltas[category]
            if delta:
                cells[f"{key}_bytes"] = delta.bytes_pct
                cells[f"{key}_lines"] = delta.lines_pct
        rows[str(paper_row.line_size)] = cells
    return {"rows": rows, "within_tolerance": within_tolerance(rows)}


def sweep_points(scale: str) -> list[SweepPoint]:
    """One point: the analysis is deterministic and single-seed at
    every scale."""
    del scale
    return [
        SweepPoint(
            experiment="table3",
            key="seed=0",
            func="repro.experiments.table3:compute_point",
            params={"seed": 0},
        )
    ]


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Measured (published) percent change per cell and line size."""
    rows = results[points[0].key]["rows"]
    table_rows = []
    for paper_row in PAPER_TABLE3:
        measured = rows[str(paper_row.line_size)]
        table_rows.append([paper_row.line_size] + [
            "N/A" if (want := getattr(paper_row, f"{cell}_pct")) is None
            else f"{pct(measured[cell])} ({pct(want)})"
            for cell in CELLS
        ])
    return render_table(
        [
            "Line",
            "code bytes (paper)",
            "code lines (paper)",
            "ro bytes (paper)",
            "ro lines (paper)",
            "mut bytes (paper)",
            "mut lines (paper)",
        ],
        table_rows,
        title="Table 3: working-set change vs 32-byte cache lines",
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Every defined Table-3 cell, by line size and cell name."""
    data = results[points[0].key]
    quantities: dict[str, float] = {}
    for line_size, cells in data["rows"].items():
        for key, value in cells.items():
            quantities[f"l{line_size}_{key}"] = float(value)
    return quantities


SWEEP = SweepSpec(
    name="table3",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
    claims=(
        Claim("every published cell within 15 percentage points (scaled up beyond "
              "75%)", "Table 3",
              lambda points, results: results[points[0].key]["within_tolerance"]),
    ),
)
