"""Experiment T3 — Table 3: working-set sensitivity to cache line size.

Reanalyzes the receive-path trace at 4/8/16/32/64-byte lines and prints
the percentage change in bytes and lines versus the 32-byte baseline,
next to the published Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..cache.workingset import Category, LineSizeTable, WorkingSetAnalyzer
from ..harness.points import Claim, SweepPoint, SweepSpec
from ..netbsd.layers import PAPER_TABLE3
from ..netbsd.receive_path import ReceivePathModel
from .report import pct, render_table


@dataclass(frozen=True)
class Table3Result:
    table: LineSizeTable
    seed: int

    def measured_row(self, line_size: int) -> dict[str, float | None]:
        row = self.table.row(line_size)
        out: dict[str, float | None] = {}
        for key, category in (
            ("code", Category.CODE),
            ("ro", Category.READONLY),
            ("mut", Category.MUTABLE),
        ):
            delta = row.deltas[category]
            out[f"{key}_bytes"] = delta.bytes_pct if delta else None
            out[f"{key}_lines"] = delta.lines_pct if delta else None
        return out

    def within_tolerance(self, tolerance_points: float = 15.0) -> bool:
        """True when every defined cell is within ``tolerance_points``
        percentage points of the published value (500% row is scaled)."""
        for paper_row in PAPER_TABLE3:
            measured = self.measured_row(paper_row.line_size)
            pairs = [
                (measured["code_bytes"], paper_row.code_bytes_pct),
                (measured["code_lines"], paper_row.code_lines_pct),
                (measured["ro_bytes"], paper_row.ro_bytes_pct),
                (measured["ro_lines"], paper_row.ro_lines_pct),
                (measured["mut_bytes"], paper_row.mut_bytes_pct),
                (measured["mut_lines"], paper_row.mut_lines_pct),
            ]
            for got, want in pairs:
                if want is None:
                    continue
                if got is None:
                    return False
                allowed = tolerance_points * max(1.0, abs(want) / 75.0)
                if abs(got - want) > allowed:
                    return False
        return True

    def render(self) -> str:
        rows = []
        for paper_row in PAPER_TABLE3:
            measured = self.measured_row(paper_row.line_size)

            def cell(got: float | None, want: float | None) -> str:
                if want is None:
                    return "N/A"
                assert got is not None
                return f"{pct(got)} ({pct(want)})"

            rows.append(
                [
                    paper_row.line_size,
                    cell(measured["code_bytes"], paper_row.code_bytes_pct),
                    cell(measured["code_lines"], paper_row.code_lines_pct),
                    cell(measured["ro_bytes"], paper_row.ro_bytes_pct),
                    cell(measured["ro_lines"], paper_row.ro_lines_pct),
                    cell(measured["mut_bytes"], paper_row.mut_bytes_pct),
                    cell(measured["mut_lines"], paper_row.mut_lines_pct),
                ]
            )
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
            rows,
            title="Table 3: working-set change vs 32-byte cache lines",
        )


def run(seed: int = 0) -> Table3Result:
    model = ReceivePathModel(seed=seed)
    analyzer: WorkingSetAnalyzer = model.analyze()
    return Table3Result(table=analyzer.line_size_table(), seed=seed)


def main() -> None:
    print(run().render())


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)


def compute_point(seed: int) -> dict:
    """Every defined Table-3 cell (percent change vs 32-byte lines)."""
    result = run(seed=seed)
    rows: dict[str, dict[str, float]] = {}
    for paper_row in PAPER_TABLE3:
        measured = result.measured_row(paper_row.line_size)
        rows[str(paper_row.line_size)] = {
            key: value for key, value in measured.items() if value is not None
        }
    return {"rows": rows, "within_tolerance": result.within_tolerance()}


def sweep_points(scale: str) -> list[SweepPoint]:
    del scale
    return [
        SweepPoint(
            experiment="table3",
            key="seed=0",
            func="repro.experiments.table3:compute_point",
            params={"seed": 0},
        )
    ]


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
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
    claims=(
        Claim("every published cell within 15 percentage points (scaled up beyond "
              "75%)", "Table 3",
              lambda points, results: results[points[0].key]["within_tolerance"]),
    ),
)


if __name__ == "__main__":
    main()
