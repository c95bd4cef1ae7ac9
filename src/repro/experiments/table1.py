"""Experiment T1 — Table 1: working-set breakdown of the receive path.

Regenerates the per-layer code / read-only / mutable working-set sizes
of the NetBSD TCP receive-&-acknowledge path at 32-byte cache lines and
prints them next to the paper's published values.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any

from ..cache.workingset import Category, WorkingSetReport
from ..harness.points import Claim, SweepPoint, SweepSpec
from ..netbsd.layers import ALL_LAYERS, PAPER_TABLE1, PAPER_TABLE1_TOTAL
from ..netbsd.receive_path import ReceivePathModel
from .report import render_table


@dataclass(frozen=True)
class Table1Result:
    """Measured vs published Table 1."""

    report: WorkingSetReport
    seed: int

    def measured(self, layer: str, category: Category) -> int:
        return self.report.layer(layer, category).bytes

    def matches_paper(self) -> bool:
        """True when every per-layer cell equals the published value."""
        for layer in ALL_LAYERS:
            target = PAPER_TABLE1[layer]
            if self.measured(layer, Category.CODE) != target.code:
                return False
            if self.measured(layer, Category.READONLY) != target.readonly:
                return False
            if self.measured(layer, Category.MUTABLE) != target.mutable:
                return False
        return True

    def render(self) -> str:
        rows = []
        for layer in ALL_LAYERS:
            target = PAPER_TABLE1[layer]
            rows.append(
                [
                    layer,
                    self.measured(layer, Category.CODE),
                    target.code,
                    self.measured(layer, Category.READONLY),
                    target.readonly,
                    self.measured(layer, Category.MUTABLE),
                    target.mutable,
                ]
            )
        totals = [self.report.total(category).bytes for category in Category]
        rows.append(
            [
                "Total",
                totals[0],
                PAPER_TABLE1_TOTAL.code,
                totals[1],
                PAPER_TABLE1_TOTAL.readonly,
                totals[2],
                PAPER_TABLE1_TOTAL.mutable,
            ]
        )
        table = render_table(
            [
                "Layer",
                "code",
                "(paper)",
                "ro-data",
                "(paper)",
                "mut-data",
                "(paper)",
            ],
            rows,
            title="Table 1: working set of the TCP receive & acknowledge path (bytes)",
        )
        note = (
            "\nNote: the paper's printed code total (30592) exceeds its own "
            "row sum (30304) by 288; we reproduce the rows."
        )
        return table + note


def run(seed: int = 0) -> Table1Result:
    """Build the trace, run the working-set analysis, return the result."""
    model = ReceivePathModel(seed=seed)
    analyzer = model.analyze()
    return Table1Result(report=analyzer.report(32), seed=seed)


def main() -> None:
    print(run().render())


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)


def slug(layer: str) -> str:
    """Quantity-name-safe form of a layer name (``Socket low`` ->
    ``socket_low``)."""
    return re.sub(r"[^a-z0-9]+", "_", layer.lower()).strip("_")


def compute_point(seed: int) -> dict:
    """The full measured Table 1 as plain numbers."""
    result = run(seed=seed)
    return {
        "layers": {
            layer: {
                "code": result.measured(layer, Category.CODE),
                "readonly": result.measured(layer, Category.READONLY),
                "mutable": result.measured(layer, Category.MUTABLE),
            }
            for layer in ALL_LAYERS
        },
        "totals": {
            "code": result.report.total(Category.CODE).bytes,
            "readonly": result.report.total(Category.READONLY).bytes,
            "mutable": result.report.total(Category.MUTABLE).bytes,
        },
        "matches_paper": result.matches_paper(),
    }


def sweep_points(scale: str) -> list[SweepPoint]:
    del scale  # deterministic single-seed analysis at every scale
    return [
        SweepPoint(
            experiment="table1",
            key="seed=0",
            func="repro.experiments.table1:compute_point",
            params={"seed": 0},
        )
    ]


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Every Table-1 cell, by name, plus the column totals."""
    data = results[points[0].key]
    quantities: dict[str, float] = {
        "total_code": float(data["totals"]["code"]),
        "total_readonly": float(data["totals"]["readonly"]),
        "total_mutable": float(data["totals"]["mutable"]),
    }
    for layer, cells in data["layers"].items():
        for category, value in cells.items():
            quantities[f"{slug(layer)}_{category}"] = float(value)
    return quantities


SWEEP = SweepSpec(
    name="table1",
    points=sweep_points,
    quantities=golden_quantities,
    claims=(
        Claim("every per-layer code, read-only and mutable cell equals the published "
              "byte count exactly", "Table 1",
              lambda points, results: results[points[0].key]["matches_paper"]),
    ),
)


if __name__ == "__main__":
    main()
