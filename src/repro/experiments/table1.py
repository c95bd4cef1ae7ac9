"""Experiment T1 — Table 1: working-set breakdown of the receive path.

Regenerates the per-layer code / read-only / mutable working-set sizes
of the NetBSD TCP receive-&-acknowledge path at 32-byte cache lines and
prints them next to the paper's published values.
"""

from __future__ import annotations

import re
from typing import Any

from ..cache.workingset import Category
from ..harness.points import Claim, SweepPoint, SweepSpec
from ..netbsd.layers import ALL_LAYERS, PAPER_TABLE1, PAPER_TABLE1_TOTAL
from ..netbsd.receive_path import ReceivePathModel
from .report import render_table

#: Result cell name per working-set category, in column order.
CELLS = (
    ("code", Category.CODE),
    ("readonly", Category.READONLY),
    ("mutable", Category.MUTABLE),
)


def slug(layer: str) -> str:
    """Quantity-name-safe form of a layer name (``Socket low`` ->
    ``socket_low``)."""
    return re.sub(r"[^a-z0-9]+", "_", layer.lower()).strip("_")


def compute_point(seed: int) -> dict:
    """The full measured Table 1 as plain numbers: build the trace, run
    the working-set analysis at 32-byte lines."""
    report = ReceivePathModel(seed=seed).analyze().report(32)
    layers = {
        layer: {
            name: report.layer(layer, category).bytes for name, category in CELLS
        }
        for layer in ALL_LAYERS
    }
    return {
        "layers": layers,
        "totals": {name: report.total(category).bytes for name, category in CELLS},
        "matches_paper": all(
            layers[layer][name] == getattr(PAPER_TABLE1[layer], name)
            for layer in ALL_LAYERS
            for name, _ in CELLS
        ),
    }


def sweep_points(scale: str) -> list[SweepPoint]:
    """One point: the analysis is deterministic and single-seed at
    every scale."""
    del scale
    return [
        SweepPoint(
            experiment="table1",
            key="seed=0",
            func="repro.experiments.table1:compute_point",
            params={"seed": 0},
        )
    ]


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Measured vs published Table 1, per layer and totalled."""
    data = results[points[0].key]

    def row(label: str, measured: dict[str, int], paper: Any) -> list:
        """``label``, then each cell measured and published."""
        return [label] + [
            value for name, _ in CELLS for value in (measured[name], getattr(paper, name))
        ]

    rows = [row(layer, data["layers"][layer], PAPER_TABLE1[layer]) for layer in ALL_LAYERS]
    rows.append(row("Total", data["totals"], PAPER_TABLE1_TOTAL))
    table = render_table(
        ["Layer", "code", "(paper)", "ro-data", "(paper)", "mut-data", "(paper)"],
        rows,
        title="Table 1: working set of the TCP receive & acknowledge path (bytes)",
    )
    note = (
        "\nNote: the paper's printed code total (30592) exceeds its own "
        "row sum (30304) by 288; we reproduce the rows."
    )
    return table + note


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
    render=render,
    claims=(
        Claim("every per-layer code, read-only and mutable cell equals the published "
              "byte count exactly", "Table 1",
              lambda points, results: results[points[0].key]["matches_paper"]),
    ),
)
