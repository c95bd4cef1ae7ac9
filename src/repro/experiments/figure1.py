"""Experiment F1 — Figure 1: the active-code map of the receive path.

Regenerates (a) the per-phase write/read/code totals printed under each
column of Figure 1 and (b) an ASCII rendering of the active-code map:
which functions run in which phase and how many of their bytes are
touched.
"""

from __future__ import annotations

from typing import Any

from ..harness.points import Claim, SweepPoint, SweepSpec
from ..netbsd.functions import CATALOG, catalog_by_name
from ..netbsd.layers import PAPER_PHASES
from ..netbsd.receive_path import PHASES, ReceivePathModel
from ..trace.buffer import TraceBuffer
from ..trace.phases import phase_stats
from .report import render_table

#: Per-phase total names, in column order; the published value of a
#: total is the paper phase's attribute of the same name.
TOTALS = (
    "code_bytes", "code_refs", "read_bytes", "read_refs", "write_bytes", "write_refs",
)


def compute_point(seed: int) -> dict:
    """Figure 1's per-phase column totals as plain numbers, and whether
    every total is within 25% of the published one."""
    phases = {
        phase.label: {
            "code_bytes": phase.code.bytes,
            "code_refs": phase.code.refs,
            "read_bytes": phase.read.bytes,
            "read_refs": phase.read.refs,
            "write_bytes": phase.write.bytes,
            "write_refs": phase.write.refs,
        }
        for phase in phase_stats(ReceivePathModel(seed=seed).build_trace())
    }
    return {
        "phases": phases,
        "within_tolerance": all(
            abs(phases[paper.label][total] - getattr(paper, total))
            <= 0.25 * getattr(paper, total)
            for paper in PAPER_PHASES
            for total in TOTALS
        ),
    }


def sweep_points(scale: str) -> list[SweepPoint]:
    """One point: the trace is deterministic and single-seed at every
    scale."""
    del scale
    return [
        SweepPoint(
            experiment="figure1",
            key="seed=0",
            func="repro.experiments.figure1:compute_point",
            params={"seed": 0},
        )
    ]


def code_map(trace: TraceBuffer, bar_width: int = 40) -> str:
    """ASCII active-code map: touched bytes per function per phase."""
    by_name = catalog_by_name()
    touched_lines: dict[str, dict[str, set[int]]] = {}
    for label, sl in trace.phase_slices():
        for ref in trace.refs[sl]:
            if not ref.is_code() or ref.fn not in by_name:
                continue
            per_fn = touched_lines.setdefault(ref.fn, {})
            per_fn.setdefault(label, set()).add(ref.addr // 32)
    lines_out = ["Active code map (one row per function; # = 64 touched bytes)"]
    header = f"{'function':<22}{'size':>6}  " + "  ".join(
        f"{phase:<14}" for phase in PHASES
    )
    lines_out.append(header)
    for spec in CATALOG:
        per_fn = touched_lines.get(spec.name)
        if not per_fn:
            continue
        cells = []
        for phase in PHASES:
            count = len(per_fn.get(phase, ())) * 32
            bar = "#" * min(bar_width, count // 64)
            cells.append(f"{bar:<14}")
        lines_out.append(f"{spec.name:<22}{spec.size:>6}  " + "  ".join(cells))
    return "\n".join(lines_out)


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Measured/published column totals, then the active-code map.

    The map is not in the point result, so the trace is rebuilt from
    the point's own ``seed``.
    """
    point = points[0]
    phases = results[point.key]["phases"]
    table = render_table(
        [
            "Phase",
            "code B (ours/paper)",
            "code refs",
            "read B",
            "read refs",
            "write B",
            "write refs",
        ],
        [
            [paper.label] + [
                f"{phases[paper.label][total]}/{getattr(paper, total)}"
                for total in TOTALS
            ]
            for paper in PAPER_PHASES
        ],
        title="Figure 1 column totals: measured/paper",
    )
    trace = ReceivePathModel(seed=point.params["seed"]).build_trace()
    return table + "\n\n" + code_map(trace)


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Every per-phase column total, by phase and total name."""
    data = results[points[0].key]
    quantities: dict[str, float] = {}
    for label, totals in data["phases"].items():
        prefix = label.replace(" ", "_")
        for key, value in totals.items():
            quantities[f"{prefix}_{key}"] = float(value)
    return quantities


SWEEP = SweepSpec(
    name="figure1",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
    claims=(
        Claim("every phase's code, read and write bytes and refs within 25% of the "
              "published totals", "Fig. 1",
              lambda points, results: results[points[0].key]["within_tolerance"]),
    ),
)
