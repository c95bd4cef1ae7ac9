"""Experiment F1 — Figure 1: the active-code map of the receive path.

Regenerates (a) the per-phase write/read/code totals printed under each
column of Figure 1 and (b) an ASCII rendering of the active-code map:
which functions run in which phase and how many of their bytes are
touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..harness.points import SweepPoint, SweepSpec
from ..netbsd.functions import CATALOG, catalog_by_name
from ..netbsd.layers import PAPER_PHASES
from ..netbsd.receive_path import PHASES, ReceivePathModel
from ..trace.buffer import TraceBuffer
from ..trace.phases import PhaseStats, phase_stats
from .report import render_table


@dataclass(frozen=True)
class Figure1Result:
    trace: TraceBuffer
    stats: list[PhaseStats]
    seed: int

    def measured(self, label: str) -> PhaseStats:
        for phase in self.stats:
            if phase.label == label:
                return phase
        raise KeyError(label)

    def within_tolerance(self, rel: float = 0.25) -> bool:
        """Every phase total within ``rel`` of the published value."""
        for paper in PAPER_PHASES:
            got = self.measured(paper.label)
            pairs = [
                (got.code.bytes, paper.code_bytes),
                (got.code.refs, paper.code_refs),
                (got.read.bytes, paper.read_bytes),
                (got.read.refs, paper.read_refs),
                (got.write.bytes, paper.write_bytes),
                (got.write.refs, paper.write_refs),
            ]
            for measured, want in pairs:
                if abs(measured - want) > rel * want:
                    return False
        return True

    def phase_table(self) -> str:
        rows = []
        for paper in PAPER_PHASES:
            got = self.measured(paper.label)
            rows.append(
                [
                    paper.label,
                    f"{got.code.bytes}/{paper.code_bytes}",
                    f"{got.code.refs}/{paper.code_refs}",
                    f"{got.read.bytes}/{paper.read_bytes}",
                    f"{got.read.refs}/{paper.read_refs}",
                    f"{got.write.bytes}/{paper.write_bytes}",
                    f"{got.write.refs}/{paper.write_refs}",
                ]
            )
        return render_table(
            [
                "Phase",
                "code B (ours/paper)",
                "code refs",
                "read B",
                "read refs",
                "write B",
                "write refs",
            ],
            rows,
            title="Figure 1 column totals: measured/paper",
        )

    def code_map(self, bar_width: int = 40) -> str:
        """ASCII active-code map: touched bytes per function per phase."""
        by_name = catalog_by_name()
        touched_lines: dict[str, dict[str, set[int]]] = {}
        for label, sl in self.trace.phase_slices():
            for ref in self.trace.refs[sl]:
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


def run(seed: int = 0) -> Figure1Result:
    model = ReceivePathModel(seed=seed)
    trace = model.build_trace()
    return Figure1Result(trace=trace, stats=phase_stats(trace), seed=seed)


def main() -> None:
    result = run()
    print(result.phase_table())
    print()
    print(result.code_map())


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)


def compute_point(seed: int) -> dict:
    """Figure 1's per-phase column totals as plain numbers."""
    result = run(seed=seed)
    return {
        "phases": {
            phase.label: {
                "code_bytes": phase.code.bytes,
                "code_refs": phase.code.refs,
                "read_bytes": phase.read.bytes,
                "read_refs": phase.read.refs,
                "write_bytes": phase.write.bytes,
                "write_refs": phase.write.refs,
            }
            for phase in result.stats
        },
        "within_tolerance": result.within_tolerance(rel=0.25),
    }


def sweep_points(scale: str) -> list[SweepPoint]:
    del scale
    return [
        SweepPoint(
            experiment="figure1",
            key="seed=0",
            func="repro.experiments.figure1:compute_point",
            params={"seed": 0},
        )
    ]


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    data = results[points[0].key]
    quantities: dict[str, float] = {
        "within_tolerance": float(bool(data["within_tolerance"]))
    }
    for label, totals in data["phases"].items():
        prefix = label.replace(" ", "_")
        for key, value in totals.items():
            quantities[f"{prefix}_{key}"] = float(value)
    return quantities


SWEEP = SweepSpec(
    name="figure1",
    points=sweep_points,
    quantities=golden_quantities,
)


if __name__ == "__main__":
    main()
