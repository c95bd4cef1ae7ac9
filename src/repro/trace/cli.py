"""``python -m repro.trace.cli`` — analyze saved trace files.

The paper's tracing apparatus came with "several programs used to
combine and analyze the individual traces"; this is ours.  Given a
trace in the text format of :mod:`repro.trace.io`, it prints the
working-set breakdown, per-phase totals, the line-size sensitivity
table, and optionally the call graph.
"""

from __future__ import annotations

import argparse
import sys

from ..cache.workingset import Category, WorkingSetAnalyzer
from .callgraph import build_call_graph
from .classify import LayerClassifier
from .io import load_trace
from .phases import phase_stats


def analyze(path: str, callgraph: bool = False, line_sizes: bool = False) -> str:
    """Produce the full text report for one trace file."""
    trace = load_trace(path)
    sections: list[str] = [f"trace: {path} ({len(trace.refs)} references)"]

    analyzer = WorkingSetAnalyzer(LayerClassifier())
    analyzer.consume(trace.refs)
    totals = analyzer.totals_at(32)
    sections.append(
        "working set (32-byte lines): "
        + ", ".join(
            f"{category.value} {count.bytes} B / {count.lines} lines"
            for category, count in totals.items()
        )
    )

    phases = phase_stats(trace)
    if phases:
        sections.append("phases:")
        for phase in phases:
            sections.append("  " + phase.format().replace("\n", "\n  "))

    if line_sizes:
        table = analyzer.line_size_table()
        sections.append("line-size sensitivity (vs 32 B):")
        for row in table.rows:
            cells = []
            for category in Category:
                delta = row.deltas[category]
                cells.append(
                    f"{category.value}: "
                    + (delta.format() if delta else "N/A")
                )
            sections.append(f"  {row.line_size:>3} B  " + "  ".join(cells))

    if callgraph and trace.call_events:
        graph = build_call_graph(trace)
        sections.append("call graph:")
        sections.append(graph.format())

    return "\n".join(sections)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.trace.cli",
        description="Analyze a saved memory trace (repro.trace text format).",
    )
    parser.add_argument("trace", help="path to the trace file")
    parser.add_argument(
        "--callgraph", action="store_true", help="print the procedure call graph"
    )
    parser.add_argument(
        "--line-sizes",
        action="store_true",
        help="print the Table-3-style line-size sensitivity",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    print(analyze(args.trace, callgraph=args.callgraph, line_sizes=args.line_sizes))
    return 0


if __name__ == "__main__":
    sys.exit(main())
