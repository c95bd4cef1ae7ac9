"""Plain-text table rendering and point-result rows for the experiment
harnesses."""

from __future__ import annotations

from typing import Any, Callable, Sequence

from ..harness.points import SweepPoint


def point_rows(
    points: list[SweepPoint],
    results: dict[str, Any],
    decode: Callable[[Any], Any] = lambda result: result,
) -> list[tuple[dict[str, Any], Any]]:
    """``(point.params, decode(result))`` per point, in declared point
    order — the one row shape every experiment's render, quantities and
    claims read."""
    return [(point.params, decode(results[point.key])) for point in points]


def scheduler_pairs(
    points: list[SweepPoint],
    results: dict[str, Any],
    axis: str,
    decode: Callable[[Any], Any],
) -> list[tuple[Any, Any, Any]]:
    """``(axis value, conventional, LDLP)`` per swept value of the
    ``axis`` param, in declared order: a sweep's two scheduler series
    side by side."""
    series: dict[str, dict[Any, Any]] = {}
    for params, result in point_rows(points, results, decode):
        series.setdefault(params["scheduler"], {})[params[axis]] = result
    return [
        (value, conventional, series["ldlp"][value])
        for value, conventional in series["conventional"].items()
    ]


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str | None = None,
) -> str:
    """Render a monospace table with right-aligned numeric columns."""
    cells = [[str(value) for value in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def is_numericish(text: str) -> bool:
        """Whether a cell reads as a number (digits with %, +, -, ., x, /)."""
        stripped = text.replace("%", "").replace("+", "").replace("-", "")
        stripped = stripped.replace(".", "").replace("x", "").replace("/", "")
        return stripped.isdigit() if stripped else False

    def fmt_row(row: Sequence[str]) -> str:
        """One padded line: numeric cells right-aligned after column 0."""
        parts = []
        for index, cell in enumerate(row):
            if index > 0 and is_numericish(cell):
                parts.append(cell.rjust(widths[index]))
            else:
                parts.append(cell.ljust(widths[index]))
        return "  ".join(parts).rstrip()

    lines = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(fmt_row(list(headers)))
    lines.append("  ".join("-" * width for width in widths))
    lines.extend(fmt_row(row) for row in cells)
    return "\n".join(lines)


def pct(value: float) -> str:
    """Format a percentage delta the way Table 3 prints it (``+17%``)."""
    return f"{value:+.0f}%"
