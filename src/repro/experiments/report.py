"""Plain-text table rendering for the experiment harnesses."""

from __future__ import annotations

from typing import Sequence


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
        stripped = text.replace("%", "").replace("+", "").replace("-", "")
        stripped = stripped.replace(".", "").replace("x", "").replace("/", "")
        return stripped.isdigit() if stripped else False

    def fmt_row(row: Sequence[str]) -> str:
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
