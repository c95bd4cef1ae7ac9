"""Working-set analysis of memory traces (Tables 1 and 3).

Definitions follow Section 2 of the paper:

* The *working set* is the set of distinct cache lines referenced during
  a trace, split into **code**, **read-only data** (touched but never
  written during the trace) and **mutable data** (written at least once).
* The unit of memory is a cache line: "a reference to any element in the
  cache line makes the whole cache line part of the working set".
* Code is classified into layers by function; data by the layer of the
  function executing at *first touch*.

The analyzer records references at a fine *atom* granularity (4 bytes,
one Alpha instruction) so the same trace can be re-aggregated at any
line size — that re-aggregation is exactly the paper's Table 3.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import ConfigurationError
from ..trace.classify import FirstTouchAttributor, LayerClassifier
from ..trace.record import MemRef
from .line import check_power_of_two


class Category(enum.Enum):
    """Working-set categories used by Table 1."""

    CODE = "code"
    READONLY = "read-only data"
    MUTABLE = "mutable data"


@dataclass(frozen=True)
class CategoryCount:
    """Working-set size of one category: line-aggregated bytes and lines."""

    bytes: int
    lines: int

    def __add__(self, other: "CategoryCount") -> "CategoryCount":
        return CategoryCount(self.bytes + other.bytes, self.lines + other.lines)


ZERO_COUNT = CategoryCount(0, 0)


@dataclass
class WorkingSetReport:
    """Per-layer working-set breakdown at one line size (Table 1 shape)."""

    line_size: int
    per_layer: dict[str, dict[Category, CategoryCount]]

    def layer(self, name: str, category: Category) -> CategoryCount:
        """One layer's count in ``category`` (zero if it has none)."""
        return self.per_layer.get(name, {}).get(category, ZERO_COUNT)

    def total(self, category: Category) -> CategoryCount:
        """The count in ``category`` summed over every layer."""
        result = ZERO_COUNT
        for counts in self.per_layer.values():
            result = result + counts.get(category, ZERO_COUNT)
        return result

    def grand_total_bytes(self) -> int:
        """Bytes over every layer and category."""
        return sum(self.total(category).bytes for category in Category)


class WorkingSetAnalyzer:
    """Accumulates references and produces working-set reports.

    Parameters
    ----------
    classifier:
        Function→layer map used for Table-1-style per-layer breakdowns.
        When omitted, everything lands in the ``unclassified`` layer.
    atom_size:
        Granularity at which touches are recorded; must divide every
        line size later queried.  4 bytes (one instruction) by default.
    classification_chunk:
        Granularity of first-touch data attribution (32 bytes, matching
        the paper's classification unit).
    """

    def __init__(
        self,
        classifier: LayerClassifier | None = None,
        atom_size: int = 4,
        classification_chunk: int = 32,
    ) -> None:
        check_power_of_two(atom_size, "atom size")
        self.atom_size = atom_size
        self.classifier = classifier or LayerClassifier()
        self._attributor = FirstTouchAttributor(self.classifier, classification_chunk)
        # atom -> owning layer, insertion-ordered by first touch
        self._code_atoms: dict[int, str] = {}
        self._data_atoms: set[int] = set()
        self._written_atoms: set[int] = set()

    def consume(self, refs: Iterable[MemRef]) -> None:
        """Feed references into the analysis."""
        atom = self.atom_size
        for ref in refs:
            first = ref.addr // atom
            last = (ref.end - 1) // atom
            if ref.is_code():
                layer = self.classifier.layer_of(ref)
                for a in range(first, last + 1):
                    self._code_atoms.setdefault(a, layer)
            else:
                self._attributor.observe(ref)
                for a in range(first, last + 1):
                    self._data_atoms.add(a)
                    if ref.is_write():
                        self._written_atoms.add(a)

    def _check_line_size(self, line_size: int) -> int:
        check_power_of_two(line_size, "line size")
        if line_size < self.atom_size:
            raise ConfigurationError(
                f"line size {line_size} below atom size {self.atom_size}"
            )
        return line_size // self.atom_size

    def report(self, line_size: int = 32) -> WorkingSetReport:
        """Produce a per-layer working-set breakdown at ``line_size``."""
        atoms_per_line = self._check_line_size(line_size)
        per_layer: dict[str, dict[Category, CategoryCount]] = {}

        def bump(layer: str, category: Category, lines: int) -> None:
            """Add ``lines`` lines (and their bytes) to one layer's
            count in ``category``."""
            counts = per_layer.setdefault(layer, {})
            old = counts.get(category, ZERO_COUNT)
            counts[category] = CategoryCount(
                old.bytes + lines * line_size, old.lines + lines
            )

        # Code lines: owner = layer of the lowest-addressed touched atom.
        code_lines: dict[int, str] = {}
        for atom in sorted(self._code_atoms):
            code_lines.setdefault(atom // atoms_per_line, self._code_atoms[atom])
        layer_line_counts: dict[str, int] = {}
        for layer in code_lines.values():
            layer_line_counts[layer] = layer_line_counts.get(layer, 0) + 1
        for layer, count in layer_line_counts.items():
            bump(layer, Category.CODE, count)

        # Data lines: mutable if any atom in the line was written.
        data_lines: dict[int, bool] = {}
        for atom in self._data_atoms:
            line = atom // atoms_per_line
            data_lines[line] = data_lines.get(line, False) or (
                atom in self._written_atoms
            )
        ro_by_layer: dict[str, int] = {}
        mut_by_layer: dict[str, int] = {}
        for line, written in data_lines.items():
            owner = self._attributor.owner_of_addr(line * line_size)
            target = mut_by_layer if written else ro_by_layer
            target[owner] = target.get(owner, 0) + 1
        for layer, count in ro_by_layer.items():
            bump(layer, Category.READONLY, count)
        for layer, count in mut_by_layer.items():
            bump(layer, Category.MUTABLE, count)
        return WorkingSetReport(line_size=line_size, per_layer=per_layer)

    def totals_at(self, line_size: int) -> dict[Category, CategoryCount]:
        """Total working-set sizes per category at ``line_size``."""
        report = self.report(line_size)
        return {category: report.total(category) for category in Category}

    def line_size_table(
        self,
        line_sizes: Sequence[int] = (4, 8, 16, 32, 64),
        baseline: int = 32,
    ) -> "LineSizeTable":
        """Reproduce Table 3: working-set deltas versus a baseline line size."""
        base = self.totals_at(baseline)
        rows = []
        for size in line_sizes:
            feasible = size >= 8  # Alpha word size: data lines below 8 B are N/A
            totals = self.totals_at(max(size, self.atom_size))
            deltas = {}
            for category in Category:
                if category is not Category.CODE and not feasible:
                    deltas[category] = None
                    continue
                base_count = base[category]
                count = totals[category]
                deltas[category] = LineSizeDelta(
                    bytes_pct=_pct_change(base_count.bytes, count.bytes),
                    lines_pct=_pct_change(base_count.lines, count.lines),
                )
            rows.append(LineSizeRow(line_size=size, deltas=deltas))
        return LineSizeTable(baseline=baseline, rows=rows)


def _pct_change(base: int, value: int) -> float:
    if base == 0:
        return 0.0
    return 100.0 * (value - base) / base


@dataclass(frozen=True)
class LineSizeDelta:
    """Percentage change of bytes and lines versus the baseline line size."""

    bytes_pct: float
    lines_pct: float

    def format(self) -> str:
        """The deltas as Table 3 prints them, e.g. ``+12% -40%``."""
        return f"{self.bytes_pct:+.0f}% {self.lines_pct:+.0f}%"


@dataclass(frozen=True)
class LineSizeRow:
    """One line size's row: each category's change against the
    baseline, ``None`` for data categories below the 8-byte word (N/A
    in Table 3)."""

    line_size: int
    deltas: dict[Category, "LineSizeDelta | None"]


@dataclass(frozen=True)
class LineSizeTable:
    """Table-3-shaped result: one row per line size."""

    baseline: int
    rows: list[LineSizeRow]

    def row(self, line_size: int) -> LineSizeRow:
        """The row of ``line_size``; raises ConfigurationError if the
        table has none."""
        for row in self.rows:
            if row.line_size == line_size:
                return row
        raise ConfigurationError(f"no row for line size {line_size}")
