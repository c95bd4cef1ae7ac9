"""The trace buffer: an append-only log of references plus annotations.

Mirrors the kernel trace buffer of Section 2.2: the instruction
simulator appends references as they happen; phase markers and
call/return events are interleaved so the analysis tools can segment the
trace (Table 2 / Figure 1 phases) and recover the procedure call graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..errors import TraceError
from .record import MemRef, RefKind


@dataclass(frozen=True, slots=True)
class PhaseMark:
    """Marks the start of a named trace phase at a reference index."""

    index: int
    label: str


@dataclass(frozen=True, slots=True)
class CallEvent:
    """A procedure call (``enter=True``) or return at a reference index."""

    index: int
    fn: str
    enter: bool


class TraceBuffer:
    """An in-memory trace: references, phase marks, and call events.

    The buffer enforces that annotation indices are monotone (they refer
    to positions in the reference stream as it is appended).
    """

    def __init__(self) -> None:
        self.refs: list[MemRef] = []
        self.phase_marks: list[PhaseMark] = []
        self.call_events: list[CallEvent] = []
        self._fn_stack: list[str] = []

    def __len__(self) -> int:
        return len(self.refs)

    def __iter__(self) -> Iterator[MemRef]:
        return iter(self.refs)

    def append(self, ref: MemRef) -> None:
        """Append one reference.

        If the reference has no function attribution, the current call
        stack top is attached (the tracer knows who is executing).
        """
        if ref.fn is None and self._fn_stack:
            ref = MemRef(ref.kind, ref.addr, ref.size, self._fn_stack[-1])
        self.refs.append(ref)

    def extend(self, refs: Iterable[MemRef]) -> None:
        for ref in refs:
            self.append(ref)

    def record(self, kind: RefKind, addr: int, size: int = 4) -> None:
        """Append a reference built in place (hot-path convenience)."""
        self.append(MemRef(kind, addr, size))

    def mark_phase(self, label: str) -> None:
        """Start a new phase at the current position."""
        if self.phase_marks and self.phase_marks[-1].index == len(self.refs):
            raise TraceError(
                f"phase {self.phase_marks[-1].label!r} would be empty; "
                f"refusing to mark {label!r} at the same position"
            )
        self.phase_marks.append(PhaseMark(len(self.refs), label))

    def enter(self, fn: str) -> None:
        """Record entry into function ``fn``."""
        self.call_events.append(CallEvent(len(self.refs), fn, enter=True))
        self._fn_stack.append(fn)

    def leave(self) -> None:
        """Record return from the current function."""
        if not self._fn_stack:
            raise TraceError("return with empty call stack")
        fn = self._fn_stack.pop()
        self.call_events.append(CallEvent(len(self.refs), fn, enter=False))

    def phase_slices(self) -> list[tuple[str, slice]]:
        """Return (label, slice) pairs covering the reference stream.

        References before the first mark belong to an implicit
        ``"prelude"`` phase, which is omitted when empty.
        """
        result: list[tuple[str, slice]] = []
        if not self.phase_marks:
            if self.refs:
                result.append(("prelude", slice(0, len(self.refs))))
            return result
        first = self.phase_marks[0].index
        if first > 0:
            result.append(("prelude", slice(0, first)))
        for i, mark in enumerate(self.phase_marks):
            end = (
                self.phase_marks[i + 1].index
                if i + 1 < len(self.phase_marks)
                else len(self.refs)
            )
            result.append((mark.label, slice(mark.index, end)))
        return result

    def refs_in_phase(self, label: str) -> list[MemRef]:
        """Return all references in the named phase (first occurrence)."""
        for name, sl in self.phase_slices():
            if name == label:
                return self.refs[sl]
        raise TraceError(f"no phase named {label!r} in trace")
