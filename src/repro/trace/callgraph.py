"""Procedure call-graph extraction from traces.

The paper notes its tracing system "can also produce a procedure call
graph [and] has been generally useful in understanding control flow in
the kernel".  This module rebuilds that capability from the call/return
events recorded in a :class:`~repro.trace.buffer.TraceBuffer`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..errors import TraceError
from .buffer import TraceBuffer


@dataclass
class CallGraph:
    """A directed call graph with call-count edge weights.

    Attributes
    ----------
    edges:
        Maps every entered function to a ``Counter`` of its callees, in
        first-call order: ``edges[a][b]`` is how many times ``a`` called
        ``b`` in the trace.
    roots:
        Functions entered with an empty call stack (trace entry points).
    """

    edges: dict[str, Counter[str]] = field(default_factory=dict)
    roots: list[str] = field(default_factory=list)

    def call_count(self, caller: str, callee: str) -> int:
        """Number of recorded ``caller`` → ``callee`` calls (0 if none)."""
        return self.edges.get(caller, Counter())[callee]

    def callees(self, fn: str) -> list[str]:
        """Functions called directly by ``fn``, sorted by call count."""
        # most_common() is a stable sort: ties keep first-call order.
        return [callee for callee, _ in self.edges.get(fn, Counter()).most_common()]

    def transitive_callees(self, fn: str) -> set[str]:
        """Every function reachable from ``fn`` (excluding ``fn`` itself)."""
        reached: set[str] = set()
        stack = list(self.edges.get(fn, ()))
        while stack:
            callee = stack.pop()
            if callee not in reached:
                reached.add(callee)
                stack.extend(self.edges[callee])
        reached.discard(fn)
        return reached

    def format(self, root: str | None = None) -> str:
        """Render as an indented tree (cycles cut at repeats)."""
        lines: list[str] = []
        starts = [root] if root is not None else self.roots
        for start in starts:
            self._format_into(start, lines, indent=0, path=set())
        return "\n".join(lines)

    def _format_into(
        self, fn: str, lines: list[str], indent: int, path: set[str]
    ) -> None:
        suffix = " (recursive)" if fn in path else ""
        lines.append("  " * indent + fn + suffix)
        if suffix:
            return
        for callee in self.callees(fn):
            self._format_into(callee, lines, indent + 1, path | {fn})


def build_call_graph(trace: TraceBuffer) -> CallGraph:
    """Build a :class:`CallGraph` from a trace's call/return events."""
    result = CallGraph()
    stack: list[str] = []
    for event in trace.call_events:
        if event.enter:
            result.edges.setdefault(event.fn, Counter())
            if stack:
                result.edges[stack[-1]][event.fn] += 1
            elif event.fn not in result.roots:
                result.roots.append(event.fn)
            stack.append(event.fn)
        else:
            if not stack:
                raise TraceError(f"return from {event.fn!r} with empty stack")
            top = stack.pop()
            if top != event.fn:
                raise TraceError(
                    f"mismatched return: entered {top!r}, returned {event.fn!r}"
                )
    return result
