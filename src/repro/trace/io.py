"""Text serialization of traces.

Format, one record per line:

* ``C|R|W <addr> <size> [fn]`` — a memory reference (hex address);
* ``# phase <label>`` — phase marker;
* ``> <fn>`` / ``< <fn>`` — call / return events;
* blank lines and lines starting with ``;`` are ignored.

The format is deliberately line-oriented and greppable, in the spirit of
the paper's "several programs were used to combine and analyze the
individual traces".
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, TextIO

from ..errors import TraceError
from .buffer import CallEvent, PhaseMark, TraceBuffer
from .record import MemRef, RefKind


def dump_trace(trace: TraceBuffer, stream: TextIO) -> None:
    """Write a trace to an open text stream."""
    phase_iter = iter(trace.phase_marks)
    call_iter = iter(trace.call_events)
    next_phase = next(phase_iter, None)
    next_call = next(call_iter, None)
    for index, ref in enumerate(trace.refs):
        while next_phase is not None and next_phase.index == index:
            stream.write(f"# phase {next_phase.label}\n")
            next_phase = next(phase_iter, None)
        while next_call is not None and next_call.index == index:
            marker = ">" if next_call.enter else "<"
            stream.write(f"{marker} {next_call.fn}\n")
            next_call = next(call_iter, None)
        fn = f" {ref.fn}" if ref.fn is not None else ""
        stream.write(f"{ref.kind.value} {ref.addr:#x} {ref.size}{fn}\n")
    # Trailing annotations at end-of-trace.
    while next_phase is not None:
        stream.write(f"# phase {next_phase.label}\n")
        next_phase = next(phase_iter, None)
    while next_call is not None:
        marker = ">" if next_call.enter else "<"
        stream.write(f"{marker} {next_call.fn}\n")
        next_call = next(call_iter, None)


def save_trace(trace: TraceBuffer, path: str | Path) -> None:
    """Write a trace to ``path``."""
    with open(path, "w", encoding="ascii") as stream:
        dump_trace(trace, stream)


def parse_trace(lines: Iterable[str]) -> TraceBuffer:
    """Parse a trace from an iterable of text lines."""
    trace = TraceBuffer()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        try:
            trace_line(trace, line)
        except TraceError:
            raise
        except (ValueError, IndexError) as exc:
            raise TraceError(f"line {lineno}: cannot parse {line!r}") from exc
    return trace


def trace_line(trace: TraceBuffer, line: str) -> None:
    """Apply one parsed trace line to a buffer."""
    if line.startswith("# phase "):
        trace.phase_marks.append(PhaseMark(len(trace.refs), line[len("# phase "):]))
        return
    if line.startswith("> "):
        trace.call_events.append(CallEvent(len(trace.refs), line[2:], enter=True))
        return
    if line.startswith("< "):
        trace.call_events.append(CallEvent(len(trace.refs), line[2:], enter=False))
        return
    fields = line.split()
    if len(fields) not in (3, 4):
        raise TraceError(f"malformed reference line {line!r}")
    kind = RefKind.from_letter(fields[0])
    addr = int(fields[1], 0)
    size = int(fields[2])
    fn = fields[3] if len(fields) == 4 else None
    trace.refs.append(MemRef(kind, addr, size, fn))


def load_trace(path: str | Path) -> TraceBuffer:
    """Read a trace from ``path``; a non-ASCII file raises :class:`TraceError`."""
    try:
        with open(path, "r", encoding="ascii") as stream:
            return parse_trace(stream)
    except UnicodeDecodeError as exc:
        raise TraceError(f"{path}: not an ASCII trace ({exc.reason})") from exc
