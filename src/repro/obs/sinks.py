"""Pluggable sinks turning recorded spans/counters into artifacts.

Three sinks ship with the subsystem:

* :class:`ChromeTraceSink` — a ``chrome://tracing``/Perfetto-loadable
  timeline, one thread (track) per protocol layer, one process per
  traced configuration (e.g. ``conventional`` vs ``ldlp``);
* :class:`TableSink` — plain-text per-track counter totals, and (for
  the receive path) the live per-function miss-attribution table from
  :mod:`repro.obs.attribution`;
* :class:`MetricsSink` — flat counter totals plus per-track totals,
  what ``ldlp-experiment trace … --sink metrics`` prints.

All payload shapes are documented and validated in
:mod:`repro.obs.schema`.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..errors import ObsError
from .runtime import Recorder


class ChromeTraceSink:
    """Assembles one Chrome-trace payload from one or more recorders.

    Each recorder becomes a Chrome *process* (named after its
    configuration) and each of its tracks a named *thread*, so a
    conventional-vs-LDLP comparison renders as two process groups with
    one row per layer.  Timestamps map one simulated clock unit to one
    microsecond; ``otherData.clock_unit`` records the unit.
    """

    def __init__(self, clock_unit: str = "cycles") -> None:
        self.clock_unit = clock_unit
        self._processes: list[tuple[int, str, Recorder]] = []

    def add_recorder(self, recorder: Recorder, process_name: str) -> None:
        """Add one traced configuration as a Chrome process."""
        if not recorder.keep_spans:
            raise ObsError(
                "chrome sink needs a span-keeping recorder "
                "(Recorder(keep_spans=True))"
            )
        self._processes.append((len(self._processes) + 1, process_name, recorder))

    def to_payload(self) -> dict:
        """Build the JSON-serializable Chrome-trace object."""
        if not self._processes:
            raise ObsError("chrome sink has no recorders to serialize")
        events: list[dict] = []
        for pid, process_name, recorder in self._processes:
            events.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "args": {"name": process_name},
                }
            )
            tids = {track: tid for tid, track in enumerate(recorder.tracks(), 1)}
            for track, tid in tids.items():
                events.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"name": track},
                    }
                )
                events.append(
                    {
                        "name": "thread_sort_index",
                        "ph": "M",
                        "pid": pid,
                        "tid": tid,
                        "args": {"sort_index": tid},
                    }
                )
            for span in recorder.spans:
                args = dict(span.args)
                args.update(span.counters)
                events.append(
                    {
                        "name": span.name,
                        "cat": span.track,
                        "ph": "X",
                        "ts": span.start,
                        "dur": span.duration,
                        "pid": pid,
                        "tid": tids[span.track],
                        "args": args,
                    }
                )
            for instant in recorder.instants:
                events.append(
                    {
                        "name": instant.name,
                        "ph": "I",
                        "s": "t",
                        "ts": instant.time,
                        "pid": pid,
                        "tid": tids[instant.track],
                        "args": dict(instant.args),
                    }
                )
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"clock_unit": self.clock_unit, "producer": "repro.obs"},
        }

    def write(self, path: str | Path) -> Path:
        """Serialize the payload to ``path`` and return it."""
        out = Path(path)
        out.write_text(json.dumps(self.to_payload(), indent=1) + "\n")
        return out


class MetricsSink:
    """Flattens a recorder into counter totals and per-track totals."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder

    def to_payload(self) -> dict:
        """``{"counters": {...}, "tracks": {track: {...}}}``."""
        return {
            "counters": self.recorder.counters.as_dict(),
            "tracks": {
                track: totals.as_dict()
                for track, totals in sorted(self.recorder.track_totals.items())
            },
        }

    def write(self, path: str | Path) -> Path:
        """Serialize the payload to ``path`` and return it."""
        out = Path(path)
        out.write_text(json.dumps(self.to_payload(), indent=1, sort_keys=True) + "\n")
        return out


class TableSink:
    """Renders per-track counter totals as a monospace table."""

    #: Columns shown when present in a track's totals, in order.
    COLUMNS = (
        "spans",
        "clock_units",
        "cycles",
        "stall_cycles",
        "icache_misses",
        "dcache_misses",
    )

    def __init__(self, recorder: Recorder, title: str = "obs track totals") -> None:
        self.recorder = recorder
        self.title = title

    def render(self) -> str:
        """The per-track totals table as text."""
        from ..experiments.report import render_table

        totals = self.recorder.track_totals
        if not totals:
            return f"{self.title}: no tracks recorded"
        present = [
            column
            for column in self.COLUMNS
            if any(column in bag.as_dict() for bag in totals.values())
        ]
        rows = []
        for track in sorted(totals):
            bag = totals[track].as_dict()
            rows.append([track] + [f"{bag.get(column, 0.0):.0f}" for column in present])
        return render_table(["track"] + list(present), rows, title=self.title)

    def write(self, path: str | Path) -> Path:
        """Write the rendered table to ``path`` and return it."""
        out = Path(path)
        out.write_text(self.render() + "\n")
        return out
