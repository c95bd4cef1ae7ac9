"""The documented obs event schema and its validators.

This module is the repo's first formally documented interface (see
ARCHITECTURE.md, "The obs event schema"): sinks, tests, and external
consumers all validate against the definitions here rather than against
whatever a sink happens to emit.

Two wire formats are defined:

**Chrome trace JSON** (``ChromeTraceSink``) — the subset of the Trace
Event Format that ``chrome://tracing`` and Perfetto load:

* the payload is an object with a ``traceEvents`` list and a
  ``displayTimeUnit`` of ``"ms"``;
* every span is a *complete* event (``"ph": "X"``) with ``name``,
  ``cat``, ``ts``, ``dur``, ``pid``, ``tid`` and an ``args`` object;
* instants are ``"ph": "I"`` events with scope ``"t"`` (thread);
* tracks are threads: each recorder track gets a ``tid`` announced by a
  ``thread_name`` metadata event (``"ph": "M"``), and each recorder
  (one per traced configuration) gets a ``pid`` announced by a
  ``process_name`` metadata event;
* timestamps are in microseconds by convention; we emit **one simulated
  clock unit per microsecond** (CPU cycles for simulator runs,
  reference indices for trace generation) and record the unit in
  ``otherData.clock_unit``.

**Metrics JSON** (``MetricsSink``) — an object with ``counters`` (flat
name → number) and ``tracks`` (track name → counter totals), what
``ldlp-experiment trace … --sink metrics`` prints.
"""

from __future__ import annotations

from typing import Any

from ..errors import ObsError

#: Event phases a sink may emit (complete, instant, metadata).
CHROME_PHASES = ("X", "I", "M")

#: Keys required on every complete ("X") event.
COMPLETE_EVENT_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")

#: Keys required on every instant ("I") event.
INSTANT_EVENT_KEYS = ("name", "ph", "ts", "s", "pid", "tid")

#: Metadata event names we emit (thread/process naming).
METADATA_NAMES = ("thread_name", "process_name", "thread_sort_index")


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ObsError` with ``message`` unless ``condition``."""
    if not condition:
        raise ObsError(f"invalid chrome trace: {message}")


def validate_chrome_trace(payload: Any) -> dict[str, int]:
    """Validate a Chrome-trace payload against the documented schema.

    Returns summary counts (``events``, ``spans``, ``instants``,
    ``tracks``, ``processes``) and raises
    :class:`~repro.errors.ObsError` on any schema violation.  This is
    the same check ``tests/test_obs.py`` gates the sink with.
    """
    _require(isinstance(payload, dict), "payload must be a JSON object")
    _require("traceEvents" in payload, "missing 'traceEvents'")
    events = payload["traceEvents"]
    _require(isinstance(events, list), "'traceEvents' must be a list")
    _require(len(events) > 0, "'traceEvents' is empty")

    named_threads: set[tuple[int, int]] = set()
    named_processes: set[int] = set()
    spans = instants = 0
    for index, event in enumerate(events):
        _require(isinstance(event, dict), f"event {index} is not an object")
        phase = event.get("ph")
        _require(
            phase in CHROME_PHASES,
            f"event {index} has unsupported phase {phase!r}",
        )
        if phase == "M":
            _require(
                event.get("name") in METADATA_NAMES,
                f"metadata event {index} has unknown name {event.get('name')!r}",
            )
            _require("pid" in event, f"metadata event {index} missing pid")
            if event["name"] == "thread_name":
                _require("tid" in event, f"thread_name event {index} missing tid")
                named_threads.add((event["pid"], event["tid"]))
            elif event["name"] == "process_name":
                named_processes.add(event["pid"])
            continue
        keys = COMPLETE_EVENT_KEYS if phase == "X" else INSTANT_EVENT_KEYS
        for key in keys:
            _require(key in event, f"{phase!r} event {index} missing {key!r}")
        _require(
            isinstance(event["ts"], (int, float)) and event["ts"] >= 0,
            f"event {index} has invalid ts {event.get('ts')!r}",
        )
        if phase == "X":
            _require(
                isinstance(event["dur"], (int, float)) and event["dur"] >= 0,
                f"event {index} has invalid dur {event.get('dur')!r}",
            )
            _require(
                (event["pid"], event["tid"]) in named_threads,
                f"event {index} uses unnamed track pid={event['pid']} "
                f"tid={event['tid']} (thread_name metadata must precede spans)",
            )
            spans += 1
        else:
            instants += 1
    _require(spans > 0, "trace contains no span events")
    return {
        "events": len(events),
        "spans": spans,
        "instants": instants,
        "tracks": len(named_threads),
        "processes": len(named_processes),
    }


def validate_metrics(payload: Any) -> None:
    """Validate a metrics-sink payload (flat counters + track totals)."""
    _require(isinstance(payload, dict), "metrics payload must be an object")
    for key in ("counters", "tracks"):
        _require(key in payload, f"metrics payload missing {key!r}")
    _require(
        isinstance(payload["counters"], dict)
        and all(
            isinstance(value, (int, float))
            for value in payload["counters"].values()
        ),
        "'counters' must map names to numbers",
    )
    _require(isinstance(payload["tracks"], dict), "'tracks' must be an object")
    for track, totals in payload["tracks"].items():
        _require(
            isinstance(totals, dict)
            and all(isinstance(value, (int, float)) for value in totals.values()),
            f"track {track!r} totals must map names to numbers",
        )
