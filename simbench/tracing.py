"""Outside-in layer tracing: timing wrappers installed from the benchmark.

The program under test is not edited.  For a traced run the benchmark
replaces each layer's public functions (class methods, and module
attributes wherever callers resolve the name) with wrappers that record
one span per call - layer, start, end and parent span - then puts the
originals back.  A layer's *self time* is its spans' duration minus the
part covered by their child spans; the root span is
``SweepPoint.execute``, so self times over all layers add up to the
traced run time.

Every wrapper adds a little time to its caller's self time, which is
why per-layer numbers come from a separate traced run and the untraced
run gives the end-to-end metrics; ``trace_overhead`` reports the cost.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from importlib import import_module
from time import perf_counter
from typing import Any, Callable, Iterator

import numpy as np

_RUNNERS = ("repro.sim.runner", "repro.flows.runner", "repro.gossip.runner")
_SCHEDULERS = (
    "ConventionalScheduler", "ILPScheduler", "LDLPScheduler", "GroupedLDLPScheduler",
)

#: Layer name -> the ``module:attribute`` targets whose calls are its spans.
LAYERS: dict[str, tuple[str, ...]] = {
    "traffic": (
        "repro.traffic.base:TrafficSource.arrival_list",
        "repro.traffic.bellcore:synthesize_bellcore_like",
        "repro.experiments.figure7:synthesize_bellcore_like",
    ),
    "sim.build": tuple(
        f"{module}:build_scheduler" for module in _RUNNERS + ("repro.sim.multicore",)
    ),
    "sim.drive": tuple(f"{module}:drive" for module in _RUNNERS),
    "sim.assemble": tuple(f"{module}:assemble_run_result" for module in _RUNNERS),
    "vec": ("repro.sim.vec:try_drive_vec",),
    "cache.plan_compile": ("repro.cache.chunked:SegmentedAccessPlan.__init__",),
    "cache.plan_apply": ("repro.cache.chunked:SegmentedAccessPlan.apply",),
    "scheduler.step": tuple(
        f"repro.core.scheduler:{name}.service_step" for name in _SCHEDULERS
    ),
    "scheduler.admit": ("repro.core.scheduler:Scheduler.enqueue_arrival",),
    "binding.charge": ("repro.core.binding:MachineBinding.charge",),
    "cpu": tuple(
        f"repro.machine.cpu:CPU.{name}"
        for name in ("fetch_code_lines", "read_data_lines", "execute", "advance_to_cycle")
    ),
    "cache.probe": (
        "repro.cache.cache:DirectMappedCache.access_line_array",
        "repro.cache.cache:DirectMappedCache.access_line_array_report",
    ),
    "cache.assoc": ("repro.cache.cache:SetAssociativeCache.access_line",),
    "flows.charge": ("repro.flows.lookup:FlowLookup.charge_batch",),
    "dispatch.select": tuple(
        f"repro.core.dispatch:{name}.select"
        for name in ("FlowHashRSS", "AppDefinedDispatch", "LDLPAwareDispatch")
    ),
    "multicore.drive": ("repro.sim.multicore:drive_multicore",),
    "obs": tuple(
        f"repro.obs.runtime:Recorder.{name}" for name in ("count", "begin", "end", "instant")
    ),
    "harness.point": ("repro.harness.points:SweepPoint.execute",),
}

LAYER_NAMES = tuple(LAYERS)
VEC_LAYER = LAYER_NAMES.index("vec")

_MISSING = object()


def _resolve(target: str) -> tuple[Any, str]:
    """``module:Class.attr`` or ``module:attr`` -> (owner object, attribute)."""
    module_name, _, path = target.partition(":")
    owner: Any = import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Span store for one traced run at a time.

    Spans are four parallel lists (layer index, start, end, parent
    span index or -1), cleared in place by :meth:`reset` so the
    installed wrappers can hold the list objects directly.
    """

    def __init__(self) -> None:
        self.layers: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        #: Calls of ``try_drive_vec`` that drove the run (did not decline).
        self.vec_driven = 0
        #: Targets that do not exist in this version of the program.
        self.missing: list[str] = []

    def reset(self) -> None:
        """Forget the previous run's spans."""
        for spans in (self.layers, self.starts, self.ends, self.parents, self._stack):
            del spans[:]

    def spans(self) -> dict[str, np.ndarray]:
        """The current run's spans as arrays."""
        return {
            "layer": np.asarray(self.layers, dtype=np.int64),
            "start": np.asarray(self.starts, dtype=np.float64),
            "end": np.asarray(self.ends, dtype=np.float64),
            "parent": np.asarray(self.parents, dtype=np.int64),
        }

    def _wrap(self, layer: int, fn: Callable[..., Any]) -> Callable[..., Any]:
        layers, starts, ends = self.layers, self.starts, self.ends
        parents, stack = self.parents, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            layers.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        if layer != VEC_LAYER:
            return traced

        @functools.wraps(fn)
        def counted(*args: Any, **kwargs: Any) -> Any:
            outcome = traced(*args, **kwargs)
            if outcome is not None:
                self.vec_driven += 1
            return outcome

        return counted

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer target for the duration of the block."""
        saved: list[tuple[Any, str, Any]] = []
        self.missing = []
        try:
            for layer, targets in enumerate(LAYERS.values()):
                for target in targets:
                    try:
                        owner, attr = _resolve(target)
                        original = getattr(owner, attr)
                    except (ImportError, AttributeError):
                        self.missing.append(target)
                        continue
                    saved.append((owner, attr, vars(owner).get(attr, _MISSING)))
                    setattr(owner, attr, self._wrap(layer, original))
            yield self
        finally:
            for owner, attr, before in reversed(saved):
                if before is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, before)


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its child spans cover.

    Calls nest strictly on one thread, so a span's children are
    disjoint sub-intervals of it and their coverage is the sum of
    their durations.
    """
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    child = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(child, parent[nested], duration[nested])
    return duration - child


class LayerTotals:
    """Per-layer self time and call counts summed over traced runs."""

    def __init__(self) -> None:
        self.self_s = np.zeros(len(LAYER_NAMES))
        self.calls = np.zeros(len(LAYER_NAMES), dtype=np.int64)

    def add(self, spans: dict[str, np.ndarray]) -> None:
        """Accumulate one run's spans."""
        layer = spans["layer"]
        self.self_s += np.bincount(
            layer, weights=self_times(spans), minlength=len(LAYER_NAMES)
        )
        self.calls += np.bincount(layer, minlength=len(LAYER_NAMES))

    @property
    def run_s(self) -> float:
        """Total traced run time (the root spans cover every layer)."""
        return float(self.self_s.sum())

    def share(self, layer: str) -> float:
        """A layer's self time as a fraction of traced run time."""
        total = self.run_s
        return float(self.self_s[LAYER_NAMES.index(layer)] / total) if total else 0.0

    def count(self, layer: str) -> int:
        """Calls recorded for a layer."""
        return int(self.calls[LAYER_NAMES.index(layer)])
