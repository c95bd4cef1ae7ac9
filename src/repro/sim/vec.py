"""The vectorized (columnar) service-step engine.

:func:`repro.sim.runner.drive` spends essentially all of its time in
the scalar service path: one Python-level call per (layer, message)
invocation, each performing a handful of small numpy cache probes and
float additions.  This module replaces a whole service step with a
constant number of numpy operations, while producing **bit-identical**
results — same latency samples in the same order, same cache statistics,
same obs counters, same drop decisions.

The engine is a per-core *stepper* inside the one drive loop: for each
core, :func:`vec_stepper` returns the engine's ``step`` (a list of
(message, completion cycle) pairs per call), and the loop — admission,
dispatch, obs spans, cache flushes — is the same for both engines and
every core count.  The drive call owns the engines; they are freed
when it returns.

How it works
------------
*Static step templates.*  For a given scheduler kind, the sequence of
(layer, message-slot) invocations a service step performs — and hence
the full reference stream it pushes through each cache — is a pure
function of the batch composition (which ring buffer holds which
message size).  The engine compiles that into a
:class:`repro.cache.chunked.SegmentedAccessPlan` per cache plus a
per-invocation cost-addend layout, cached by composition key; a
template keeps its data plan packed (:class:`~repro.cache.chunked.PackedPlan`)
for the batch length's :class:`~repro.cache.chunked.FusedReplay`.  The ring
of 32 buffers and the bounded batch cap keep the key space small, so a
single-size workload soon replays only cached templates.  A mixed-size
trace does not: on the synthesized Bellcore-like trace (nine Ethernet
frame sizes) about 0.55 plans are compiled per step, most templates
are used once or twice, and compiling costs about as much as a step.
The code stream depends on the batch length alone, so its plan is
compiled once per length and shared by every composition of that
length; a code segment that re-runs the layer that just ran is elided
from it
(:func:`repro.cache.chunked.collapsed_plan`), which turns LDLP's
layer-major batch into one segment per layer.

*Dynamic replay.*  The split L1 keeps both tag arrays in one backing
array (:class:`~repro.cache.hierarchy.SplitCacheHierarchy`), so a step
replays its code and data plans as one plan, in ~15 numpy ops: copy
the data plan's first touches in front of the code plan's in the batch
length's arena, gather the live tags, compare, scatter the final tags,
count misses per segment, scatter them as stall addends, and one
``cumsum`` over the flat addend array.  ``cumsum`` accumulates strictly
left-to-right, so seeding slot 0 with the current cycle counter
reproduces the scalar engine's float-addition *order* — which is what
makes the cycle counts (and therefore every latency sample) bit-exact,
not merely close.

Equivalence boundaries
----------------------
The engine silently declines (:func:`vec_stepper` returns ``None``,
the core steps on the scalar path) whenever exact replay is not
guaranteed: unbound schedulers, non-passthrough layers (stateful
stacks), an L2 hierarchy (so a core behind a shared L2 steps scalar
while the others replay), layers whose code working set conflicts with
itself in the instruction cache (the static template would be unsound —
see :class:`~repro.cache.chunked.UnsupportedPlanError`), or a
span-keeping obs recorder (the vec path emits no per-layer ``invoke``
spans; full tracing keeps the scalar path, and the harness's
metrics-only recorder wants only the drive loop's counters).

Flow-lookup charging (:mod:`repro.flows`, :mod:`repro.gossip`) is
inside the envelope.  The lookup stays scalar — LRU state depends on
access order — and runs where the scalar schedulers run it: right
after the dequeue, via
:func:`~repro.core.scheduler.charge_flow_lookups` (batched schedulers
charge inside :func:`~repro.core.scheduler.take_batch`).  Its cycles
reach ``cpu.cycles`` before the template seeds addend slot 0 from it,
so the ``cumsum`` still adds in the scalar order.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..cache.cache import DirectMappedCache
from ..cache.chunked import FusedReplay, PackedPlan, collapsed_plan, segment_plan
from ..core.layer import Message, PassthroughLayer
from ..core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
    Scheduler,
    charge_flow_lookups,
    take_batch,
)
from ..machine.executor import FootprintExecutor, MessageBuffer
from ..obs.runtime import span_recorder

#: Cost-addend slots per invocation in a step template (istall, layer
#: data stall, message-buffer stall, execute, trailing execute).
_SLOTS = 5


class _StepTemplate:
    """Compiled cache replay + cost layout for one batch composition.

    ``replay``, ``positions`` and ``completions`` depend on the batch
    length only and are shared by every template of that length; only
    ``data`` and ``addends`` belong to the composition.
    """

    __slots__ = ("replay", "data", "addends", "positions", "completions")

    def __init__(
        self,
        replay: FusedReplay,
        data: PackedPlan,
        addends: np.ndarray,
        positions: np.ndarray,
        completions: list[tuple[int, int]],
    ) -> None:
        #: The batch length's code plan, fused with ``data`` per step.
        self.replay = replay
        self.data = data
        #: Flat addend array: slot 0 = live cycle counter, then _SLOTS
        #: per invocation; cumsum replays the scalar addition order.
        self.addends = addends
        #: Addend slot of each replay segment's stall: the data and
        #: buffer stall slots, then the istall slots of the invocations
        #: the code plan kept (elided repeats never miss; their slots
        #: stay 0).
        self.positions = positions
        #: (message slot, addend index of its completion cycle) pairs
        #: in scalar completion order.
        self.completions = completions


#: The batch-length-only part of a template: (replay, positions,
#: completions).
_Shape = tuple[FusedReplay, np.ndarray, list[tuple[int, int]]]


def _distinct_sets(lines: np.ndarray, num_lines: int) -> bool:
    """True when the line array maps to all-distinct cache sets."""
    if lines.size == 0:
        return True
    return int(np.unique(lines % num_lines).size) == int(lines.size)


class _VecEngine:
    """Per-drive-call state of the vectorized service path."""

    def __init__(self, scheduler: Scheduler, kind: str) -> None:
        self.scheduler = scheduler
        self.kind = kind
        binding = scheduler.binding
        assert binding is not None
        self.binding = binding
        self.cpu = binding.cpu
        hierarchy = self.cpu.hierarchy
        self.icache = hierarchy.icache
        self.dcache = hierarchy.dcache
        self.tags = hierarchy.l1_tags
        # A float penalty makes the stalls float64, exactly: miss counts
        # times the penalty stay far below 2**53.
        self.miss_penalty = float(binding.spec.miss_penalty)
        efficiency = float(binding.spec.iprefetch_efficiency)
        self.iprefetch_scale = (1.0 - efficiency) if efficiency else None
        self.placed = [
            binding.placed_layer(layer.name) for layer in scheduler.layers
        ]
        self.extra_per_byte = sum(
            layer.footprint.per_byte_cycles for layer in scheduler.layers[1:]
        )
        self.groups = (
            scheduler.groups if isinstance(scheduler, GroupedLDLPScheduler) else None
        )
        self._templates: dict[tuple[tuple[int, int], ...], _StepTemplate] = {}
        self._shapes: dict[int, _Shape] = {}

    # ------------------------------------------------------------------
    # Template compilation

    def _invocations(self, sizes: list[int]) -> list[tuple[int, int, bool, float]]:
        """The step's (layer, slot, include_data, trailing_execute) list.

        Mirrors each scalar scheduler's invocation order exactly (the
        order determines cache behaviour — it is the paper's whole
        subject): conventional/ILP are message-major, LDLP is
        layer-major over the batch, grouped is group-major with one
        queue hop per group.
        """
        num_layers = len(self.placed)
        queue_cost = float(FootprintExecutor.QUEUE_INSTRUCTIONS)
        if self.kind == "conventional":
            return [(index, 0, True, 0.0) for index in range(num_layers)]
        if self.kind == "ilp":
            program = [(0, 0, True, self.extra_per_byte * sizes[0])]
            program += [(index, 0, False, 0.0) for index in range(1, num_layers)]
            return program
        if self.kind == "ldlp":
            return [
                (layer_index, slot, True, queue_cost)
                for layer_index in range(num_layers)
                for slot in range(len(sizes))
            ]
        assert self.groups is not None
        program = []
        for members in self.groups:
            for slot in range(len(sizes)):
                for position, layer_index in enumerate(members):
                    program.append(
                        (layer_index, slot, True,
                         queue_cost if position == 0 else 0.0)
                    )
        return program

    def _completion_points(
        self, batch: int, invocations: int
    ) -> list[tuple[int, int]]:
        """Per-message completion (slot, addend index) in scalar order."""
        num_layers = len(self.placed)
        if self.kind in ("conventional", "ilp"):
            return [(0, _SLOTS * invocations)]
        if self.kind == "ldlp":
            first_top = (num_layers - 1) * batch
            return [
                (slot, _SLOTS * (first_top + slot) + _SLOTS)
                for slot in range(batch)
            ]
        assert self.groups is not None
        last = len(self.groups[-1])
        offset = batch * sum(len(members) for members in self.groups[:-1])
        return [
            (slot, _SLOTS * (offset + slot * last + last - 1) + _SLOTS)
            for slot in range(batch)
        ]

    def _shape(
        self, program: list[tuple[int, int, bool, float]], batch: int
    ) -> _Shape:
        """The batch-length-only parts of a template, compiled once.

        The code stream is the program's layer sequence, which depends
        on the batch length but not on buffers or sizes.
        """
        shape = self._shapes.get(batch)
        if shape is None:
            count = len(program)
            base = _SLOTS * np.arange(count, dtype=np.int64)
            iplan, kept = collapsed_plan(
                [self.placed[layer_index].code_lines for layer_index, *_ in program],
                self.icache.num_lines,
            )
            dpos = np.empty(2 * count, dtype=np.int64)
            dpos[0::2] = base + 2
            dpos[1::2] = base + 3
            shape = (
                FusedReplay(iplan, self.dcache.num_lines, 2 * count),
                np.concatenate((dpos, base[kept] + 1)),
                self._completion_points(batch, count),
            )
            self._shapes[batch] = shape
        return shape

    def _compile(
        self, sizes: list[int], buffers: list[MessageBuffer]
    ) -> _StepTemplate:
        program = self._invocations(sizes)
        replay, positions, completions = self._shape(program, len(sizes))
        # Each slot's buffer lines, computed once: LDLP and grouped
        # programs touch every slot once per layer (or group).
        slot_lines = [
            buffer.lines_for(min(size, buffer.capacity))
            for buffer, size in zip(buffers, sizes)
        ]
        no_lines = slot_lines[0][:0]
        data_segments: list[np.ndarray] = []
        execute: list[float] = []
        for layer_index, slot, include_data, _ in program:
            placed = self.placed[layer_index]
            data_segments.append(placed.data_lines)
            if include_data:
                data_segments.append(slot_lines[slot])
                execute.append(placed.profile.compute_cycles(sizes[slot]))
            else:
                data_segments.append(no_lines)
                execute.append(placed.profile.base_cycles)
        addends = np.zeros(1 + _SLOTS * len(program))
        addends[4::_SLOTS] = execute
        addends[5::_SLOTS] = [trailing for *_, trailing in program]
        data = replay.pack(segment_plan(data_segments, self.dcache.num_lines))
        return _StepTemplate(replay, data, addends, positions, completions)

    # ------------------------------------------------------------------
    # Dynamic replay

    def step(self) -> list[tuple[Message, float]]:
        """Run one service step; returns (message, completion cycle)."""
        scheduler = self.scheduler
        if self.kind in ("conventional", "ilp"):
            batch = [scheduler.input_queue.popleft()]
            charge_flow_lookups(scheduler, batch)
        else:
            batch = take_batch(scheduler)  # type: ignore[arg-type]
            if not batch:
                return []
        buffers = [self.binding.buffer_of(message) for message in batch]
        sizes = [message.size for message in batch]
        key = tuple(
            (buffer.index, size) for buffer, size in zip(buffers, sizes)
        )
        template = self._templates.get(key)
        if template is None:
            template = self._compile(sizes, buffers)
            self._templates[key] = template
        cpu = self.cpu
        replay = template.replay
        misses = replay.apply(
            self.tags, template.data, self.dcache.stats, self.icache.stats
        )
        stall = misses * self.miss_penalty
        if self.iprefetch_scale is not None:
            # round() and np.rint both round half to even, so the
            # per-call prefetch discount truncates identically.
            istall = stall[replay.dsegments :]
            istall[:] = np.rint(istall * self.iprefetch_scale)
        addends = template.addends
        addends[0] = cpu.cycles
        addends[template.positions] = stall
        timeline = addends.cumsum()
        cpu.cycles = float(timeline[-1])
        cpu.stall_cycles += float(stall.sum())
        return [
            (batch[slot], float(timeline[index]))
            for slot, index in template.completions
        ]


def vec_supported(scheduler: Scheduler) -> bool:
    """Whether the vectorized engine can replay this scheduler exactly.

    Checks everything static: scheduler kind, pure passthrough layers,
    a bound flat (no-L2) direct-mapped hierarchy, and self-conflict-free
    code/data/buffer placements (the static-template soundness
    condition).  Dynamic conditions (a span-keeping recorder) are
    checked by :func:`vec_stepper` per drive call.
    """
    kind = _scheduler_kind(scheduler)
    if kind is None:
        return False
    binding = scheduler.binding
    if binding is None or not binding.bound:
        return False
    if binding.spec.l2 is not None:
        return False
    hierarchy = binding.cpu.hierarchy
    for cache in (hierarchy.icache, hierarchy.dcache):
        if type(cache) is not DirectMappedCache:
            return False
        if cache.tag_array.base is not hierarchy.l1_tags:
            return False
    for layer in scheduler.layers:
        if type(layer) is not PassthroughLayer:
            return False
    icache_sets = hierarchy.icache.num_lines
    dcache_sets = hierarchy.dcache.num_lines
    for layer in scheduler.layers:
        placed = binding.placed_layer(layer.name)
        if not _distinct_sets(placed.code_lines, icache_sets):
            return False
        if not _distinct_sets(placed.data_lines, dcache_sets):
            return False
    pool = binding.pool
    if pool is None:
        return False
    for buffer in pool.buffers:
        if not _distinct_sets(buffer.lines_for(buffer.capacity), dcache_sets):
            return False
    return True


def _scheduler_kind(scheduler: Scheduler) -> str | None:
    """The template kind for a scheduler, or None if unsupported.

    Exact-type checks: a subclass may override service semantics, and
    silently vectorizing it would break the scalar≡vec contract.
    """
    for cls, kind in (
        (ConventionalScheduler, "conventional"),
        (ILPScheduler, "ilp"),
        (LDLPScheduler, "ldlp"),
        (GroupedLDLPScheduler, "grouped"),
    ):
        if type(scheduler) is cls:
            return kind
    return None


def vec_stepper(scheduler: Scheduler) -> Callable[[], list[tuple[Message, float]]] | None:
    """The vec engine's service step for one core, or ``None``.

    ``None`` means the caller steps this core on the scalar path: the
    configuration is outside the engine's exact-replay envelope (see
    the module docstring and :func:`vec_supported`), or a span-keeping
    recorder wants the per-layer ``invoke`` spans only the scalar path
    emits.  The returned bound method is the engine's only owner, so the
    engine and its compiled templates are freed with it.
    """
    if span_recorder() is not None:
        return None
    if not vec_supported(scheduler):
        return None
    return _VecEngine(scheduler, _scheduler_kind(scheduler) or "").step
