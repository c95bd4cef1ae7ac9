"""Layer-processing schedulers: Conventional, ILP, and LDLP.

This module is the paper's contribution.  All three schedulers produce
*identical functional results* — the same messages reach the top of the
stack — and differ only in the order they interleave (layer, message)
invocations, which is what determines cache behaviour (Figures 2 and 3):

* :class:`ConventionalScheduler` — one message at a time through every
  layer ("outer loop has poor locality");
* :class:`ILPScheduler` — same order, but the per-layer data loops are
  integrated so message bytes are swept once per message;
* :class:`LDLPScheduler` — locality-driven layer processing: take *all
  currently available* messages (up to the batch cap) and run each layer
  over the whole batch before moving up.  "Under light load, messages
  will usually be processed singly, minimizing delay.  Under heavy load,
  messages will be processed in batches, maximizing throughput."
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..errors import GroupingError, SchedulerError
from ..obs.runtime import active_recorder
from .batching import BatchPolicy
from .binding import MachineBinding
from .dispatch import FLOW_KEY
from .layer import Layer, Message
from .overload import DropPolicy, TailDrop


def charge_flow_lookups(scheduler: "Scheduler", batch: list[Message]) -> None:
    """Charge destination (route/PCB) lookups for one service batch.

    No-op unless the scheduler's binding carries a
    :class:`repro.flows.FlowLookup`.  The batch granularity is the
    amortization model: per-message schedulers call this with
    single-message batches and pay one lookup each, while batched
    schedulers (LDLP, Grouped) call it once per
    :func:`take_batch` and pay one lookup per *distinct* flow — the
    layer holds the resolved destination state while sweeping the
    batch, exactly as it holds layer code resident.

    Messages with no :data:`~repro.core.dispatch.FLOW_KEY` tag are
    passed through as ``None`` rather than coerced to flow 0: an
    untagged message (gossip control traffic) has no cacheable
    destination, so it must not deduplicate against other untagged
    messages or against a genuinely tagged flow 0.
    :meth:`~repro.flows.lookup.FlowLookup.charge_batch` charges each
    one a full table walk.
    """
    binding = scheduler.binding
    if binding is None or not batch:
        return
    lookup = binding.flow_lookup
    if lookup is None:
        return
    lookup.charge_batch(
        binding, [message.meta.get(FLOW_KEY) for message in batch]
    )


@dataclass(frozen=True)
class GroupPartitionDiagnosis:
    """Why a grouping is (or is not) an ordered partition of the stack.

    Produced by :func:`diagnose_groups`; consumed both by
    :class:`GroupedLDLPScheduler` (to raise a precise
    :class:`~repro.errors.GroupingError`) and by the static analyzer
    (:mod:`repro.analysis.schedcheck`), so the runtime check and the
    lint agree by construction.
    """

    num_layers: int
    #: Layer indices claimed by more than one group position.
    overlapping: tuple[int, ...] = ()
    #: Layer indices in ``0..num_layers-1`` no group covers.
    missing: tuple[int, ...] = ()
    #: Indices outside ``0..num_layers-1``.
    out_of_range: tuple[int, ...] = ()
    #: Indices that break ascending order in the flattened grouping
    #: (a completion-ordering hazard: messages would finish out of
    #: arrival order or be routed backwards through the stack).
    misordered: tuple[int, ...] = ()
    #: Positions of empty groups (a queue no message could ever leave).
    empty_groups: tuple[int, ...] = ()

    @property
    def ok(self) -> bool:
        """True when the grouping passed every structural check."""
        return not (
            self.overlapping
            or self.missing
            or self.out_of_range
            or self.misordered
            or self.empty_groups
        )

    def describe(self) -> str:
        """Human-readable summary of every violation."""
        problems: list[str] = []
        if self.out_of_range:
            problems.append(f"indices {list(self.out_of_range)} are out of range")
        if self.overlapping:
            problems.append(
                f"layer indices {list(self.overlapping)} appear in more than "
                f"one group"
            )
        if self.missing:
            problems.append(
                f"layer indices {list(self.missing)} are not covered by any "
                f"group (unreachable layers)"
            )
        if self.misordered:
            problems.append(
                f"layer indices {list(self.misordered)} are out of ascending "
                f"order (completion-ordering hazard)"
            )
        if self.empty_groups:
            problems.append(f"groups at positions {list(self.empty_groups)} are empty")
        return "; ".join(problems) if problems else "groups form an ordered partition"


def diagnose_groups(
    num_layers: int, groups: list[list[int]]
) -> GroupPartitionDiagnosis:
    """Check that ``groups`` partitions ``0..num_layers-1`` in order."""
    flattened = [index for group in groups for index in group]
    seen: set[int] = set()
    overlapping: list[int] = []
    out_of_range: list[int] = []
    for index in flattened:
        if not 0 <= index < num_layers:
            if index not in out_of_range:
                out_of_range.append(index)
        elif index in seen and index not in overlapping:
            overlapping.append(index)
        seen.add(index)
    missing = [index for index in range(num_layers) if index not in seen]
    in_range = [index for index in flattened if 0 <= index < num_layers]
    misordered = [
        current
        for previous, current in zip(in_range, in_range[1:])
        if current <= previous and current not in overlapping
    ]
    empty_groups = [pos for pos, group in enumerate(groups) if not group]
    return GroupPartitionDiagnosis(
        num_layers=num_layers,
        overlapping=tuple(overlapping),
        missing=tuple(missing),
        out_of_range=tuple(out_of_range),
        misordered=tuple(dict.fromkeys(misordered)),
        empty_groups=tuple(empty_groups),
    )


@dataclass(frozen=True)
class Completion:
    """A message that finished processing.

    ``delivered`` is True when the message was consumed by the top
    layer, False when an intermediate layer consumed (dropped) it.
    """

    message: Message
    completion_cycle: float
    delivered: bool


class Scheduler(ABC):
    """Common machinery: the input queue, drop accounting, charging.

    Parameters
    ----------
    layers:
        The stack, bottom first.  Messages enter at ``layers[0]``.
    binding:
        Optional machine binding; when absent the scheduler runs purely
        functionally and completions carry cycle 0.
    input_limit:
        Input buffer capacity in messages; arrivals beyond it are
        dropped (the paper's simulations buffer 500 packets).
    drop_policy:
        Overload behaviour at the input buffer (see
        :mod:`repro.core.overload`); ``None`` means classic tail drop,
        the paper's behaviour.
    """

    #: Whether layer boundaries go through queues (charged 40 instrs).
    uses_queues = False

    def __init__(
        self,
        layers: list[Layer],
        binding: MachineBinding | None = None,
        input_limit: int = 500,
        *,
        drop_policy: DropPolicy | None = None,
    ) -> None:
        if not layers:
            raise SchedulerError("a scheduler needs at least one layer")
        names = [layer.name for layer in layers]
        if len(set(names)) != len(names):
            raise SchedulerError(f"duplicate layer names in stack: {names}")
        self.layers = layers
        self.binding = binding
        if binding is not None and not binding.bound:
            binding.bind(layers)
        self.input_limit = input_limit
        self.drop_policy = drop_policy if drop_policy is not None else TailDrop()
        self.input_queue: deque[Message] = deque()
        self.drops = 0
        self.arrivals = 0

    # ------------------------------------------------------------------
    # Input side

    def enqueue_arrival(self, message: Message) -> bool:
        """Offer an arriving message; returns False if *it* was dropped.

        The drop policy decides who loses under contention: tail drop
        rejects ``message`` itself, head drop evicts older queued
        messages instead.  Either way every lost message counts once in
        :attr:`drops`, so ``arrivals == completions + drops + queued``
        holds at all times (the conservation invariant
        :func:`repro.sim.runner.assemble_run_result` enforces).
        """
        self.arrivals += 1
        accepted, evicted = self.drop_policy.admit(
            self.input_queue, self.input_limit
        )
        self.drops += len(evicted)
        if not accepted:
            self.drops += 1
            return False
        self.input_queue.append(message)
        return True

    def pending(self) -> int:
        """Messages waiting to start processing."""
        return len(self.input_queue)

    @property
    def busy(self) -> bool:
        """True when a service step would do work."""
        return self.pending() > 0

    def describe_config(self) -> dict[str, Any]:
        """Static description of this scheduler for offline analysis.

        Everything :mod:`repro.analysis` needs to validate a
        configuration without running it: the layer order, per-layer
        footprints, and queueing discipline.  Subclasses extend the
        dict with their batching/grouping parameters.
        """
        return {
            "scheduler": type(self).__name__,
            "uses_queues": self.uses_queues,
            "input_limit": self.input_limit,
            "drop_policy": self.drop_policy.describe(),
            "layers": [layer.describe_footprint() for layer in self.layers],
        }

    # ------------------------------------------------------------------
    # Service side

    @abstractmethod
    def service_step(self) -> list[Completion]:
        """Run one scheduling quantum.

        Conventional/ILP: one message through the whole stack.
        LDLP: one batch (all available messages up to the cap) through
        the whole stack, layer by layer.
        """

    def run_to_completion(self, messages: list[Message] | None = None) -> list[Completion]:
        """Offline convenience: enqueue ``messages`` and drain everything."""
        for message in messages or []:
            self.enqueue_arrival(message)
        completions: list[Completion] = []
        while self.busy:
            completions.extend(self.service_step())
        return completions

    # ------------------------------------------------------------------
    # Shared helpers

    def _now(self) -> float:
        return self.binding.cpu.cycles if self.binding else 0.0

    def _charge(
        self,
        layer: Layer,
        message: Message,
        include_message_data: bool = True,
        queue_overhead: bool = False,
    ) -> None:
        if self.binding is not None:
            self.binding.charge(
                layer,
                message,
                include_message_data=include_message_data,
                queue_overhead=queue_overhead,
            )

    def _cascade(
        self,
        message: Message,
        start_index: int,
        completions: list[Completion],
        message_data_swept: bool = False,
    ) -> None:
        """Depth-first: push one message up from ``start_index`` to the top.

        ``message_data_swept`` models ILP: after the first layer has
        swept the message bytes, higher layers are charged without the
        per-byte loop or message-line reads.
        """
        work: list[tuple[int, Message, bool]] = [
            (start_index, message, message_data_swept)
        ]
        while work:
            index, current, swept = work.pop()
            if index >= len(self.layers):
                completions.append(Completion(current, self._now(), delivered=True))
                continue
            layer = self.layers[index]
            self._charge(layer, current, include_message_data=not swept)
            outputs = layer.deliver(current)
            if not outputs:
                delivered = index == len(self.layers) - 1
                completions.append(Completion(current, self._now(), delivered))
                continue
            for out in reversed(outputs):
                work.append((index + 1, out, swept))


class ConventionalScheduler(Scheduler):
    """Process one message at a time through every layer (Figure 2 left)."""

    def service_step(self) -> list[Completion]:
        """Take one message and cascade it through every layer."""
        if not self.input_queue:
            return []
        message = self.input_queue.popleft()
        charge_flow_lookups(self, [message])
        completions: list[Completion] = []
        self._cascade(message, 0, completions)
        return completions


class ILPScheduler(Scheduler):
    """Integrated layer processing (Clark & Tennenhouse).

    Identical invocation *order* to the conventional scheduler — "outer
    loop has poor locality" — but the data loops of all layers are fused,
    so message bytes are loaded once per message rather than per layer.
    """

    def service_step(self) -> list[Completion]:
        """One message through all layers with the data loops fused."""
        if not self.input_queue:
            return []
        message = self.input_queue.popleft()
        charge_flow_lookups(self, [message])
        completions: list[Completion] = []
        if not self.layers:
            return completions
        # First layer sweeps the data for everyone (the integrated loop
        # pays all layers' per-byte cycles at once).
        first = self.layers[0]
        if self.binding is not None:
            extra_per_byte = sum(
                layer.footprint.per_byte_cycles for layer in self.layers[1:]
            )
            self.binding.charge(first, message, include_message_data=True)
            self.binding.cpu.execute(extra_per_byte * message.size)
        outputs = first.deliver(message)
        if not outputs:
            delivered = len(self.layers) == 1
            completions.append(Completion(message, self._now(), delivered))
            return completions
        for out in outputs:
            self._cascade(out, 1, completions, message_data_swept=True)
        return completions


def take_batch(scheduler: "LDLPScheduler | GroupedLDLPScheduler") -> list[Message]:
    """Pop one service-step batch off a batched scheduler's input queue.

    Applies the drop policy's dynamic batch cap, appends to
    ``batch_sizes``, and bumps the ``ldlp.batches`` /
    ``ldlp.batched_messages`` counters — the single place batch
    assembly happens, shared by the scalar ``service_step`` paths and
    the vectorized engine (:mod:`repro.sim.vec`) so both observe
    byte-identical batching behavior.
    """
    limit = scheduler.drop_policy.batch_limit(
        scheduler.batch_limit, len(scheduler.input_queue), scheduler.input_limit
    )
    batch: list[Message] = []
    while scheduler.input_queue and len(batch) < limit:
        batch.append(scheduler.input_queue.popleft())
    scheduler.batch_sizes.append(len(batch))
    charge_flow_lookups(scheduler, batch)
    recorder = active_recorder()
    if recorder is not None:
        recorder.count("ldlp.batches")
        recorder.count("ldlp.batched_messages", float(len(batch)))
    return batch


class LDLPScheduler(Scheduler):
    """Locality-driven layer processing (the paper's Section 3).

    Layer boundaries are queues.  A service step drains the input queue
    into a batch of at most :attr:`batch_limit` messages ("as many
    available messages as will fit in the data cache"), then runs each
    layer to completion over its queue before invoking the next layer
    up.  Each queue hop is charged the ~40-instruction enqueue/dequeue
    overhead the paper measured.
    """

    uses_queues = True

    def __init__(
        self,
        layers: list[Layer],
        binding: MachineBinding | None = None,
        input_limit: int = 500,
        batch_policy: BatchPolicy | None = None,
        *,
        drop_policy: DropPolicy | None = None,
    ) -> None:
        super().__init__(layers, binding, input_limit, drop_policy=drop_policy)
        if batch_policy is None:
            if binding is not None:
                batch_policy = BatchPolicy.from_machine(binding.spec)
            else:
                batch_policy = BatchPolicy(max_batch=14)
        self.batch_policy = batch_policy
        self._queues: list[deque[Message]] = [deque() for _ in layers]
        self.batch_sizes: list[int] = []

    @property
    def batch_limit(self) -> int:
        """Largest batch one service step may assemble (the D-cache cap)."""
        return self.batch_policy.max_batch

    def describe_config(self) -> dict[str, Any]:
        """Scheduler config plus the batch cap, for analysis/reporting."""
        config = super().describe_config()
        config["batch_limit"] = self.batch_limit
        return config

    def service_step(self) -> list[Completion]:
        """Drain up to one batch through the stack layer by layer."""
        if not self.input_queue:
            return []
        self._queues[0].extend(take_batch(self))
        completions: list[Completion] = []
        # Run layers bottom-up; repeat while flush() backwash leaves
        # work in any queue (e.g. a held-back coalesced message).
        while any(self._queues):
            for index, layer in enumerate(self.layers):
                queue = self._queues[index]
                while queue:
                    message = queue.popleft()
                    self._charge(layer, message, queue_overhead=True)
                    self._emit(index, layer.deliver(message), message, completions)
                for flushed in layer.flush():
                    self._emit(index, [flushed], flushed, completions)
        return completions

    def _emit(
        self,
        index: int,
        outputs: list[Message],
        source: Message,
        completions: list[Completion],
    ) -> None:
        top = index == len(self.layers) - 1
        if not outputs:
            completions.append(Completion(source, self._now(), delivered=top))
            return
        for out in outputs:
            if top:
                completions.append(Completion(out, self._now(), delivered=True))
            else:
                self._queues[index + 1].append(out)


class GroupedLDLPScheduler(Scheduler):
    """LDLP over *groups* of layers (the paper's closing advice).

    "A reasonable procedure when implementing protocol stacks from
    scratch is to write layers as independent units, measure their
    working sets, and then decide how to group them to maximize
    locality."  Adjacent layers whose combined code fits the
    instruction cache share one queue: within a group a message runs
    through all member layers by plain procedure calls (one queue hop
    per *group*, not per layer), and the batch moves group by group.

    With every layer in its own group this is exactly
    :class:`LDLPScheduler`; with one group it degenerates to a batched
    conventional schedule.
    """

    uses_queues = True

    def __init__(
        self,
        layers: list[Layer],
        binding: MachineBinding | None = None,
        input_limit: int = 500,
        batch_policy: BatchPolicy | None = None,
        groups: list[list[int]] | None = None,
        *,
        drop_policy: DropPolicy | None = None,
    ) -> None:
        super().__init__(layers, binding, input_limit, drop_policy=drop_policy)
        if batch_policy is None:
            if binding is not None:
                batch_policy = BatchPolicy.from_machine(binding.spec)
            else:
                batch_policy = BatchPolicy(max_batch=14)
        self.batch_policy = batch_policy
        if groups is None:
            from .blocking import group_layers_for_cache

            icache = (
                binding.spec.icache.size if binding is not None else 8192
            )
            groups = group_layers_for_cache(
                [layer.footprint.code_bytes for layer in layers], icache
            )
        self._validate_groups(groups)
        self.groups = groups
        self._group_queues: list[deque[Message]] = [deque() for _ in groups]
        self.batch_sizes: list[int] = []

    def _validate_groups(self, groups: list[list[int]]) -> None:
        diagnosis = diagnose_groups(len(self.layers), groups)
        if not diagnosis.ok:
            raise GroupingError(
                f"groups {groups} must partition layers "
                f"0..{len(self.layers) - 1} in order: {diagnosis.describe()}",
                overlapping=diagnosis.overlapping,
                missing=diagnosis.missing,
                out_of_range=diagnosis.out_of_range,
                misordered=diagnosis.misordered,
                empty_groups=diagnosis.empty_groups,
            )

    @property
    def batch_limit(self) -> int:
        """Largest batch one service step may assemble (the D-cache cap)."""
        return self.batch_policy.max_batch

    def describe_config(self) -> dict[str, Any]:
        """Scheduler config plus the batch cap and layer grouping."""
        config = super().describe_config()
        config["batch_limit"] = self.batch_limit
        config["groups"] = [list(group) for group in self.groups]
        return config

    def service_step(self) -> list[Completion]:
        """Drain up to one batch through the stack group by group."""
        if not self.input_queue:
            return []
        self._group_queues[0].extend(take_batch(self))
        completions: list[Completion] = []
        while any(self._group_queues):
            for group_index, member_layers in enumerate(self.groups):
                queue = self._group_queues[group_index]
                while queue:
                    message = queue.popleft()
                    self._run_group(
                        group_index, member_layers, message, completions,
                        charge_queue_hop=True,
                    )
                for layer_index in member_layers:
                    for flushed in self.layers[layer_index].flush():
                        self._route(group_index, layer_index, [flushed],
                                    flushed, completions)
        return completions

    def _run_group(
        self,
        group_index: int,
        member_layers: list[int],
        message: Message,
        completions: list[Completion],
        charge_queue_hop: bool,
    ) -> None:
        """Depth-first through the group's layers for one message."""
        work: list[tuple[int, Message]] = [(0, message)]
        while work:
            position, current = work.pop()
            if position >= len(member_layers):
                self._route(
                    group_index, member_layers[-1], [current], current,
                    completions, already_processed=True,
                )
                continue
            layer_index = member_layers[position]
            layer = self.layers[layer_index]
            self._charge(
                layer,
                current,
                queue_overhead=charge_queue_hop and position == 0,
            )
            outputs = layer.deliver(current)
            if not outputs:
                delivered = layer_index == len(self.layers) - 1
                completions.append(Completion(current, self._now(), delivered))
                continue
            for out in reversed(outputs):
                work.append((position + 1, out))

    def _route(
        self,
        group_index: int,
        layer_index: int,
        outputs: list[Message],
        source: Message,
        completions: list[Completion],
        already_processed: bool = False,
    ) -> None:
        """Send messages leaving ``layer_index`` to the next hop."""
        top = layer_index == len(self.layers) - 1
        if not outputs:
            completions.append(Completion(source, self._now(), delivered=top))
            return
        for out in outputs:
            if top:
                completions.append(Completion(out, self._now(), delivered=True))
            elif already_processed or layer_index == self.groups[group_index][-1]:
                self._group_queues[group_index + 1].append(out)
            else:
                # flush() output from a mid-group layer: re-enter the
                # group at the next member via its queue-free path.
                remaining = self.groups[group_index][
                    self.groups[group_index].index(layer_index) + 1 :
                ]
                self._run_group(
                    group_index, remaining, out, completions,
                    charge_queue_hop=False,
                )
