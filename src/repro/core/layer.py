"""Layers, messages, and footprints — the vocabulary of LDLP.

A protocol stack is a chain of :class:`Layer` objects.  Each layer does
two independent things:

* *functional* work: :meth:`Layer.deliver` transforms a message (parse a
  header, verify a checksum, append to a socket buffer) and returns the
  messages to hand to the next layer up (zero, one, or several — e.g. a
  reassembled datagram or an ACK to emit);
* *memory-system* work: the layer's
  :class:`~repro.machine.executor.LayerFootprint` describes the code and
  data it touches, which the machine model charges against the simulated
  caches.

Keeping these separate is exactly what makes LDLP applicable "to
existing protocol implementations by changing only the interface to the
layers" (Section 5): schedulers reorder *invocations* without knowing
anything about layer internals.
"""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Sequence

from ..errors import SchedulerError
from ..machine.executor import LayerFootprint, MessageBuffer

_message_ids = itertools.count()


@dataclass(slots=True)
class Message:
    """One message moving through a stack.

    Attributes
    ----------
    payload:
        The message contents.  For the byte-level stack this is an
        :class:`~repro.buffers.MbufChain`; for purely synthetic
        workloads it may be ``None`` with only ``size`` meaningful.
    size:
        Length in bytes (kept explicit so synthetic messages need no
        actual bytes).
    arrival_time:
        Simulated arrival time in seconds (set by the traffic source).
    meta:
        Layer-to-layer annotations (e.g. parsed headers), replacing the
        fields a kernel would stash in the mbuf packet header.
    arrival_cycle:
        CPU cycle of the message's arrival, stamped by
        :func:`repro.sim.runner.drive` on every message of its arrival
        stream.  Only stamped messages count as completions there; a
        message a layer creates keeps ``None``.
    buffer:
        The placed :class:`~repro.machine.executor.MessageBuffer` holding
        the message's bytes, assigned on first use by
        :meth:`repro.core.binding.MachineBinding.buffer_of`; a message a
        layer creates starts with ``None`` and gets its own.  Only the
        scalar charge path assigns it: the vec engine
        (:mod:`repro.sim.vec`) takes a step's buffers as one run of ring
        slots and leaves it ``None``.
    """

    payload: Any = None
    size: int = 0
    arrival_time: float = 0.0
    meta: dict[str, Any] = field(default_factory=dict)
    msg_id: int = field(default_factory=_message_ids.__next__)
    arrival_cycle: float | None = field(default=None, compare=False)
    buffer: MessageBuffer | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise SchedulerError(f"message size must be non-negative, got {self.size}")
        if self.payload is not None and self.size == 0:
            try:
                self.size = len(self.payload)
            except TypeError:
                pass


def arrival_messages(
    times: Sequence[float],
    sizes: Sequence[int],
    metas: Sequence[dict[str, Any]] | None = None,
) -> list[Message]:
    """One payload-less :class:`Message` per (arrival time, size) pair,
    as ``Message(size=size, arrival_time=time, meta=meta)`` would build
    each, drawing their ``msg_id`` values in the same order.

    ``metas`` holds each message's own meta dict (a workload's tags);
    without it every message starts with an empty one.  Checks the
    sizes once for the column and raises the
    :class:`~repro.errors.SchedulerError` ``__post_init__`` would raise
    for the first negative one; each message then skips the dataclass
    ``__init__`` and ``__post_init__`` (with no payload, ``__post_init__``
    only checks the size).
    """
    if sizes and min(sizes) < 0:
        size = next(size for size in sizes if size < 0)
        raise SchedulerError(f"message size must be non-negative, got {size}")
    if metas is None:
        metas = [{} for _ in times]
    new = object.__new__
    messages = []
    append = messages.append
    for time, size, meta, msg_id in zip(
        times, sizes, metas, itertools.islice(_message_ids, len(times))
    ):
        message = new(Message)
        message.payload = None
        message.size = size
        message.arrival_time = time
        message.meta = meta
        message.msg_id = msg_id
        message.arrival_cycle = None
        message.buffer = None
        append(message)
    return messages


class Layer(ABC):
    """One protocol layer.

    Subclasses implement :meth:`deliver`; the scheduler machinery never
    calls it directly but always through a
    :class:`~repro.core.scheduler.Scheduler`, which decides *when* each
    (layer, message) pair runs.
    """

    def __init__(self, name: str, footprint: LayerFootprint | None = None) -> None:
        self.name = name
        self.footprint = footprint or LayerFootprint()

    @abstractmethod
    def deliver(self, message: Message) -> list[Message]:
        """Process one message; return messages for the next layer up.

        Returning ``[]`` consumes the message (e.g. the top layer
        delivering to an application, or a dropped packet).
        """

    def flush(self) -> list[Message]:
        """Emit any messages the layer held back (batch-end hook).

        Layers that coalesce work across a batch (e.g. a TCP layer
        holding a delayed ACK) override this; the schedulers call it
        when a batch at this layer completes.
        """
        return []

    @property
    def holds_messages(self) -> bool:
        """True when the layer overrides :meth:`flush` (it may coalesce).

        Schedulers that never call flush (the non-queue disciplines)
        would strand such a layer's held messages; the static analyzer
        flags that combination.
        """
        return type(self).flush is not Layer.flush

    def describe_footprint(self) -> dict[str, object]:
        """Static description of this layer for offline analysis."""
        return {
            "name": self.name,
            "holds_messages": self.holds_messages,
            **self.footprint.describe(),
        }

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class PassthroughLayer(Layer):
    """A layer that forwards every message unchanged.

    The synthetic benchmark of Section 4 uses five of these: all cost,
    no transformation.
    """

    def deliver(self, message: Message) -> list[Message]:
        """Forward the message unchanged."""
        return [message]


class CountingLayer(PassthroughLayer):
    """Passthrough layer that counts deliveries (test/diagnostic aid)."""

    def __init__(self, name: str, footprint: LayerFootprint | None = None) -> None:
        super().__init__(name, footprint)
        self.delivered: list[int] = []

    def deliver(self, message: Message) -> list[Message]:
        """Record the message id, then forward unchanged."""
        self.delivered.append(message.msg_id)
        return [message]


class SinkLayer(Layer):
    """Top-of-stack layer that consumes messages and records them."""

    def __init__(self, name: str = "application") -> None:
        super().__init__(name, LayerFootprint(code_bytes=512, data_bytes=64,
                                              base_cycles=50.0, per_byte_cycles=0.0))
        self.received: list[Message] = []

    def deliver(self, message: Message) -> list[Message]:
        """Consume the message (nothing propagates past the sink)."""
        self.received.append(message)
        return []
