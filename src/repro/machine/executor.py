"""Executing annotated layer work against the simulated machine.

The synthetic benchmark of Section 4 does not interpret instructions; it
models each layer invocation as (a) touching every line of the layer's
code working set, (b) touching the layer's private data, (c) a loop over
the message contents, and (d) a fixed amount of instruction execution.
:class:`FootprintExecutor` charges exactly that against a :class:`CPU`.

The numbers in :class:`ExecutionProfile`'s defaults are the paper's:
6 KB of code and 256 bytes of data per layer; 1652 cycles of instruction
processing per layer for a 552-byte message, of which 0.5 cycles/byte is
the data loop (hence 1376 base cycles + 0.5 × 552 = 1652).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, LayoutError
from ..obs.runtime import machine_counters, span_recorder
from .cpu import CPU
from .layout import MemoryLayout
from .program import Region, RegionKind


@dataclass(frozen=True)
class ExecutionProfile:
    """Memory/compute footprint of one protocol layer per message.

    Attributes
    ----------
    code_bytes:
        Size of the code working set touched for every message.
    data_bytes:
        Size of the layer's private data working set.
    base_cycles:
        Instruction-execution cycles per message, excluding the data loop.
    per_byte_cycles:
        Data-loop cost per message byte ("a 40-instruction loop over the
        data with a cost of 0.5 cycles/byte").
    """

    code_bytes: int = 6144
    data_bytes: int = 256
    base_cycles: float = 1376.0
    per_byte_cycles: float = 0.5

    def __post_init__(self) -> None:
        if self.code_bytes <= 0:
            raise ConfigurationError("code_bytes must be positive")
        if self.data_bytes < 0:
            raise ConfigurationError("data_bytes must be non-negative")
        if self.base_cycles < 0 or self.per_byte_cycles < 0:
            raise ConfigurationError("cycle costs must be non-negative")

    def compute_cycles(self, message_bytes: int) -> float:
        """Pure execution cycles for one message of the given size."""
        return self.base_cycles + self.per_byte_cycles * message_bytes


class PlacedLayer:
    """An :class:`ExecutionProfile` bound to placed code/data regions.

    Precomputes the absolute line-number arrays so the hot loop is a
    handful of vectorized cache probes.
    """

    def __init__(
        self,
        name: str,
        profile: ExecutionProfile,
        layout: MemoryLayout,
        random_placement: bool = True,
    ) -> None:
        self.name = name
        self.profile = profile
        self.code_region = Region(f"{name}.code", profile.code_bytes, RegionKind.CODE)
        place = layout.place_random if random_placement else layout.place_sequential
        place(self.code_region)
        self.code_lines = self.code_region.line_numbers(layout.line_size)
        if profile.data_bytes > 0:
            self.data_region = Region(
                f"{name}.data", profile.data_bytes, RegionKind.DATA
            )
            place(self.data_region)
            self.data_lines = self.data_region.line_numbers(layout.line_size)
        else:
            self.data_region = None
            self.data_lines = np.empty(0, dtype=np.int64)


class MessageBuffer:
    """A placed message buffer: where one message's bytes live in memory."""

    def __init__(self, region: Region, line_size: int, index: int = 0) -> None:
        self.region = region
        self.line_size = line_size
        #: Stable position of this buffer in its pool's ring (0 for a
        #: free-standing buffer).  The vectorized engine keys its cached
        #: batch templates on ring slots rather than object identity.
        self.index = index
        self._all_lines = region.line_numbers(line_size)

    @property
    def base(self) -> int:
        """Base byte address of the placed buffer."""
        return self.region.require_base()

    @property
    def capacity(self) -> int:
        """Buffer size in bytes (the largest message it can hold)."""
        return self.region.size

    def lines_for(self, size: int) -> np.ndarray:
        """Line numbers covering the first ``size`` bytes of the buffer."""
        if size > self.capacity:
            raise LayoutError(
                f"message of {size} B exceeds buffer capacity {self.capacity} B"
            )
        if size <= 0:
            return self._all_lines[:0]
        count = (self.base + size - 1) // self.line_size - self.base // self.line_size
        return self._all_lines[: count + 1]


class BufferPool:
    """A ring of pre-placed message buffers (the adaptor's receive ring).

    Real drivers recycle a fixed set of receive buffers; reusing a small
    ring concentrates message data in a bounded memory footprint, which
    is what makes batched (LDLP) data accesses cache-friendly.
    """

    def __init__(
        self,
        layout: MemoryLayout,
        count: int,
        buffer_size: int,
        random_placement: bool = True,
    ) -> None:
        if count <= 0:
            raise ConfigurationError("buffer pool needs at least one buffer")
        self.buffers: list[MessageBuffer] = []
        place = layout.place_random if random_placement else layout.place_sequential
        for index in range(count):
            region = Region(f"msgbuf[{index}]", buffer_size, RegionKind.DATA)
            place(region)
            self.buffers.append(MessageBuffer(region, layout.line_size, index))
        self._next = 0

    def __len__(self) -> int:
        return len(self.buffers)

    def acquire(self) -> MessageBuffer:
        """Hand out the next buffer in ring order."""
        buffer = self.buffers[self._next]
        self._next = (self._next + 1) % len(self.buffers)
        return buffer


class FootprintExecutor:
    """Charges layer invocations against a :class:`CPU`.

    One invocation = fetch the layer's full code working set, read its
    private data, read the message contents, and execute the layer's
    instruction cycles.  Returns the cycle cost of the invocation.
    """

    #: Instructions for one enqueue+dequeue pair at a layer boundary
    #: ("on the order of 40 instructions", Section 3.2).
    QUEUE_INSTRUCTIONS = 40

    def __init__(self, cpu: CPU) -> None:
        self.cpu = cpu

    def run_layer(
        self,
        layer: PlacedLayer,
        message: MessageBuffer,
        message_bytes: int,
        queue_overhead: bool = False,
    ) -> float:
        """Process one message at one layer; return cycles consumed.

        Recorded as a span on the layer's track (CPU-cycle clock) when
        a span-keeping :mod:`repro.obs` recorder is installed
        (:func:`~repro.obs.runtime.span_recorder`).
        """
        recorder = span_recorder()
        handle = (
            recorder.begin(
                layer.name,
                "run_layer",
                self.cpu.cycles,
                machine_counters(self.cpu),
                message_bytes=message_bytes,
            )
            if recorder is not None
            else None
        )
        start = self.cpu.cycles
        self.cpu.fetch_code_lines(layer.code_lines)
        if layer.data_lines.size:
            self.cpu.read_data_lines(layer.data_lines)
        msg_lines = message.lines_for(message_bytes)
        if msg_lines.size:
            self.cpu.read_data_lines(msg_lines)
        self.cpu.execute(layer.profile.compute_cycles(message_bytes))
        if queue_overhead:
            self.cpu.execute(self.QUEUE_INSTRUCTIONS)
        if recorder is not None and handle is not None:
            recorder.end(handle, self.cpu.cycles)
        return self.cpu.cycles - start
