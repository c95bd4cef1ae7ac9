"""Layer footprints, placed layers and message buffers.

The synthetic benchmark of Section 4 does not interpret instructions; it
models each layer invocation as (a) touching every line of the layer's
code working set, (b) touching the layer's private data, (c) a loop over
the message contents, and (d) a fixed amount of instruction execution.
A :class:`LayerFootprint` states those sizes and costs for one layer,
:class:`PlacedLayer` binds them to placed memory regions, and
:meth:`repro.core.binding.MachineBinding.charge` charges one invocation
against the :class:`~repro.machine.cpu.CPU`.

The numbers in :class:`LayerFootprint`'s defaults are the paper's:
6 KB of code and 256 bytes of data per layer; 1652 cycles of instruction
processing per layer for a 552-byte message, of which 0.5 cycles/byte is
the data loop (hence 1376 base cycles + 0.5 × 552 = 1652).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, LayoutError
from .layout import MemoryLayout
from .program import Region, RegionKind

#: Instructions for one enqueue+dequeue pair at a layer boundary ("on
#: the order of 40 instructions", Section 3.2).
QUEUE_INSTRUCTIONS = 40


@dataclass(frozen=True)
class LayerFootprint:
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

    def describe(self) -> dict[str, float]:
        """Plain-dict form for offline analysis and JSON reports."""
        return {
            "code_bytes": self.code_bytes,
            "data_bytes": self.data_bytes,
            "base_cycles": self.base_cycles,
            "per_byte_cycles": self.per_byte_cycles,
        }


class PlacedLayer:
    """A :class:`LayerFootprint` bound to placed code/data regions.

    Precomputes the absolute line-number arrays so the hot loop is a
    handful of vectorized cache probes.
    """

    def __init__(
        self,
        name: str,
        footprint: LayerFootprint,
        layout: MemoryLayout,
        random_placement: bool = True,
    ) -> None:
        self.name = name
        self.footprint = footprint
        self.code_region = Region(f"{name}.code", footprint.code_bytes, RegionKind.CODE)
        place = layout.place_random if random_placement else layout.place_sequential
        place(self.code_region)
        self.code_lines = self.code_region.line_numbers(layout.line_size)
        if footprint.data_bytes > 0:
            self.data_region = Region(
                f"{name}.data", footprint.data_bytes, RegionKind.DATA
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

    def acquire_run(self, count: int) -> int:
        """Hand out the next ``count`` buffers in ring order at once, as
        ``count`` :meth:`acquire` calls would; returns the first one's
        ring slot (the run wraps past the last slot to slot 0)."""
        first = self._next
        self._next = (first + count) % len(self.buffers)
        return first
