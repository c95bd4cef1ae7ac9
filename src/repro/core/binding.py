"""Binding a stack of layers to the simulated machine.

A :class:`MachineBinding` owns the CPU, cache state, memory layout, and
message-buffer ring for one simulation run, and charges the cost of each
(layer, message) invocation.  Schedulers stay machine-agnostic: they
call :meth:`MachineBinding.charge` if a binding is present and otherwise
run purely functionally (fast unit tests, correctness checks).
"""

from __future__ import annotations

import numpy as np

from ..cache.hierarchy import MachineSpec
from ..errors import ConfigurationError
from ..machine.cpu import CPU
from ..machine.executor import (
    QUEUE_INSTRUCTIONS,
    BufferPool,
    MessageBuffer,
    PlacedLayer,
)
from ..machine.layout import DEFAULT_SEED, MemoryLayout
from ..obs.runtime import machine_counters, span_recorder
from .layer import Layer, Message


class MachineBinding:
    """Machine state + cost charging for one run of a protocol stack.

    Parameters
    ----------
    spec:
        The machine description (clock, caches, miss penalty).
    rng:
        Drives random placement (an int seed or a numpy generator).
        When omitted, a fixed default seed is used — never OS entropy —
        so an unseeded binding still reproduces byte-identically.
    random_placement:
        Paper methodology: random code placement (averaged over seeds).
        Sequential placement gives the conflict-free best case.
    pool_buffers / buffer_size:
        Geometry of the receive-buffer ring messages are placed in.
    """

    def __init__(
        self,
        spec: MachineSpec | None = None,
        rng: np.random.Generator | int | None = None,
        random_placement: bool = True,
        pool_buffers: int = 32,
        buffer_size: int = 2048,
    ) -> None:
        self.spec = spec or MachineSpec()
        if rng is None:
            # Fixed-seed fallback, never OS entropy (DET001): forgetting
            # to pass a seed must not silently break reproducibility.
            rng = DEFAULT_SEED
        if isinstance(rng, (int, np.integer)):
            rng = np.random.default_rng(int(rng))
        self.rng = rng
        self.random_placement = random_placement
        self.pool_buffers = pool_buffers
        self.buffer_size = buffer_size
        self.cpu = CPU(self.spec)
        #: Optional flow-lookup cache (:class:`repro.flows.FlowLookup`).
        #: When set, the scheduler hooks charge a route/PCB lookup per
        #: service batch (see repro.core.scheduler.charge_flow_lookups);
        #: when None — the default — lookups cost nothing, preserving
        #: the original Section-4 cost model bit-for-bit.
        self.flow_lookup = None
        self._layout = MemoryLayout(
            line_size=self.spec.icache.line_size, rng=self.rng
        )
        self._placed: dict[str, PlacedLayer] = {}
        self._pool: BufferPool | None = None

    def bind(self, layers: list[Layer]) -> None:
        """Place every layer's code/data and build the buffer ring."""
        if self._placed:
            raise ConfigurationError("binding is already bound to a stack")
        if not layers:
            raise ConfigurationError("cannot bind an empty stack")
        for layer in layers:
            if layer.name in self._placed:
                raise ConfigurationError(f"duplicate layer name {layer.name!r}")
            self._placed[layer.name] = PlacedLayer(
                layer.name,
                layer.footprint,
                self._layout,
                random_placement=self.random_placement,
            )
        self._pool = BufferPool(
            self._layout,
            self.pool_buffers,
            self.buffer_size,
            random_placement=self.random_placement,
        )

    @property
    def bound(self) -> bool:
        """True once :meth:`bind` has placed the layers in memory."""
        return bool(self._placed)

    @property
    def pool(self) -> BufferPool | None:
        """The placed message-buffer ring (None before :meth:`bind`)."""
        return self._pool

    def placed_layer(self, name: str) -> PlacedLayer:
        """The placed code/data regions of one bound layer, by name."""
        try:
            return self._placed[name]
        except KeyError:
            raise ConfigurationError(f"layer {name!r} is not bound") from None

    def buffer_of(self, message: Message) -> MessageBuffer:
        """The placed buffer holding a message's bytes (assigned lazily)."""
        buffer = message.buffer
        if buffer is None:
            if self._pool is None:
                raise ConfigurationError("binding not bound; call bind() first")
            buffer = message.buffer = self._pool.acquire()
        return buffer

    def charge(
        self,
        layer: Layer,
        message: Message,
        include_message_data: bool = True,
        queue_overhead: bool = False,
    ) -> float:
        """Charge one (layer, message) invocation; return its cycle cost.

        ``include_message_data=False`` models integrated layer
        processing: the message bytes were already swept by an earlier
        layer's integrated loop, so this invocation touches only code
        and layer data and skips the per-byte data-loop cycles.

        When a span-keeping :mod:`repro.obs` recorder is installed, each
        invocation is recorded as a span on the layer's track (CPU-cycle
        clock, cache hit/miss deltas as span counters); otherwise
        (:func:`~repro.obs.runtime.span_recorder`) the only overhead is
        one global read.
        """
        recorder = span_recorder()
        if recorder is None:
            return self._charge_cost(
                layer, message, include_message_data, queue_overhead
            )
        handle = recorder.begin(
            layer.name,
            "invoke",
            self.cpu.cycles,
            machine_counters(self.cpu),
            message_bytes=message.size,
            queued=queue_overhead,
        )
        try:
            return self._charge_cost(
                layer, message, include_message_data, queue_overhead
            )
        finally:
            recorder.end(handle, self.cpu.cycles)

    def _charge_cost(
        self,
        layer: Layer,
        message: Message,
        include_message_data: bool,
        queue_overhead: bool,
    ) -> float:
        """The uninstrumented charging path (see :meth:`charge`)."""
        placed = self.placed_layer(layer.name)
        buffer = self.buffer_of(message)
        start = self.cpu.cycles
        self.cpu.fetch_code_lines(placed.code_lines)
        if placed.data_lines.size:
            self.cpu.read_data_lines(placed.data_lines)
        if include_message_data:
            size = min(message.size, buffer.capacity)
            lines = buffer.lines_for(size)
            if lines.size:
                self.cpu.read_data_lines(lines)
            self.cpu.execute(placed.footprint.compute_cycles(message.size))
        else:
            self.cpu.execute(placed.footprint.base_cycles)
        if queue_overhead:
            self.cpu.execute(QUEUE_INSTRUCTIONS)
        return self.cpu.cycles - start
