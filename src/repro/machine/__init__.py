"""The simulated machine: regions, layout, CPU cost model, layer
footprints and message buffers, and the N-core topology
(:mod:`repro.machine.multicore`)."""

from .cpu import CPU
from .executor import (
    BufferPool,
    LayerFootprint,
    MessageBuffer,
    PlacedLayer,
)
from .layout import DEFAULT_SPAN, MemoryLayout
from .multicore import MultiCoreMachine, MultiCoreSpec
from .program import Program, Region, RegionKind

__all__ = [
    "BufferPool",
    "CPU",
    "DEFAULT_SPAN",
    "LayerFootprint",
    "MemoryLayout",
    "MessageBuffer",
    "MultiCoreMachine",
    "MultiCoreSpec",
    "PlacedLayer",
    "Program",
    "Region",
    "RegionKind",
]
