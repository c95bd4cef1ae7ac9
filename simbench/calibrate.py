"""The frozen calibration kernel that cancels this machine's speed drift.

On a small shared VM the same simulator work runs up to ~50% slower
for stretches of milliseconds to seconds (a busy neighbour on the
sibling hyperthread, host frequency changes).  Pinning to one core
does not help and CPU time drifts with wall time.  So the benchmark
times this fixed kernel right before and right after every timed
step and scales the step's wall time by
``CAL_REF_S / mean(adjacent kernel times)``: the result is in
*reference seconds*, seconds on a machine where the kernel takes
``CAL_REF_S``.  Medians over many such steps then cancel both the
drift and the noise of single kernel samples.

The kernel mixes the two kinds of work the simulator does: Python
dict/integer bookkeeping and small numpy gathers, compares, scatters
and cumulative sums on a few hundred elements.  It must never change:
:func:`sample` checks the kernel's return value, so an edit that alters
its work fails loudly instead of silently rescaling every result.
"""

from __future__ import annotations

import time
from typing import Callable, TypeVar

import numpy as np

T = TypeVar("T")

#: Typical kernel time on the machine the benchmark was calibrated on
#: (2-vCPU x86-64 VM, CPython 3.11, numpy 2.4).
CAL_REF_S = 1.2e-3

#: The kernel's return value; any other value means the kernel changed.
EXPECTED = 4057112


def kernel() -> int:
    """The fixed unit of work; returns a checksum of what it computed."""
    total = 0
    table: dict[int, int] = {}
    for i in range(2000):
        key = (i * 2654435761) & 255
        table[key] = table.get(key, 0) + i
        total += key ^ i
    lines = np.arange(256, dtype=np.int64)
    tags = np.full(128, -1, dtype=np.int64)
    for step in range(60):
        sets = (lines + step * 37) % 128
        miss = tags[sets] != lines
        tags[sets] = lines
        total += int(np.count_nonzero(miss)) + int(np.cumsum(sets)[-1] & 1023)
    return total + sum(table.values())


def sample() -> float:
    """Time one kernel run in seconds, checking its result."""
    start = time.perf_counter()
    value = kernel()
    elapsed = time.perf_counter() - start
    if value != EXPECTED:
        raise RuntimeError(
            f"calibration kernel returned {value}, expected {EXPECTED}: "
            "the kernel was edited, so reference seconds are no longer comparable"
        )
    return elapsed


def calibrated(step: Callable[[], T]) -> tuple[T, float, float]:
    """Run ``step`` between two kernel samples.

    Returns (its value, its wall seconds, the scale from wall seconds
    to reference seconds while it ran).
    """
    before = sample()
    start = time.perf_counter()
    value = step()
    wall = time.perf_counter() - start
    after = sample()
    return value, wall, CAL_REF_S / ((before + after) / 2)
