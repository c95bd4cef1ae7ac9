"""The simulated CPU: cycle accounting over a split-cache hierarchy.

The machine model is the paper's (Section 4): every executed instruction
costs one cycle, every primary-cache *read* miss (instruction fetch or
data load) stalls the CPU for a fixed penalty, and writes are absorbed
by a write buffer.  The CPU tracks total cycles so the event simulation
can convert work into simulated time.
"""

from __future__ import annotations

import numpy as np

from ..cache.hierarchy import MachineSpec, SplitCacheHierarchy
from ..units import Clock


class CPU:
    """A cycle-accurate (at the model's granularity) processor.

    Attributes
    ----------
    spec:
        The static machine description.
    hierarchy:
        The live split I/D cache state.
    cycles:
        Total cycles elapsed (execution + stalls).
    stall_cycles:
        Cycles spent stalled on cache misses (subset of ``cycles``).
    """

    def __init__(self, spec: MachineSpec | None = None) -> None:
        self.spec = spec or MachineSpec()
        self.hierarchy = SplitCacheHierarchy(self.spec)
        self.clock = Clock(self.spec.clock_hz)
        self.cycles = 0.0
        self.stall_cycles = 0.0

    # ------------------------------------------------------------------
    # Work charging

    def execute(self, cycles: float) -> None:
        """Charge pure execution cycles (no memory-system interaction)."""
        self.cycles += cycles

    def fetch_code_lines(self, lines: np.ndarray) -> int:
        """Fetch code by (distinct) absolute line numbers; vectorized."""
        missed = self.hierarchy.icache.access_line_array_report(lines)  # type: ignore[attr-defined]
        self._stall_for(missed, instruction=True)
        return int(missed.size)

    def read_data_lines(self, lines: np.ndarray) -> int:
        """Read whole lines; returns missed lines (stalls charged)."""
        missed = self.hierarchy.dcache.access_line_array_report(lines)  # type: ignore[attr-defined]
        self._stall_for(missed)
        return int(missed.size)

    def _stall_for(self, missed_lines: np.ndarray, instruction: bool = False) -> None:
        penalty = self.hierarchy.stall_for_missed(missed_lines, instruction)
        self.cycles += penalty
        self.stall_cycles += penalty

    # ------------------------------------------------------------------
    # Time and bookkeeping

    @property
    def time_seconds(self) -> float:
        """Simulated wall-clock time elapsed."""
        return self.clock.cycles_to_seconds(self.cycles)

    def advance_to_cycle(self, cycle: float) -> None:
        """Idle the CPU forward to an absolute cycle count (if ahead)."""
        if cycle > self.cycles:
            self.cycles = cycle

    def cold_start(self) -> None:
        """Flush both caches (statistics preserved)."""
        self.hierarchy.flush()

    def reset(self) -> None:
        """Zero time and statistics and flush caches."""
        self.cycles = 0.0
        self.stall_cycles = 0.0
        self.hierarchy.flush()
        self.hierarchy.reset_stats()

    @property
    def icache_misses(self) -> int:
        """Cumulative instruction-cache misses since the last reset."""
        return self.hierarchy.icache.stats.misses

    @property
    def dcache_misses(self) -> int:
        """Cumulative data-cache misses since the last reset."""
        return self.hierarchy.dcache.stats.misses
