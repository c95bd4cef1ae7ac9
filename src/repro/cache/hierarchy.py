"""Cache hierarchies: split instruction/data primaries, miss penalties.

The paper's machine model charges a fixed stall per primary-cache read
miss (20 cycles in Section 4; 10 cycles on the DEC 3000/400 of Section 2)
and treats the secondary cache / memory as flat beyond that.  The
hierarchy object pairs the I and D caches with those penalties and
converts miss counts into stall cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigurationError
from ..units import kb
from .cache import Cache, DirectMappedCache


@dataclass(frozen=True)
class CacheGeometry:
    """Geometry of one primary cache."""

    size: int = kb(8)
    line_size: int = 32

    def build(self, tags: np.ndarray | None = None) -> DirectMappedCache:
        """Construct a direct-mapped cache with this geometry.

        ``tags`` optionally supplies the cache's tag storage (see
        :class:`~repro.cache.cache.DirectMappedCache`).
        """
        return DirectMappedCache(self.size, self.line_size, tags)

    @property
    def num_lines(self) -> int:
        return self.size // self.line_size

    @property
    def num_sets(self) -> int:
        """Set count (equal to the line count: direct-mapped)."""
        return self.num_lines

    def set_of_addr(self, addr: int) -> int:
        """Cache set index a byte address maps to."""
        return (addr // self.line_size) % self.num_lines

    def describe(self) -> dict[str, int]:
        """Static description for offline analysis and reports."""
        return {
            "size": self.size,
            "line_size": self.line_size,
            "num_sets": self.num_sets,
        }


@dataclass(frozen=True)
class MachineSpec:
    """The simulated machine of the paper's Section 4.

    100 MHz clock, 8 KB direct-mapped split I/D caches with 32-byte
    lines, and a 20-cycle stall per read miss.

    The flat ``miss_penalty`` matches the paper's model, where every
    primary miss hits in the secondary cache.  Setting ``l2`` adds an
    explicit unified second-level cache: a primary miss that hits L2
    stalls ``miss_penalty`` cycles, a miss in both levels stalls
    ``memory_penalty`` cycles ("ultimately the execution rate is
    bounded by the second level cache bandwidth, and possibly by the
    main memory bandwidth for very large protocol working sets").
    """

    clock_hz: float = 100e6
    icache: CacheGeometry = field(default_factory=CacheGeometry)
    dcache: CacheGeometry = field(default_factory=CacheGeometry)
    miss_penalty: int = 20
    l2: CacheGeometry | None = None
    memory_penalty: int = 100
    #: Fraction of instruction-miss stall hidden by sequential prefetch
    #: ("some processors can prefetch instructions from the second level
    #: cache to hide some of the cache miss cost", Section 4).
    iprefetch_efficiency: float = 0.0

    def __post_init__(self) -> None:
        if self.clock_hz <= 0:
            raise ConfigurationError(f"clock must be positive, got {self.clock_hz}")
        if self.miss_penalty < 0:
            raise ConfigurationError(
                f"miss penalty must be non-negative, got {self.miss_penalty}"
            )
        if self.memory_penalty < self.miss_penalty:
            raise ConfigurationError(
                "memory penalty cannot be below the L2-hit penalty"
            )
        if not 0.0 <= self.iprefetch_efficiency < 1.0:
            raise ConfigurationError(
                "prefetch efficiency must be in [0, 1)"
            )
        if self.l2 is not None:
            for primary in (self.icache, self.dcache):
                if self.l2.line_size != primary.line_size:
                    raise ConfigurationError(
                        "L2 line size must match the primary caches"
                    )
                if self.l2.size < primary.size:
                    raise ConfigurationError(
                        "L2 must be at least as large as each primary cache"
                    )

    def with_clock(self, clock_hz: float) -> "MachineSpec":
        """Return a copy running at a different clock rate (Figure 7)."""
        return MachineSpec(
            clock_hz,
            self.icache,
            self.dcache,
            self.miss_penalty,
            self.l2,
            self.memory_penalty,
            self.iprefetch_efficiency,
        )

    def with_miss_penalty(self, miss_penalty: int) -> "MachineSpec":
        """Return a copy with a different miss penalty (ablation A2)."""
        return MachineSpec(self.clock_hz, self.icache, self.dcache, miss_penalty)


#: The DEC 3000/400 of Section 2: 8 KB primaries, 32-byte lines, and a
#: 10-cycle primary-miss penalty ("wastes 20 instruction slots (10
#: cycles)").
DEC3000_400 = MachineSpec(clock_hz=133e6, miss_penalty=10)

#: Rosenblum's 1998 projection quoted in Section 1.2: larger caches but a
#: much larger (60-slot ~ 30-cycle) miss cost.
ROSENBLUM_1998 = MachineSpec(
    clock_hz=400e6,
    icache=CacheGeometry(size=kb(64)),
    dcache=CacheGeometry(size=kb(64)),
    miss_penalty=30,
)


class SplitCacheHierarchy:
    """Split primary I/D caches plus a miss-penalty cost model.

    This is the mutable runtime counterpart of :class:`MachineSpec`: it
    owns actual cache state and accumulates stall cycles.

    The primaries keep their tags in one backing array, ``l1_tags``:
    the D-cache's sets first, then the I-cache's.  Each cache sees only
    its own view, and :class:`repro.cache.chunked.FusedReplay` replays
    both caches' plans in one pass over the whole array.
    """

    def __init__(self, spec: MachineSpec | None = None) -> None:
        self.spec = spec or MachineSpec()
        dsets = self.spec.dcache.num_lines
        self.l1_tags = np.empty(dsets + self.spec.icache.num_lines, dtype=np.int64)
        self.dcache: Cache = self.spec.dcache.build(self.l1_tags[:dsets])
        self.icache: Cache = self.spec.icache.build(self.l1_tags[dsets:])
        self.l2: DirectMappedCache | None = (
            self.spec.l2.build() if self.spec.l2 is not None else None
        )

    def stall_for_missed(self, missed: np.ndarray, instruction: bool = False) -> int:
        """Stall cycles for primary-miss lines, probing L2 when present.

        With the paper's flat model (no L2 configured) every primary
        miss costs ``miss_penalty``.  With an L2, lines that hit there
        cost ``miss_penalty`` and true memory misses ``memory_penalty``.
        Instruction fetches get ``iprefetch_efficiency`` of their stall
        hidden (sequential prefetch from the next level).
        """
        count = int(missed.size)
        if count == 0:
            return 0
        if self.l2 is None:
            stall = count * self.spec.miss_penalty
        else:
            l2_misses = self._probe_l2(missed)
            l2_hits = count - l2_misses
            stall = (
                l2_hits * self.spec.miss_penalty
                + l2_misses * self.spec.memory_penalty
            )
        if instruction and self.spec.iprefetch_efficiency:
            stall = int(round(stall * (1.0 - self.spec.iprefetch_efficiency)))
        return stall

    def _probe_l2(self, missed: np.ndarray) -> int:
        assert self.l2 is not None
        span = int(missed.max() - missed.min()) + 1 if missed.size else 0
        if span <= self.l2.num_lines:
            return self.l2.access_line_array(missed)
        return sum(self.l2.access_line(int(line)) for line in missed)

    def fetch_code(self, addr: int, size: int) -> int:
        """Fetch ``size`` bytes of code; return stall cycles incurred."""
        missed = self.icache.access_span_report(addr, size)  # type: ignore[attr-defined]
        return self.stall_for_missed(missed)

    def read_data(self, addr: int, size: int) -> int:
        """Read ``size`` bytes of data; return stall cycles incurred."""
        missed = self.dcache.access_span_report(addr, size)  # type: ignore[attr-defined]
        return self.stall_for_missed(missed)

    def write_data(self, addr: int, size: int) -> int:
        """Write ``size`` bytes of data; return stall cycles incurred.

        The paper's model stalls only on *read* misses; writes allocate
        in the caches but cost no stall (write buffer assumed).
        """
        missed = self.dcache.access_span_report(addr, size)  # type: ignore[attr-defined]
        if self.l2 is not None and missed.size:
            self._probe_l2(missed)
        return 0

    def flush(self) -> None:
        """Cold-start all caches (statistics are preserved)."""
        self.icache.flush()
        self.dcache.flush()
        if self.l2 is not None:
            self.l2.flush()

    def reset_stats(self) -> None:
        self.icache.stats.reset()
        self.dcache.stats.reset()
        if self.l2 is not None:
            self.l2.stats.reset()

    @property
    def total_misses(self) -> int:
        return self.icache.stats.misses + self.dcache.stats.misses
