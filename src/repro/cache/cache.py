"""Cache models: direct-mapped and set-associative (LRU or FIFO).

The paper's synthetic environment (Section 4) uses 8 KB direct-mapped
primary instruction and data caches with 32-byte lines and a 20-cycle
read-miss stall.  :class:`DirectMappedCache` models exactly that.  Its
one multi-line access, :meth:`~DirectMappedCache.access_line_array_report`,
probes one *call*'s lines (a layer's code, its data, a message body:
contiguous, so distinct sets) with one gather, compare and scatter, and
is the per-call reference the vectorized replays of
:mod:`repro.cache.chunked` reproduce.

:class:`SetAssociativeCache` generalizes to N-way replacement — true LRU
or FIFO, selected by ``policy`` — for the cache organization studies in
Section 5.3, the flow-lookup cache sweep (:mod:`repro.flows`, modeled on
Jain's DEC-TR-592 destination-address cache study), and tests; it is
scalar and exact but not used in the hot simulation loops.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError
from .line import check_power_of_two, lines_touched
from .stats import CacheStats


class Cache(ABC):
    """Common interface for cache models.

    All accesses are counted in the attached :class:`CacheStats`; access
    methods return the number of *misses* they caused so callers can
    charge stall cycles without re-reading the counters.
    """

    def __init__(self, size: int, line_size: int) -> None:
        check_power_of_two(size, "cache size")
        check_power_of_two(line_size, "cache line size")
        if line_size > size:
            raise ConfigurationError(
                f"line size {line_size} exceeds cache size {size}"
            )
        self.size = size
        self.line_size = line_size
        self.num_lines = size // line_size
        self.stats = CacheStats()

    @abstractmethod
    def access_line(self, line: int) -> bool:
        """Access one line by line number; return True iff it missed."""

    @abstractmethod
    def flush(self) -> None:
        """Invalidate all lines (does not reset statistics)."""

    @abstractmethod
    def contains_line(self, line: int) -> bool:
        """Return True iff ``line`` is currently resident (no side effects)."""

    def access(self, addr: int, size: int = 1) -> int:
        """Access ``size`` bytes starting at byte address ``addr``.

        Returns the number of line misses incurred.
        """
        misses = 0
        for line in lines_touched(addr, size, self.line_size):
            if self.access_line(line):
                misses += 1
        return misses

    def contains(self, addr: int) -> bool:
        """Return True iff the line holding byte ``addr`` is resident."""
        return self.contains_line(addr // self.line_size)


class DirectMappedCache(Cache):
    """A direct-mapped cache backed by a numpy tag array.

    Each line number maps to set ``line % num_lines``; the set holds one
    tag.  ``-1`` marks an invalid (empty) slot, so callers must use
    non-negative line numbers (i.e. non-negative addresses), which the
    memory layout code guarantees.

    ``tags``, when given, is the int64 array (one entry per set) the
    cache keeps its tags in, for example a view into a larger backing
    array; it is emptied here.
    """

    def __init__(
        self, size: int, line_size: int = 32, tags: np.ndarray | None = None
    ) -> None:
        super().__init__(size, line_size)
        if tags is None:
            tags = np.empty(self.num_lines, dtype=np.int64)
        tags.fill(-1)
        self._tags = tags

    def access_line(self, line: int) -> bool:
        """Access one line: a miss replaces set ``line % num_lines``'s
        tag (an eviction unless the set was empty).  Returns True iff
        it missed."""
        if line < 0:
            raise ConfigurationError(f"line number must be non-negative, got {line}")
        index = line % self.num_lines
        if self._tags[index] == line:
            self.stats.hits += 1
            return False
        if self._tags[index] != -1:
            self.stats.evictions += 1
        self._tags[index] = line
        self.stats.misses += 1
        return True

    def contains_line(self, line: int) -> bool:
        """True iff ``line`` is its set's tag; no statistics change."""
        if line < 0:
            # Same guard as access_line: a negative line would otherwise
            # compare equal to the -1 invalid-slot sentinel and report
            # an empty set as resident.
            raise ConfigurationError(f"line number must be non-negative, got {line}")
        return bool(self._tags[line % self.num_lines] == line)

    def flush(self) -> None:
        """Empty every set (tag -1); statistics are kept."""
        self._tags.fill(-1)

    def access_line_array_report(self, lines: np.ndarray) -> np.ndarray:
        """Access an array of line numbers; return the *missed* lines.

        The caller must guarantee the lines map to distinct sets (e.g.
        consecutive lines of a region smaller than the cache).
        Multi-level hierarchies use the returned array to probe the
        next cache level.
        """
        if lines.size == 0:
            return lines
        indices = lines % self.num_lines
        resident = self._tags[indices]
        miss_mask = resident != lines
        misses = int(miss_mask.sum())
        if misses:
            evicted = miss_mask & (resident != -1)
            self.stats.evictions += int(evicted.sum())
            self._tags[indices[miss_mask]] = lines[miss_mask]
        self.stats.misses += misses
        self.stats.hits += int(lines.size) - misses
        return lines[miss_mask]

    def access_span_report(self, addr: int, size: int) -> np.ndarray:
        """Access a contiguous span; return the missed line numbers."""
        if size < 0:
            raise ConfigurationError(f"access size must be non-negative, got {size}")
        if size == 0:
            return np.empty(0, dtype=np.int64)
        if addr < 0:
            raise ConfigurationError(f"address must be non-negative, got {addr}")
        first = addr // self.line_size
        last = (addr + size - 1) // self.line_size
        if last - first + 1 <= self.num_lines:
            return self.access_line_array_report(
                np.arange(first, last + 1, dtype=np.int64)
            )
        missed = [line for line in range(first, last + 1) if self.access_line(line)]
        return np.asarray(missed, dtype=np.int64)

    @property
    def tag_array(self) -> np.ndarray:
        """The live tag array (one int64 tag per set; ``-1`` = empty).

        Exposed for cache kernels that replay precompiled
        :mod:`repro.cache.chunked` plans against it.  Mutating it
        bypasses statistics accounting — use the ``access_*`` methods
        unless you are implementing a kernel.
        """
        return self._tags

    def resident_lines(self) -> set[int]:
        """Return the set of line numbers currently resident (for tests)."""
        return {int(tag) for tag in self._tags if tag != -1}


#: Replacement policies :class:`SetAssociativeCache` implements.  LRU is
#: the Section-5.3 organization study default; FIFO is the cheaper
#: hardware alternative the flow-lookup sweep (:mod:`repro.flows`)
#: compares it against, after Jain's DEC-TR-592 lookup-cache study.
REPLACEMENT_POLICIES = ("lru", "fifo")


class SetAssociativeCache(Cache):
    """An N-way set-associative cache with LRU or FIFO replacement.

    ``policy="lru"`` (the default) is true LRU: a hit refreshes the
    line's recency, a miss evicts the least recently *used* line.
    ``policy="fifo"`` never reorders on hit, so a miss evicts the least
    recently *inserted* line regardless of hits since.  ``ways=1``
    behaves identically to :class:`DirectMappedCache` under either
    policy — with one line per set there is nothing to reorder —
    (verified by tests); ``ways == num_lines`` is fully associative.
    """

    def __init__(
        self,
        size: int,
        line_size: int = 32,
        ways: int = 2,
        policy: str = "lru",
    ) -> None:
        super().__init__(size, line_size)
        check_power_of_two(ways, "associativity")
        if ways > self.num_lines:
            raise ConfigurationError(
                f"{ways}-way associativity exceeds {self.num_lines} lines"
            )
        if policy not in REPLACEMENT_POLICIES:
            raise ConfigurationError(
                f"unknown replacement policy {policy!r}; expected one of "
                f"{REPLACEMENT_POLICIES}"
            )
        self.ways = ways
        self.policy = policy
        self.num_sets = self.num_lines // ways
        # Each set is a replacement-ordered list of tags: the eviction
        # victim first, the most recently used (LRU) or most recently
        # inserted (FIFO) tag last.
        self._sets: list[list[int]] = [[] for _ in range(self.num_sets)]

    def access_line(self, line: int) -> bool:
        """Access one line in set ``line % num_sets``: a hit refreshes it
        under LRU (FIFO leaves the order), a miss appends it and, in a
        full set, evicts the first tag.  Returns True iff it missed."""
        if line < 0:
            raise ConfigurationError(f"line number must be non-negative, got {line}")
        lru = self._sets[line % self.num_sets]
        if line in lru:
            if self.policy == "lru":
                lru.remove(line)
                lru.append(line)
            self.stats.hits += 1
            return False
        if len(lru) >= self.ways:
            lru.pop(0)
            self.stats.evictions += 1
        lru.append(line)
        self.stats.misses += 1
        return True

    def contains_line(self, line: int) -> bool:
        """True iff ``line`` is resident in its set; neither the
        replacement order nor the statistics change."""
        if line < 0:
            # Parity with access_line (and with DirectMappedCache): the
            # membership probe must reject the same inputs the access
            # path rejects instead of silently answering False.
            raise ConfigurationError(f"line number must be non-negative, got {line}")
        return line in self._sets[line % self.num_sets]

    def flush(self) -> None:
        """Empty every set; statistics are kept."""
        for lru in self._sets:
            lru.clear()

    def resident_lines(self) -> set[int]:
        """Return the set of line numbers currently resident (for tests)."""
        return {line for lru in self._sets for line in lru}
