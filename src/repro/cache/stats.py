"""Hit/miss accounting shared by all cache models."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Counters accumulated by a cache over its lifetime.

    Attributes
    ----------
    hits:
        Number of line accesses satisfied by the cache.
    misses:
        Number of line accesses that required a fill from the next level.
    evictions:
        Number of valid lines displaced by fills.  A fill into an invalid
        slot is not an eviction.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total number of line accesses observed."""
        return self.hits + self.misses

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def snapshot(self) -> "CacheStats":
        """Return an independent copy of the current counters."""
        return CacheStats(self.hits, self.misses, self.evictions)

    def __add__(self, other: "CacheStats") -> "CacheStats":
        return CacheStats(
            hits=self.hits + other.hits,
            misses=self.misses + other.misses,
            evictions=self.evictions + other.evictions,
        )
