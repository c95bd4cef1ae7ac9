"""Traffic sources: common vocabulary.

A traffic source yields :class:`Arrival` records — (time, size) pairs —
for a requested horizon.  Sources are deterministic given their RNG
seed, which is what lets every experiment be reproduced exactly.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..errors import ConfigurationError


def check_positive(value: float, what: str) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is positive and
    finite: a NaN passes ``<= 0``, and a NaN or infinite rate breaks
    arrival generation later (an infinite burst rate never advances
    time)."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{what} must be positive and finite, got {value}")


@dataclass(frozen=True, slots=True)
class Arrival:
    """One packet arrival: absolute time in seconds and size in bytes."""

    time: float
    size: int

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ConfigurationError(f"arrival time must be non-negative: {self.time}")
        if self.size <= 0:
            raise ConfigurationError(f"arrival size must be positive: {self.size}")


class TrafficSource(ABC):
    """Generates a packet arrival process."""

    @abstractmethod
    def arrivals(self, duration: float) -> Iterator[Arrival]:
        """Yield arrivals with ``0 <= time < duration``, in time order."""

    def arrival_list(self, duration: float) -> list[Arrival]:
        """Materialize :meth:`arrivals` as a list."""
        return list(self.arrivals(duration))

    def arrival_columns(self, duration: float) -> tuple[list[float], list[int]]:
        """:meth:`arrivals` as parallel lists of times and sizes.

        A source that can generate the columns directly overrides this
        and skips building :class:`Arrival` records.
        """
        stream = self.arrival_list(duration)
        return [arrival.time for arrival in stream], [arrival.size for arrival in stream]


def make_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce a seed or generator into a generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
