"""Traffic sources: common vocabulary.

A traffic source yields :class:`Arrival` records — (time, size) pairs,
plus whatever a subclass record adds (a flow id, a message kind...) —
for a requested horizon.  Sources are deterministic given their RNG
seed, which is what lets every experiment be reproduced exactly.

The same stream is also available as *columns*
(:meth:`TrafficSource.arrival_columns`): one list per record field,
keyed by field name.  The simulator builds and tags its messages from
columns, so a source that draws its stream as arrays (Poisson, Pareto
ON/OFF, Zipf flows, gossip fleets) overrides ``arrival_columns`` and
builds its records from those columns — one draw path, and no record
per arrival on the simulation path.  :func:`record_columns` turns any
record list (a fault plan's output, a replayed trace) into the same
columns.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields, replace
from typing import Iterator, Sequence

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

    def truncated(self, size: int) -> Arrival:
        """This arrival cut short to ``size`` bytes, type and tags kept."""
        return replace(self, size=size)


#: An arrival stream as columns: one list per record field (``"time"``,
#: ``"size"``, then any subclass fields), keyed by field name in field
#: order, all of one length, in arrival order.
ArrivalColumns = dict[str, list]


def record_columns(records: Sequence[Arrival]) -> ArrivalColumns:
    """The columns of a record list: one list per field of its records'
    types, keyed by field name.

    A list that mixes record types gets the union of their fields, and a
    record without one of them contributes that field's default (a plain
    :class:`Arrival` among flow-tagged ones reads as flow 0).  An empty
    list has the ``"time"`` and ``"size"`` columns only.
    """
    columns: ArrivalColumns = {}
    for kind in dict.fromkeys(map(type, records)) or (Arrival,):
        for field in fields(kind):
            if field.name not in columns:
                columns[field.name] = [
                    getattr(record, field.name, field.default) for record in records
                ]
    return columns


class TrafficSource(ABC):
    """Generates a packet arrival process."""

    @abstractmethod
    def arrivals(self, duration: float) -> Iterator[Arrival]:
        """Yield arrivals with ``0 <= time < duration``, in time order."""

    def arrival_list(self, duration: float) -> list[Arrival]:
        """Materialize :meth:`arrivals` as a list."""
        return list(self.arrivals(duration))

    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """:meth:`arrivals` as columns (see :data:`ArrivalColumns`).

        A source that can generate the columns directly overrides this,
        skips building records, and builds :meth:`arrivals` from it.
        """
        return record_columns(self.arrival_list(duration))


def make_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce a seed or generator into a generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
