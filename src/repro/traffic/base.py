"""Traffic sources: common vocabulary.

A traffic source draws an arrival stream for a requested horizon as
*columns* (:data:`ArrivalColumns`): a ``"time"`` list (seconds) and a
``"size"`` list (bytes), plus whatever tag columns the source adds (a
flow id, a message kind...), all of one length, in arrival order.
Sources are deterministic given their RNG seed, which is what lets
every experiment be reproduced exactly.

Columns are the one arrival format: fault plans transform them, trace
files read into and write from them, and the simulator builds and tags
its messages from them, checking every run's stream once
(:func:`repro.sim.runner.simulate`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

from ..errors import ConfigurationError


def check_positive(value: float, what: str) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is positive and
    finite: a NaN passes ``<= 0``, and a NaN or infinite rate breaks
    arrival generation later (an infinite burst rate never advances
    time)."""
    if not (math.isfinite(value) and value > 0):
        raise ConfigurationError(f"{what} must be positive and finite, got {value}")


#: An arrival stream as columns: ``"time"`` and ``"size"`` lists, then
#: any tag columns, keyed by name, all of one length, in arrival order.
ArrivalColumns = dict[str, list]


class TrafficSource(ABC):
    """Generates a packet arrival process."""

    @abstractmethod
    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """The arrivals with ``0 <= time < duration``, in time order, as
        columns (see :data:`ArrivalColumns`)."""


def make_rng(rng: np.random.Generator | int | None) -> np.random.Generator:
    """Coerce a seed or generator into a generator."""
    if isinstance(rng, np.random.Generator):
        return rng
    return np.random.default_rng(rng)
