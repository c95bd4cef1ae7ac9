"""Poisson and deterministic arrival processes.

The paper's Figures 5 and 6 drive the synthetic stack with "a stream of
552-byte messages (a common packet size in IP internetworks) from a
Poisson traffic source".
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigurationError
from .base import ArrivalColumns, TrafficSource, check_positive, make_rng

#: The paper's message size for Figures 5 and 6.
PAPER_MESSAGE_SIZE = 552


class PoissonSource(TrafficSource):
    """Poisson arrivals at a fixed rate with a fixed message size.

    Parameters
    ----------
    rate:
        Mean arrival rate in messages/second; must be positive.
    size:
        Message size in bytes (552 in the paper).
    rng:
        Seed or generator for reproducibility.
    """

    def __init__(
        self,
        rate: float,
        size: int = PAPER_MESSAGE_SIZE,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        check_positive(rate, "arrival rate")
        if size <= 0:
            raise ConfigurationError(f"message size must be positive, got {size}")
        self.rate = rate
        self.size = size
        self.rng = make_rng(rng)

    def arrival_times(self, duration: float) -> np.ndarray:
        """Every arrival time in ``[0, duration)``, in order, as one array.

        Exponential gaps are drawn in blocks to amortize RNG overhead;
        each block's times are one ``np.add.accumulate`` seeded with the
        previous block's last time, the same left fold as adding the
        gaps one by one.
        """
        if duration <= 0:
            return np.empty(0)
        block = max(16, int(self.rate * duration * 1.2))
        chunks = []
        time = 0.0
        while True:
            gaps = self.rng.exponential(1.0 / self.rate, size=block)
            times = np.add.accumulate(np.concatenate(([time], gaps)))[1:]
            # The first time at or past the horizon ends the stream.
            stop = int(np.searchsorted(times, duration))
            chunks.append(times[:stop])
            if stop < block:
                return np.concatenate(chunks)
            time = times[-1]

    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """:meth:`arrival_times` as a list, with the fixed size per arrival."""
        times = self.arrival_times(duration).tolist()
        return {"time": times, "size": [self.size] * len(times)}


class DeterministicSource(TrafficSource):
    """Evenly spaced arrivals (a pure CBR stream; useful in tests).

    The first arrival lands one interval in, so an empty prefix never
    occurs and the count over ``duration`` is ``floor(rate*duration)``.
    """

    def __init__(self, rate: float, size: int = PAPER_MESSAGE_SIZE) -> None:
        check_positive(rate, "arrival rate")
        if size <= 0:
            raise ConfigurationError(f"message size must be positive, got {size}")
        self.rate = rate
        self.size = size

    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """Arrival ``k`` at ``k * (1 / rate)`` for ``k = 1 .. floor(rate *
        duration)``, cut at the first that reaches the horizon."""
        times = np.arange(1, int(self.rate * duration) + 1) * (1.0 / self.rate)
        times = times[: np.searchsorted(times, duration)].tolist()
        return {"time": times, "size": [self.size] * len(times)}


class BurstSource(TrafficSource):
    """Back-to-back bursts at a fixed burst rate (stress test source).

    Emits ``burst_size`` arrivals at the same timestamp every
    ``1/burst_rate`` seconds — the adversarial best case for batching.
    """

    def __init__(
        self, burst_rate: float, burst_size: int, size: int = PAPER_MESSAGE_SIZE
    ) -> None:
        check_positive(burst_rate, "burst rate")
        if burst_size <= 0:
            raise ConfigurationError("burst size must be positive")
        self.burst_rate = burst_rate
        self.burst_size = burst_size
        self.size = size

    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """Burst starts accumulate ``time += 1 / burst_rate`` from 0, and
        each start repeats ``burst_size`` times."""
        interval = 1.0 / self.burst_rate
        starts = []
        time = 0.0
        while time < duration:
            starts.append(time)
            time += interval
        times = np.repeat(starts, self.burst_size).tolist()
        return {"time": times, "size": [self.size] * len(times)}
