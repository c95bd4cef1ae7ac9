"""Bellcore-format Ethernet traces: reader, writer, and synthesizer.

The Leland et al. traces used by the paper's Figure 7 are distributed as
two-column ASCII: a floating-point timestamp (seconds) and a packet
length in bytes, one packet per line.  This module reads and writes
that format, and — since the original traces are not bundled — can
*synthesize* a trace with the same qualitative properties: self-similar
arrivals (via :class:`~repro.traffic.onoff.ParetoOnOffSource`) and the
strongly bimodal Ethernet packet-size mix of 1989 LAN traffic.

If you have a real Bellcore trace file (e.g. ``BC-pOct89``), load it
with :func:`read_bellcore_trace` and every Figure 7 harness accepts it
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import ConfigurationError, TraceError
from .base import Arrival, TrafficSource, check_positive, make_rng
from .onoff import ParetoOnOffSource

#: Minimum / maximum Ethernet frame sizes.
ETHERNET_MIN = 64
ETHERNET_MAX = 1518


@dataclass(frozen=True)
class SizeMix:
    """A discrete packet-size mixture: sizes and their probabilities.

    Sizes must be positive integers and weights finite, non-negative
    and of positive sum; anything else raises
    :class:`~repro.errors.ConfigurationError` here rather than failing
    (or yielding impossible packets) at sampling time.
    """

    sizes: tuple[int, ...]
    weights: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sizes) != len(self.weights) or not self.sizes:
            raise ConfigurationError("sizes and weights must align and be non-empty")
        if not all(isinstance(s, (int, np.integer)) and s > 0 for s in self.sizes):
            raise ConfigurationError(f"sizes must be positive integers: {self.sizes}")
        total = sum(self.weights)
        if (
            not all(math.isfinite(w) and w >= 0 for w in self.weights)
            or not math.isfinite(total)
            or total <= 0
        ):
            raise ConfigurationError(
                f"weights must be finite, non-negative and sum > 0: {self.weights}"
            )

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` sizes drawn independently (int64)."""
        probs = np.asarray(self.weights, dtype=float)
        probs = probs / probs.sum()
        return rng.choice(np.asarray(self.sizes), size=count, p=probs)

    @property
    def mean(self) -> float:
        probs = np.asarray(self.weights, dtype=float)
        probs = probs / probs.sum()
        return float(np.dot(probs, np.asarray(self.sizes, dtype=float)))


#: 1989-vintage LAN mix: dominated by minimum-size frames (interactive,
#: ACKs, NFS control), a band of medium frames, and a mass at the MTU
#: (NFS 8 KB transfers fragment into back-to-back 1518/1078 frames).
OCT89_SIZE_MIX = SizeMix(
    sizes=(64, 92, 128, 160, 256, 552, 576, 1078, 1518),
    weights=(0.35, 0.12, 0.09, 0.05, 0.05, 0.06, 0.08, 0.08, 0.12),
)


def read_bellcore_trace(
    path: str | Path, limit: float | None = None, clamp: bool = False
) -> list[Arrival]:
    """Read a two-column (timestamp, length) Bellcore-format trace.

    ``limit`` truncates to the first ``limit`` seconds (the paper uses
    "the first 1000 seconds of the October 5, 1989 trace").

    Every record is validated — a dirty trace silently corrupts every
    simulation downstream (negative times break the event clock,
    non-monotonic timestamps deadlock admission ordering, absurd sizes
    blow out the per-byte cost model).  Violations raise
    :class:`~repro.errors.TraceError` naming ``file:line``:

    * the file must be ASCII text;
    * timestamps must be finite, non-negative and non-decreasing;
    * sizes must be within ``[1, ETHERNET_MAX]`` bytes.

    Real captures are sometimes dirty in harmless ways (clock skew at
    a reboot, a trailing runt record).  ``clamp=True`` is the escape
    hatch: negative times clamp to ``0.0``, a backwards timestamp
    clamps up to the previous record's time, and sizes clamp into
    ``[1, ETHERNET_MAX]`` — the trace loads, monotone and in range,
    instead of raising.  A NaN or infinite timestamp has no sane clamp
    and raises either way.
    """
    arrivals: list[Arrival] = []
    last_time = 0.0
    # surrogateescape: a non-ASCII byte fails isascii() with its line number.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as stream:
        for lineno, raw in enumerate(stream, start=1):
            if not raw.isascii():
                raise TraceError(f"{path}:{lineno}: non-ASCII byte in trace")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            fields = line.split()
            if len(fields) != 2:
                raise TraceError(f"{path}:{lineno}: expected two columns, got {line!r}")
            try:
                time = float(fields[0])
                size = int(fields[1])
            except ValueError as exc:
                raise TraceError(f"{path}:{lineno}: cannot parse {line!r}") from exc
            if not math.isfinite(time):
                raise TraceError(f"{path}:{lineno}: non-finite timestamp {time!r}")
            if time < 0:
                if not clamp:
                    raise TraceError(
                        f"{path}:{lineno}: negative timestamp {time!r} "
                        f"(pass clamp=True to clamp to 0)"
                    )
                time = 0.0
            if time < last_time:
                if not clamp:
                    raise TraceError(
                        f"{path}:{lineno}: non-monotonic timestamp {time!r} "
                        f"after {last_time!r} (pass clamp=True to clamp "
                        f"forward)"
                    )
                time = last_time
            if not 1 <= size <= ETHERNET_MAX:
                if not clamp:
                    raise TraceError(
                        f"{path}:{lineno}: size {size} outside "
                        f"[1, {ETHERNET_MAX}] (pass clamp=True to clamp "
                        f"into range)"
                    )
                size = min(max(size, 1), ETHERNET_MAX)
            if limit is not None and time >= limit:
                break
            last_time = time
            arrivals.append(Arrival(time, size))
    return arrivals


def write_bellcore_trace(arrivals: Iterable[Arrival], path: str | Path) -> None:
    """Write arrivals in the two-column Bellcore format."""
    with open(path, "w", encoding="ascii") as stream:
        for arrival in arrivals:
            stream.write(f"{arrival.time:.6f} {arrival.size}\n")


def synthesize_bellcore_like(
    duration: float,
    mean_rate: float = 1000.0,
    size_mix: SizeMix = OCT89_SIZE_MIX,
    rng: np.random.Generator | int | None = None,
    num_sources: int = 32,
    alpha: float = 1.5,
) -> list[Arrival]:
    """Synthesize a self-similar, Bellcore-like arrival list: the
    records of :func:`bellcore_like_source`'s stream."""
    check_positive(duration, "duration")
    return bellcore_like_source(
        mean_rate, size_mix, rng, num_sources, alpha
    ).arrival_list(duration)


def bellcore_like_source(
    mean_rate: float = 1000.0,
    size_mix: SizeMix = OCT89_SIZE_MIX,
    rng: np.random.Generator | int | None = None,
    num_sources: int = 32,
    alpha: float = 1.5,
) -> ParetoOnOffSource:
    """The self-similar, Bellcore-like source; a run takes its
    :meth:`~ParetoOnOffSource.arrival_columns` straight.

    ``mean_rate`` is the target long-run packet rate.  The ON/OFF
    parameters keep the Willinger-construction defaults and scale the
    per-source ON rate to hit the target mean.
    """
    check_positive(mean_rate, "mean rate")
    rng = make_rng(rng)
    mean_on, mean_off = 0.02, 0.08
    duty = mean_on / (mean_on + mean_off)
    return ParetoOnOffSource(
        num_sources=num_sources,
        packet_rate_on=mean_rate / (num_sources * duty),
        mean_on=mean_on,
        mean_off=mean_off,
        alpha=alpha,
        size=size_mix,
        rng=rng,
    )


class TraceSource(TrafficSource):
    """A traffic source replaying a fixed arrival list (real or synthetic)."""

    def __init__(self, arrivals: Sequence[Arrival]) -> None:
        self._arrivals = sorted(arrivals, key=lambda a: a.time)

    def arrivals(self, duration: float) -> Iterator[Arrival]:
        for arrival in self._arrivals:
            if arrival.time >= duration:
                return
            yield arrival

    def __len__(self) -> int:
        return len(self._arrivals)
