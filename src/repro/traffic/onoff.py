"""Self-similar traffic: aggregated Pareto ON/OFF sources.

The paper drives Figure 7 with the Bellcore Ethernet traces of Leland
et al., "because Poisson processes are not representative of many
real-world traffic sources".  We do not ship the Bellcore traces;
instead this module synthesizes long-range-dependent traffic using the
standard construction (Willinger et al.): superpose many ON/OFF sources
whose ON and OFF period lengths are heavy-tailed (Pareto with
1 < alpha < 2).  The aggregate packet process is asymptotically
self-similar with Hurst parameter H = (3 - alpha) / 2.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError
from .base import ArrivalColumns, TrafficSource, check_positive, make_rng

if TYPE_CHECKING:
    from .bellcore import SizeMix


def pareto_samples(
    rng: np.random.Generator, alpha: float, mean: float, count: int
) -> np.ndarray:
    """Pareto-distributed positive samples with the requested mean.

    Uses the Lomax/Pareto-I form with location ``xm`` chosen so the
    distribution mean is ``mean``; requires ``alpha > 1`` for a finite
    mean.
    """
    _check_alpha(alpha)
    check_positive(mean, "Pareto mean")
    xm = mean * (alpha - 1) / alpha
    # Inverse-CDF sampling of Pareto-I: xm * U^(-1/alpha).
    u = rng.random(count)
    return xm * u ** (-1.0 / alpha)


def _check_alpha(alpha: float) -> None:
    # A NaN or infinite alpha makes every period NaN: an empty trace.
    if not (math.isfinite(alpha) and alpha > 1):
        raise ConfigurationError(f"Pareto alpha must be finite and exceed 1, got {alpha}")


class ParetoOnOffSource(TrafficSource):
    """A superposition of heavy-tailed ON/OFF packet sources.

    Parameters
    ----------
    num_sources:
        How many independent ON/OFF sources to aggregate (more sources
        → smoother short-term, same long-range dependence).
    packet_rate_on:
        Packet emission rate of one source while ON, packets/second.
    mean_on / mean_off:
        Mean ON and OFF period durations in seconds.
    alpha:
        Pareto shape for both period distributions; 1 < alpha < 2 gives
        long-range dependence (H = (3 - alpha)/2).
    size:
        Packet size in bytes, or a size distribution: any object with a
        ``sample(rng, count)`` method returning ``count`` integer sizes
        (:class:`~repro.traffic.bellcore.SizeMix` is the one shipped).
        All sizes of a trace are drawn in one call, after the arrival
        times.
    """

    def __init__(
        self,
        num_sources: int = 32,
        packet_rate_on: float = 1000.0,
        mean_on: float = 0.02,
        mean_off: float = 0.08,
        alpha: float = 1.5,
        size: int | SizeMix = 552,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_sources <= 0:
            raise ConfigurationError("need at least one ON/OFF source")
        check_positive(packet_rate_on, "ON packet rate")
        check_positive(mean_on, "mean ON duration")
        check_positive(mean_off, "mean OFF duration")
        _check_alpha(alpha)
        self.num_sources = num_sources
        self.packet_rate_on = packet_rate_on
        self.mean_on = mean_on
        self.mean_off = mean_off
        self.alpha = alpha
        self.size = size
        self.rng = make_rng(rng)

    @property
    def mean_rate(self) -> float:
        """Long-run aggregate packet rate in packets/second."""
        duty = self.mean_on / (self.mean_on + self.mean_off)
        return self.num_sources * duty * self.packet_rate_on

    def _one_source_times(self, duration: float, rng: np.random.Generator) -> np.ndarray:
        """Packet timestamps of a single ON/OFF source over ``duration``."""
        times: list[float] = []
        now = 0.0
        # Start a random way into an OFF period so sources desynchronize.
        now += float(rng.random()) * self.mean_off
        interval = 1.0 / self.packet_rate_on
        while now < duration:
            on_len = float(pareto_samples(rng, self.alpha, self.mean_on, 1)[0])
            end_on = min(now + on_len, duration)
            t = now
            while t < end_on:
                times.append(t)
                t += interval
            off_len = float(pareto_samples(rng, self.alpha, self.mean_off, 1)[0])
            now = now + on_len + off_len
        return np.asarray(times)

    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """The merged trains' times, then every size drawn in one call."""
        if duration <= 0:
            return {"time": [], "size": []}
        streams = [
            self._one_source_times(duration, self.rng)
            for _ in range(self.num_sources)
        ]
        # A stable sort of the source-ordered concatenation merges the
        # (individually increasing) trains and breaks timestamp ties by
        # source index, exactly as heapq.merge would.
        times = np.concatenate(streams)
        times = times[np.argsort(times, kind="stable")].tolist()
        if hasattr(self.size, "sample"):
            sizes = self.size.sample(self.rng, len(times)).tolist()
        else:
            sizes = [int(self.size)] * len(times)
        return {"time": times, "size": sizes}


def hurst_estimate(counts: np.ndarray, min_scale: int = 1, num_scales: int = 6) -> float:
    """Estimate the Hurst parameter of a count series by variance-time plot.

    Aggregates ``counts`` over windows of increasing size m and fits
    ``log Var(X^(m))`` against ``log m``; slope = 2H - 2.  A Poisson
    process gives H ≈ 0.5; self-similar traffic gives H > 0.5.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size < 2 ** (num_scales + 2):
        raise ConfigurationError(
            f"need at least {2 ** (num_scales + 2)} samples, got {counts.size}"
        )
    scales = []
    variances = []
    for level in range(num_scales):
        m = min_scale * 2**level
        usable = (counts.size // m) * m
        agg = counts[:usable].reshape(-1, m).mean(axis=1)
        var = float(agg.var())
        if var <= 0:
            continue
        scales.append(m)
        variances.append(var)
    if len(scales) < 2:
        raise ConfigurationError("degenerate count series: zero variance")
    slope = np.polyfit(np.log(scales), np.log(variances), 1)[0]
    return float(1.0 + slope / 2.0)
