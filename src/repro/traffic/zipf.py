"""Zipf-distributed flow (destination) structure over any arrival process.

Jain's lookup-cache study (DEC-TR-592, the data-side twin of the
paper's instruction-locality argument) rests on one empirical fact:
packet destinations are heavily skewed — a few flows receive most of
the traffic — so a small cache in front of the routing/PCB tables
captures most lookups.  This module layers that structure over the
existing arrival processes: :class:`ZipfFlowSource` wraps any
:class:`~repro.traffic.base.TrafficSource` (Poisson, Bellcore-like,
deterministic...) and tags each arrival with a flow id drawn from a
Zipf(``skew``) distribution over ``num_flows`` flows.

Flow draws are seeded through the package's crc32 derivation
convention (``crc32("zipf:{seed}")``), so the flow sequence is a pure
function of the seed — independent of PYTHONHASHSEED, worker count,
and how many times the stream is materialized — and never perturbs the
base source's own RNG stream.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

from ..errors import ConfigurationError
from .base import ArrivalColumns, TrafficSource


def zipf_weights(num_flows: int, skew: float) -> np.ndarray:
    """Normalized Zipf probabilities over ``num_flows`` ranked flows.

    Flow ``k`` (0-based rank) gets probability proportional to
    ``(k + 1) ** -skew``; ``skew=0`` degenerates to uniform.  Raises
    :class:`~repro.errors.ConfigurationError` for an empty flow space
    or a negative / non-finite skew.
    """
    if num_flows < 1:
        raise ConfigurationError(f"num_flows must be >= 1, got {num_flows}")
    if not math.isfinite(skew):
        raise ConfigurationError(f"zipf skew must be finite, got {skew}")
    if skew < 0:
        raise ConfigurationError(f"zipf skew must be non-negative, got {skew}")
    weights = np.arange(1, num_flows + 1, dtype=np.float64) ** -float(skew)
    return weights / weights.sum()


def flow_rng(seed: int) -> np.random.Generator:
    """The flow-draw generator for one run seed.

    Derived as ``crc32("zipf:{seed}")`` — the package's standard seed
    derivation (compare :func:`repro.sim.runner.core_seed`) — so
    flow draws share a run's seed without consuming the base traffic
    source's RNG stream.
    """
    return np.random.default_rng(
        zlib.crc32(f"zipf:{seed}".encode("utf-8"))
    )


def zipf_flow_ids(
    count: int, num_flows: int, skew: float, seed: int
) -> np.ndarray:
    """Draw ``count`` flow ids in one deterministic block.

    A single vectorized draw (rather than one per arrival) pins the
    sequence to exactly one RNG consumption pattern, so the ids depend
    only on ``(count, num_flows, skew, seed)``.
    """
    if count < 0:
        raise ConfigurationError(f"count must be non-negative, got {count}")
    weights = zipf_weights(num_flows, skew)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    return flow_rng(seed).choice(
        num_flows, size=count, p=weights
    ).astype(np.int64)


class ZipfFlowSource(TrafficSource):
    """A base arrival process with Zipf-distributed destination flows.

    Wraps any :class:`~repro.traffic.base.TrafficSource` and adds a
    ``"flow"`` column to its stream: each arrival's destination flow id,
    drawn Zipf(``skew``) over ``num_flows`` flows.  Ids are dense in
    ``0..num_flows-1``, with flow 0 the most popular under any positive
    skew.  The wrapper is deterministic given ``seed`` and leaves the
    base source's RNG untouched, so the same base stream can be
    re-flowed at several skews for controlled comparisons.

    The base stream is *snapshotted* on first materialization of each
    horizon: stateful base sources (Pareto on/off in particular) hold a
    live RNG that advances every time the stream is materialized, so
    without the snapshot each materialization of this wrapper would tag
    a *different* base stream with the *same* pinned flow ids — a
    mismatch that never surfaces over memoryless Poisson defaults but
    breaks replay and cross-scheduler comparisons over a bursty base.
    """

    def __init__(
        self,
        base: TrafficSource,
        num_flows: int = 64,
        skew: float = 1.0,
        seed: int = 0,
    ) -> None:
        # Validate eagerly so misconfiguration fails at construction,
        # not at first materialization inside a harness worker.
        zipf_weights(num_flows, skew)
        self.base = base
        self.num_flows = num_flows
        self.skew = float(skew)
        self.seed = int(seed)
        self._snapshots: dict[float, ArrivalColumns] = {}

    @property
    def rate(self) -> float | None:
        """The base source's nominal rate, if it declares one."""
        return getattr(self.base, "rate", None)

    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """The base stream's times and sizes, plus a Zipf flow column.

        The whole flow-id block is drawn in one call from the derived
        generator, so it depends only on the stream length; the base
        columns are materialized exactly once per horizon and cached, so
        a stateful base source's RNG is consumed exactly once no matter
        how many times this wrapper is materialized.
        """
        base = self._snapshots.get(duration)
        if base is None:
            base = self.base.arrival_columns(duration)
            self._snapshots[duration] = base
        times = base["time"]
        flows = zipf_flow_ids(len(times), self.num_flows, self.skew, self.seed)
        # Copies, so no caller can change the snapshot through its lists.
        return {"time": list(times), "size": list(base["size"]), "flow": flows.tolist()}

    def describe(self) -> dict:
        """Static description for analysis and reports."""
        return {
            "source": type(self).__name__,
            "base": type(self.base).__name__,
            "num_flows": self.num_flows,
            "skew": self.skew,
            "seed": self.seed,
        }
