"""Deterministic fleet-scale gossip peer populations.

The north star asks for "heavy traffic from millions of users"; this
module generates it.  A :class:`GossipFleetSpec` describes a community
of peers — how many, how skewed their popularity, which framing mode
the wire uses, how many small messages pack into each
``dispersy-collection`` — and :class:`GossipFleetSource` turns the spec
into an arrival stream of *datagrams*, as columns: each arrival's
``size`` is the exact wire size from :mod:`repro.gossip.wire`, its
``flow`` is the Zipf-drawn destination peer (feeding the flow-lookup
cache), its ``kind`` is the application class (feeding the receive-side
dispatch), and ``community``, ``messages`` and ``header_bytes`` carry
the datagram's community and its
:func:`~repro.gossip.wire.datagram_accounting`.

Determinism is structural, not incidental: every random block — the
Poisson datagram times, the Zipf peer draws, the data/control kind
draws — comes from its **own** crc32-derived generator
(``crc32("gossip:<label>:<seed>")``), freshly constructed inside every
:meth:`~GossipFleetSource.arrival_columns` call.  There is no stored
RNG state, so re-materializing the stream yields identical
arrivals — the property whose absence in stateful base sources is the
bug ``ZipfFlowSource``'s per-horizon snapshot guards against.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..errors import ConfigurationError
from ..traffic.base import ArrivalColumns, TrafficSource, check_positive
from ..traffic.zipf import zipf_weights
from .wire import (
    CONTROL_KINDS,
    CONTROL_PAYLOAD_BYTES,
    FRAMING_MODES,
    datagram_accounting,
)


@dataclass(frozen=True)
class GossipFleetSpec:
    """One simulated gossip fleet.

    ``num_peers`` destination peers with Zipf(``peer_skew``) popularity
    spread over ``num_communities`` communities; datagrams arrive
    Poisson at ``rate`` per second.  A ``data_fraction`` share of
    datagrams are community data — ``collection_size`` payloads of
    ``data_payload_bytes`` each, packed as a ``dispersy-collection``
    when the size exceeds one — and the rest are walker control
    messages (synchronize / synchronize-ack / acknowledgment), which
    always travel alone and untagged.
    """

    num_peers: int = 10_000
    num_communities: int = 4
    peer_skew: float = 1.1
    framing: str = "session"
    collection_size: int = 8
    data_fraction: float = 0.75
    data_payload_bytes: int = 67
    rate: float = 8000.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_peers < 1:
            raise ConfigurationError(
                f"num_peers must be >= 1, got {self.num_peers}"
            )
        if self.num_communities < 1:
            raise ConfigurationError(
                f"num_communities must be >= 1, got {self.num_communities}"
            )
        if self.framing not in FRAMING_MODES:
            raise ConfigurationError(
                f"unknown framing mode {self.framing!r}; expected one of "
                f"{tuple(sorted(FRAMING_MODES))}"
            )
        if self.collection_size < 1:
            raise ConfigurationError(
                f"collection_size must be >= 1, got {self.collection_size}"
            )
        if not 0.0 <= self.data_fraction <= 1.0:
            raise ConfigurationError(
                f"data_fraction must be in [0, 1], got {self.data_fraction}"
            )
        if self.data_payload_bytes < 1:
            raise ConfigurationError(
                f"data_payload_bytes must be >= 1, got {self.data_payload_bytes}"
            )
        check_positive(self.rate, "rate")
        # Skew validation (finite, non-negative) without materializing a
        # million-peer weight vector at construction time.
        zipf_weights(1, self.peer_skew)

    def peer_popularity(self) -> np.ndarray:
        """Zipf(``peer_skew``) popularity over the ranked peers."""
        return zipf_weights(self.num_peers, self.peer_skew)

    def draw_peers(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """``count`` destination peers drawn by popularity: the draws
        ``rng.choice(num_peers, size=count, p=peer_popularity())``
        makes, from the spec's cached CDF (:func:`_peer_cdf`)."""
        cdf = _peer_cdf(self.num_peers, self.peer_skew)
        return cdf.searchsorted(rng.random(count), side="right")

    def community_of(self, peer: int) -> int:
        """The stable community one peer belongs to (crc32-mixed)."""
        return zlib.crc32(f"gossip:peer:{peer}".encode("utf-8")) % self.num_communities

    def describe(self) -> dict:
        """Static description for analysis and reports."""
        return {
            "num_peers": self.num_peers,
            "num_communities": self.num_communities,
            "peer_skew": self.peer_skew,
            "framing": self.framing,
            "collection_size": self.collection_size,
            "data_fraction": self.data_fraction,
            "data_payload_bytes": self.data_payload_bytes,
            "rate": self.rate,
            "seed": self.seed,
        }


@lru_cache(maxsize=16)
def _peer_cdf(num_peers: int, peer_skew: float) -> np.ndarray:
    """The normalised cumulative popularity ``Generator.choice`` forms
    from ``p``, read-only: it depends on the spec's peers and skew
    alone, so every draw of one fleet shares it."""
    cdf = zipf_weights(num_peers, peer_skew).cumsum()
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


class GossipFleetSource(TrafficSource):
    """A gossip fleet as a :class:`~repro.traffic.base.TrafficSource`.

    Emits datagram columns whose sizes come from the byte-accurate wire
    model, so the cache/footprint simulation sees exactly the bytes the
    protocol would put on the network: ``size`` is the full wire size
    (transport overhead + framing + payloads), ``flow`` the destination
    peer id, ``kind`` the message kind (the decoded application class),
    ``community`` the peer's community, and ``messages`` and
    ``header_bytes`` the datagram's logical-message count and
    non-payload byte count, which the gossip runner aggregates into the
    header-bytes/msg headline.  Stateless between materializations:
    every :meth:`arrival_columns` call derives fresh generators from the
    spec's seed, so the same source object can be materialized any
    number of times (or replayed under several schedulers) and always
    produce the identical stream.
    """

    def __init__(self, spec: GossipFleetSpec) -> None:
        self.spec = spec

    @property
    def rate(self) -> float:
        """Nominal datagram arrival rate (datagrams per second)."""
        return self.spec.rate

    def _rng(self, label: str) -> np.random.Generator:
        """A fresh generator for one draw block (crc32 derivation)."""
        return np.random.default_rng(
            zlib.crc32(f"gossip:{label}:{self.spec.seed}".encode("utf-8"))
        )

    def _times(self, duration: float) -> np.ndarray:
        """Poisson datagram arrival times on ``[0, duration)``."""
        if duration <= 0:
            return np.empty(0)
        rng = self._rng("times")
        chunk = max(int(self.spec.rate * duration) + 1, 16)
        gaps: list[np.ndarray] = []
        total = 0.0
        while total < duration:
            block = rng.exponential(1.0 / self.spec.rate, size=chunk)
            gaps.append(block)
            total += float(block.sum())
        times = np.cumsum(np.concatenate(gaps))
        return times[times < duration]

    def arrival_columns(self, duration: float) -> ArrivalColumns:
        """The fleet's datagram stream for one horizon, as columns.

        All draw blocks are taken up front from independent derived
        generators — times, destination peers, and message kinds never
        share RNG state, so changing the data fraction cannot shift
        which peer a datagram targets.
        """
        spec = self.spec
        times = self._times(duration)
        count = len(times)
        peers = spec.draw_peers(self._rng("peers"), count)
        kind_rng = self._rng("kinds")
        is_data = kind_rng.random(count) < spec.data_fraction
        control_kinds = kind_rng.integers(0, len(CONTROL_KINDS), size=count)

        # Shape 0 is a data datagram, shape 1 + j control kind j.
        kinds = ("data",) + CONTROL_KINDS
        payloads = [[spec.data_payload_bytes] * spec.collection_size] + [
            [CONTROL_PAYLOAD_BYTES[kind]] for kind in CONTROL_KINDS
        ]
        accounting = [
            datagram_accounting(spec.framing, kind, sizes)
            for kind, sizes in zip(kinds, payloads)
        ]
        # Once per shape: every datagram has one of these shapes.
        for wire, header, messages in accounting:
            if messages < 1 or not 0 <= header <= wire:
                raise ConfigurationError(
                    f"a {wire}-byte datagram needs >= 1 message and 0..{wire} "
                    f"header bytes, got {messages} and {header}"
                )
        shapes = np.where(is_data, 0, control_kinds + 1)
        wire, header, messages = (
            np.array(column)[shapes].tolist() for column in zip(*accounting)
        )
        unique, inverse = np.unique(peers, return_inverse=True)
        communities = np.array(
            [spec.community_of(peer) for peer in unique.tolist()], dtype=np.int64
        )
        return {
            "time": times.tolist(),
            "size": wire,
            "flow": peers.tolist(),
            "kind": np.array(kinds, dtype=object)[shapes].tolist(),
            "community": communities[inverse].tolist(),
            "messages": messages,
            "header_bytes": header,
        }

    def describe(self) -> dict:
        """Static description for analysis and reports."""
        description = {"source": type(self).__name__}
        description.update(self.spec.describe())
        return description
