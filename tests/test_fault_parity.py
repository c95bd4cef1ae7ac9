"""Fault stages pinned stream by stream.

The goldens reach only the loss, duplicate, reorder and delay stages,
and only over Poisson traffic.  Here every stage kind, and the
degradation campaign's plan, runs over three fixed streams: plain
Poisson, Zipf flow-tagged Poisson and a gossip fleet (whose datagrams
carry kind, community, message-count and header-byte columns).  Each
case pins the SHA-256 of the faulted stream's canonical JSON, so a
stage that draws its rng in another order, sorts ties differently,
rounds a cut size differently or drops a tag column moves a digest.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults import (
    CorruptFault,
    DelayFault,
    DuplicateFault,
    FaultPlan,
    LossFault,
    ReorderFault,
    TruncateFault,
)
from repro.faults.campaigns import campaign_plan
from repro.gossip.fleet import GossipFleetSource, GossipFleetSpec
from repro.harness.cache import canonical_json
from repro.traffic.poisson import PoissonSource
from repro.traffic.zipf import ZipfFlowSource

DURATION = 0.02
SEED = 7

STREAMS = {
    "poisson": lambda: PoissonSource(11000.0, rng=3),
    "zipf": lambda: ZipfFlowSource(
        PoissonSource(11000.0, rng=4), num_flows=64, skew=1.1, seed=4
    ),
    "gossip": lambda: GossipFleetSource(
        GossipFleetSpec(num_peers=500, rate=12000.0, seed=5)
    ),
}

PLANS = {
    "loss": FaultPlan(stages=(LossFault(rate=0.2),)),
    "duplicate": FaultPlan(stages=(DuplicateFault(rate=0.2, delay=1e-4),)),
    "reorder": FaultPlan(stages=(ReorderFault(rate=0.2, span=4),)),
    "delay": FaultPlan(stages=(DelayFault(rate=0.2, mean=2e-4),)),
    # The default min_size of 1 lets a cut land inside a datagram's headers.
    "truncate": FaultPlan(stages=(TruncateFault(rate=0.3),)),
    "corrupt": FaultPlan(stages=(CorruptFault(rate=0.5),)),
    "campaign": campaign_plan(),
}

#: SHA-256 of each faulted stream's canonical JSON, per (stream, plan).
DIGESTS = {
    ("poisson", "loss"): "2c5d8283763370213376f9f543ad086765ea0a197a8683d431fb10d64926bb33",
    ("poisson", "duplicate"): "ecea4489c9f78b66133847d6108f628a9f96e22b05b919c090b45c8bdb860d3b",
    ("poisson", "reorder"): "ac536079071a92e571f4ed1e3fb7352fd639da7ee5ce7c9792135a281a8e26b6",
    ("poisson", "delay"): "fa1255d4a82209ea1f72cde8c68714253e308283692025fe14e493f0337ed689",
    ("poisson", "truncate"): "078118f2ffae4170d159653ccf7159ebc653d5a4e343a0622c617e05a0d7c93e",
    ("poisson", "corrupt"): "9237a8b20ed513ec4df9611a1cf3f9934b70162256e8b8261f161da076778258",
    ("poisson", "campaign"): "8224d346fed651f616a1cc0e1f8ead9ce48e7c5bf101f41fb240c60f16adad51",
    ("zipf", "loss"): "b05493a048817594b798c79d4ada141f264e77437cbf7efd6bd1d88d5b2d06b7",
    ("zipf", "duplicate"): "05b3c3e7a3e8ad98991b34154e1016fe50f0b340781415ccc14a1f98ef51f1c9",
    ("zipf", "reorder"): "66ce38c7d0e41df31fe0fec90edc5ff2a5d66d77477b68c408265d3c468fd221",
    ("zipf", "delay"): "891a326a9375464093483e150b025de4f16a3d96f9be293148730459aa8b4599",
    ("zipf", "truncate"): "f8def796a9edf5f789d92963c4ec22bc1a00ea4a5e00aa78767dcf990b601bd0",
    ("zipf", "corrupt"): "9716fb55edc9ff4a79af27c4d0f596409cac81be188ccf59abd2cd7d8a66528b",
    ("zipf", "campaign"): "25702e7d9b8bac25133f3789bc492bbb6a76319e851f69fa0af7173f36d02b15",
    ("gossip", "loss"): "36386e75f33bb343a8ca7d210bcd0522f6229f80082ba402340f0175be1d1aa4",
    ("gossip", "duplicate"): "25bd6f9e7c674cd339e0bc6dfdc9ffbd2a01728f9943e96d39222b29bda5952d",
    ("gossip", "reorder"): "35106fd0d981bc05b1496818b7494793d430f2d62600a6756940b35900c0dfd0",
    ("gossip", "delay"): "741657631d4a8d8f172303d46fad8ade9c20492fa0fc5b398ce550f5b0455164",
    ("gossip", "truncate"): "2896df947e15395403b0f24dc5818d26408564be5eee46ac6214be539b764f2a",
    ("gossip", "corrupt"): "ee93afd9d35de4bfc994407d31dfb9c5a2a58b483c96c357178bd4c869f0ca2b",
    ("gossip", "campaign"): "a8c665ffe1759c1be174a0e47043becfaccebadac8bf1edf73abecd26fb92f78",
}


def _faulted(stream: str, plan: str) -> dict:
    """One stream over :data:`DURATION` through one plan."""
    return PLANS[plan].apply(STREAMS[stream]().arrival_columns(DURATION), SEED)


@pytest.mark.parametrize("stream, plan", sorted(DIGESTS))
def test_faulted_stream_digest(stream, plan):
    faulted = _faulted(stream, plan)
    assert list(faulted) == list(STREAMS[stream]().arrival_columns(DURATION))
    digest = hashlib.sha256(canonical_json(faulted).encode("utf-8")).hexdigest()
    assert digest == DIGESTS[(stream, plan)]
