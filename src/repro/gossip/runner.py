"""Driving gossip fleets through the modeled stack.

Glue between :mod:`repro.gossip.fleet` and the existing machinery: a
:class:`~repro.gossip.fleet.GossipFleetSource` supplies byte-accurate
datagram arrival columns, each message is built straight from them
with its message kind (:data:`~repro.core.dispatch.APP_CLASS_KEY`) and, for a data datagram,
its destination peer (:data:`~repro.core.dispatch.FLOW_KEY`) in its
meta, a flow-lookup cache is attached to the binding, and the standard
drive loop runs.  Control datagrams (synchronize / acknowledgment
walker traffic) deliberately carry *no* flow tag — they have no
cacheable destination — so every service batch mixes tagged and
untagged messages, exercising the untagged-walk accounting in
:meth:`repro.flows.lookup.FlowLookup.charge_batch`.

:func:`gossip_point` is the harness sweep point: framing mode ×
collection batch size × scheduler × drop policy, with wire-level
header/byte totals carried alongside the standard run result so the
``gossip`` experiment can pin header-bytes/msg savings from sessions
and lookup-misses/msg under peer skew.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.dispatch import APP_CLASS_KEY, FLOW_KEY
from ..flows.lookup import FlowCacheSpec
from ..flows.runner import FlowRunResult, merge_flow_results
from ..sim.runner import SimulationConfig, simulate
from .fleet import GossipFleetSource, GossipFleetSpec
from .wire import CONTROL_KINDS


@dataclass(frozen=True)
class GossipRunResult(FlowRunResult):
    """One gossip run: standard result + lookup + wire accounting.

    ``datagrams`` / ``messages`` / ``header_bytes`` / ``wire_bytes``
    total over the *offered* stream (a pure function of the fleet spec,
    independent of drops), so the header-bytes/msg headline compares
    framing modes on identical traffic.  The lookup counters are
    :class:`repro.flows.runner.FlowRunResult`'s, including ``untagged``
    — the control-datagram table walks that have no cacheable
    destination.
    """

    datagrams: int
    messages: int
    header_bytes: int
    wire_bytes: int

    @property
    def header_bytes_per_message(self) -> float:
        """Non-payload wire bytes per logical message offered."""
        return self.header_bytes / max(self.messages, 1)

    @property
    def wire_bytes_per_message(self) -> float:
        """Total wire bytes per logical message offered."""
        return self.wire_bytes / max(self.messages, 1)


def run_gossip_simulation(
    source: GossipFleetSource,
    config: SimulationConfig | None = None,
    cache: FlowCacheSpec | None = None,
    seed: int | np.random.Generator | None = 0,
) -> GossipRunResult:
    """Run one gossip fleet through the flow-charged stack.

    Built from the fleet's arrival columns, each message's meta carries
    its datagram's kind under :data:`~repro.core.dispatch.APP_CLASS_KEY`
    and, for data datagrams only, its destination peer under
    :data:`~repro.core.dispatch.FLOW_KEY`: control datagrams stay
    untagged on purpose — walker traffic resolves no destination, so it
    must pay the full table walk and must not alias tagged flow 0.  The
    wire totals are sums over the same columns.
    """
    config = config or SimulationConfig()
    columns = source.arrival_columns(config.duration)
    kinds = columns["kind"]
    metas = [
        {APP_CLASS_KEY: kind}
        if kind in CONTROL_KINDS
        else {APP_CLASS_KEY: kind, FLOW_KEY: flow}
        for kind, flow in zip(kinds, columns["flow"])
    ]
    run, cores, _ = simulate(
        source,
        config,
        seed,
        columns,
        flow_cache=cache or FlowCacheSpec(),
        metas=metas,
    )
    return GossipRunResult.of(
        run,
        cores,
        datagrams=len(kinds),
        messages=sum(columns["messages"]),
        header_bytes=sum(columns["header_bytes"]),
        wire_bytes=sum(columns["size"]),
    )


def gossip_point(
    framing: str,
    collection_size: int,
    scheduler: str,
    policy: str,
    rate: float,
    seeds: list[int],
    duration: float,
    num_peers: int = 10_000,
    num_communities: int = 4,
    peer_skew: float = 1.1,
    data_fraction: float = 0.75,
    data_payload_bytes: int = 67,
    entries: int = 16,
    organization: str = "direct",
    hit_cycles: float = 4.0,
    miss_cycles: float = 120.0,
    engine: str = "vec",
) -> dict[str, Any]:
    """One (framing, collection size, scheduler, drop policy) point.

    Module-level and fully determined by its JSON parameters (the
    harness contract).  Per seed, a fresh fleet spec drives one run;
    results merge across seeds.  ``conservation_violations`` is always 0
    (every run enforces conservation) and kept for the digests.
    ``engine`` pins the drive loop for the harness; both engines return
    identical bytes.
    """
    cache = FlowCacheSpec(
        entries=entries,
        organization=organization,
        hit_cycles=hit_cycles,
        miss_cycles=miss_cycles,
    )
    config = SimulationConfig(
        scheduler=scheduler,
        duration=duration,
        drop_policy=policy,
        engine=engine,
    )
    results = []
    for seed in seeds:
        spec = GossipFleetSpec(
            num_peers=num_peers,
            num_communities=num_communities,
            peer_skew=peer_skew,
            framing=framing,
            collection_size=collection_size,
            data_fraction=data_fraction,
            data_payload_bytes=data_payload_bytes,
            rate=rate,
            seed=seed,
        )
        source = GossipFleetSource(spec)
        results.append(run_gossip_simulation(source, config, cache, seed=seed))
    merged = merge_flow_results(results)
    return {
        "result": merged.to_dict(),
        "framing": framing,
        "collection_size": collection_size,
        "header_bytes_per_message": merged.header_bytes_per_message,
        "wire_bytes_per_message": merged.wire_bytes_per_message,
        "lookup_misses_per_message": merged.lookup_misses_per_message,
        "conservation_violations": 0,
    }
