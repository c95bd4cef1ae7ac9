"""Fleet-scale gossip wire-protocol workload.

The "millions of users" scenario generator: byte-accurate Dispersy-style
wire formats (:mod:`repro.gossip.wire` — session vs sessionless framing,
``dispersy-collection`` batching), deterministic Zipf-skewed peer
populations (:mod:`repro.gossip.fleet`), and the flow-charged runner +
harness sweep point (:mod:`repro.gossip.runner`).  See
``EXPERIMENTS.md`` for the golden-pinned ``gossip`` sweep.
"""

from .fleet import GossipArrival, GossipFleetSource, GossipFleetSpec
from .runner import (
    GossipRunResult,
    gossip_point,
    run_gossip_simulation,
)
from .wire import (
    CONTROL_KINDS,
    CONTROL_PAYLOAD_BYTES,
    DATAGRAM_OVERHEAD_BYTES,
    FRAMING_MODES,
    MESSAGE_IDS,
    FramingSpec,
    WireIdentity,
    community_identifier,
    datagram_accounting,
    decode_collection,
    decode_message,
    encode_collection,
    encode_message,
    framing,
    message_wire_bytes,
)

__all__ = [
    "CONTROL_KINDS",
    "CONTROL_PAYLOAD_BYTES",
    "DATAGRAM_OVERHEAD_BYTES",
    "FRAMING_MODES",
    "MESSAGE_IDS",
    "FramingSpec",
    "GossipArrival",
    "GossipFleetSource",
    "GossipFleetSpec",
    "GossipRunResult",
    "WireIdentity",
    "community_identifier",
    "datagram_accounting",
    "decode_collection",
    "decode_message",
    "encode_collection",
    "encode_message",
    "framing",
    "gossip_point",
    "message_wire_bytes",
    "run_gossip_simulation",
]
