"""Traffic sources: Poisson, deterministic, bursty, and self-similar.

The self-similar generator plus the Bellcore trace reader/writer stand
in for the Leland et al. Ethernet traces that drive the paper's
Figure 7 (see DESIGN.md, substitutions).  :class:`ZipfFlowSource`
layers Zipf-distributed destination flows over any base source for the
flow-lookup cache sweep (:mod:`repro.flows`).
"""

from .base import TrafficSource, make_rng
from .bellcore import (
    ETHERNET_MAX,
    ETHERNET_MIN,
    OCT89_SIZE_MIX,
    SizeMix,
    TraceSource,
    bellcore_like_source,
    read_bellcore_trace,
    write_bellcore_trace,
)
from .onoff import ParetoOnOffSource, hurst_estimate, pareto_samples
from .poisson import (
    PAPER_MESSAGE_SIZE,
    BurstSource,
    DeterministicSource,
    PoissonSource,
)
from .zipf import (
    ZipfFlowSource,
    flow_rng,
    zipf_flow_ids,
    zipf_weights,
)

__all__ = [
    "BurstSource",
    "DeterministicSource",
    "ETHERNET_MAX",
    "ETHERNET_MIN",
    "OCT89_SIZE_MIX",
    "PAPER_MESSAGE_SIZE",
    "ParetoOnOffSource",
    "PoissonSource",
    "SizeMix",
    "TraceSource",
    "TrafficSource",
    "ZipfFlowSource",
    "bellcore_like_source",
    "flow_rng",
    "hurst_estimate",
    "make_rng",
    "pareto_samples",
    "read_bellcore_trace",
    "write_bellcore_trace",
    "zipf_flow_ids",
    "zipf_weights",
]
