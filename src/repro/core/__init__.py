"""LDLP — locality-driven layer processing (the paper's contribution).

* :class:`Layer`, :class:`Message`, :class:`LayerFootprint` — the layer
  vocabulary;
* :class:`ConventionalScheduler`, :class:`ILPScheduler`,
  :class:`LDLPScheduler` — the three scheduling disciplines compared in
  the paper;
* :class:`BatchPolicy` — "as many messages as fit in the data cache";
* :class:`DropPolicy` — pluggable input-buffer overload behaviour
  (tail/head/early drop, adaptive batch backoff);
* :class:`DispatchPolicy` — pluggable receive-side dispatch steering
  arrivals onto cores (flow-hash RSS, application-defined, LDLP-aware);
* :mod:`repro.core.blocking` — off-line blocked processing and
  blocking-factor estimation;
* :class:`MachineBinding` — attaches a stack to the simulated machine.
"""

from .batching import BatchPolicy
from .binding import MachineBinding
from .dispatch import (
    APP_CLASS_KEY,
    DISPATCH_POLICIES,
    FLOW_KEY,
    AppDefinedDispatch,
    DispatchPolicy,
    FlowHashRSS,
    LDLPAwareDispatch,
    make_dispatch_policy,
)
from .overload import (
    DROP_POLICIES,
    AdaptiveBatchBackoff,
    DropPolicy,
    HeadDrop,
    QueueCap,
    TailDrop,
    make_drop_policy,
)
from .blocking import (
    BlockingEstimate,
    blocked_schedule,
    conventional_schedule,
    estimate_block_cost,
    estimate_blocking_factor,
    group_layers_for_cache,
    process_blocked,
)
from .layer import (
    CountingLayer,
    Layer,
    LayerFootprint,
    Message,
    PassthroughLayer,
    SinkLayer,
)
from .scheduler import (
    Completion,
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
    Scheduler,
)

__all__ = [
    "APP_CLASS_KEY",
    "AdaptiveBatchBackoff",
    "AppDefinedDispatch",
    "BatchPolicy",
    "BlockingEstimate",
    "Completion",
    "ConventionalScheduler",
    "DISPATCH_POLICIES",
    "DROP_POLICIES",
    "DispatchPolicy",
    "DropPolicy",
    "FLOW_KEY",
    "FlowHashRSS",
    "GroupedLDLPScheduler",
    "CountingLayer",
    "HeadDrop",
    "ILPScheduler",
    "LDLPAwareDispatch",
    "LDLPScheduler",
    "Layer",
    "LayerFootprint",
    "MachineBinding",
    "Message",
    "PassthroughLayer",
    "QueueCap",
    "Scheduler",
    "SinkLayer",
    "TailDrop",
    "make_dispatch_policy",
    "make_drop_policy",
    "blocked_schedule",
    "conventional_schedule",
    "estimate_block_cost",
    "estimate_blocking_factor",
    "group_layers_for_cache",
    "process_blocked",
]
