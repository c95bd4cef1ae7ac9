"""Receive-side dispatch: steering arrivals onto cores at admission.

The paper models one 100 MHz CPU; modern small-message servers put many
cores behind a NIC dispatcher, and *where* a message is steered at
admission decides whether layer code stays cache-resident on the core
that runs it — receive-side dispatch is the multi-core generalization
of LDLP's instruction-locality argument.  A :class:`DispatchPolicy`
makes that axis pluggable, mirroring :class:`repro.core.overload.DropPolicy`
for the drop axis: dispatch picks the core, then the chosen core's drop
policy decides admission, so admission-time dispatch composes with
admission-time drops.

The registry in :data:`DISPATCH_POLICIES` names the three shipped
policies (see ``docs/dispatch.md`` for the full guide):

``rss``
    Flow-hash receive-side scaling: hash the message's flow identifier
    and take it modulo the core count.  Every message of one flow lands
    on one core (no reordering within a flow) and flows spread evenly,
    but consecutive arrivals of *different* flows spray across cores,
    so per-core batches stay small and every core keeps re-loading
    every layer's code.
``app``
    Application-defined dispatch (after "Application-Defined Receive
    Side Dispatching on the NIC"): match on a *decoded header field* —
    an application class, not the transport 5-tuple — through an
    explicit match table, falling back to a hash of the field value.
    Coarser than RSS (many flows share a class), so same-class work
    clusters on one core.
``ldlp``
    LDLP-aware dispatch: steer *chunks* of consecutive arrivals to the
    same core (chunk size = the cache-fit batch cap) before rotating to
    the next, so each core receives whole batches and its schedulers
    run each layer once per chunk instead of once per message — the
    dispatch-stage twin of the paper's batching rule.

All policies are deterministic — no RNG, no wall clock — so multi-core
runs stay byte-identical per seed at any worker count.
"""

from __future__ import annotations

import zlib
from abc import ABC, abstractmethod
from typing import Any, Callable

from ..errors import ConfigurationError
from .layer import Message

#: meta key carrying a message's flow identifier (the modeled 5-tuple).
FLOW_KEY = "dispatch.flow"

#: meta key carrying a message's decoded application class.
APP_CLASS_KEY = "dispatch.app_class"


def stable_hash(value: Any) -> int:
    """A process-stable 32-bit hash of a flow/field value.

    CRC-32 of the value's string form: unlike builtin ``hash()`` it is
    not salted per interpreter (DET002), so dispatch decisions reproduce
    across runs, workers, and ``PYTHONHASHSEED`` settings.
    """
    return zlib.crc32(str(value).encode("utf-8"))


def flow_of(message: Message) -> int:
    """The flow identifier a dispatcher hashes for one message.

    Reads :data:`FLOW_KEY` from the message meta (set by the traffic
    tagger, :func:`repro.sim.runner.tag_flows`); untagged messages
    all map to flow 0, i.e. one flow.
    """
    return int(message.meta.get(FLOW_KEY, 0))


class DispatchPolicy(ABC):
    """Where an arriving message is steered before admission.

    One hook: :meth:`select` is called once per arrival, *before* the
    chosen core's :class:`~repro.core.overload.DropPolicy` decides
    admission.  Policies must be deterministic functions of the message
    and their construction parameters; they may keep counters or sticky
    state (the LDLP-aware policy does) but must not draw randomness.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    @abstractmethod
    def select(self, message: Message, num_cores: int) -> int:
        """Pick the core (``0..num_cores-1``) to receive this message."""

    def describe(self) -> dict[str, Any]:
        """Static description for ``describe_config`` / analysis."""
        return {"dispatch": self.name}


class FlowHashRSS(DispatchPolicy):
    """Classic receive-side scaling: hash the flow id over the cores.

    The NIC default everywhere: per-flow ordering is preserved and flows
    balance (see the RSS-balance property test), but instruction
    locality is accidental — consecutive messages of different flows
    land on different cores, so no core accumulates a batch.
    """

    name = "rss"

    def select(self, message: Message, num_cores: int) -> int:
        """Hash the message's flow id modulo the core count."""
        return stable_hash(flow_of(message)) % num_cores


class AppDefinedDispatch(DispatchPolicy):
    """Application-defined dispatch on a decoded header field.

    Parameters
    ----------
    field:
        The message meta key to match on (default the decoded
        application class, :data:`APP_CLASS_KEY`; absent values fall
        back to the flow id).
    rules:
        Explicit ``field value -> core`` match table (the
        application-installed NIC rules).  Values without a rule fall
        back to a stable hash of the field value, so the policy
        degrades to per-class RSS rather than dropping on the floor.
    """

    name = "app"

    def __init__(
        self, field: str = APP_CLASS_KEY, rules: dict[Any, int] | None = None
    ) -> None:
        self.field = field
        self.rules = dict(rules or {})

    def select(self, message: Message, num_cores: int) -> int:
        """Match the decoded field against the rules, else hash it."""
        value = message.meta.get(self.field, flow_of(message))
        core = self.rules.get(value)
        if core is None:
            core = stable_hash(value)
        return int(core) % num_cores

    def describe(self) -> dict[str, Any]:
        """Policy name plus the matched field and rule count."""
        return {"dispatch": self.name, "field": self.field,
                "rules": len(self.rules)}


class LDLPAwareDispatch(DispatchPolicy):
    """Sticky chunk dispatch: whole batches to one core, then rotate.

    Consecutive arrivals stick to the current core until ``chunk``
    messages have been steered there, then the dispatcher rotates to
    the next core round-robin.  Each core therefore receives arrivals
    in batch-sized bursts: its (batching) scheduler drains them as one
    LDLP batch, loading each layer's code once per chunk instead of
    once per message — which is exactly why this policy's I-cache miss
    rate beats RSS once per-core load is light (>= 4 cores in the BENCH
    record).  ``chunk`` defaults to the paper's 14-message cache-fit
    batch cap (:class:`repro.core.batching.BatchPolicy`).
    """

    name = "ldlp"

    def __init__(self, chunk: int = 14) -> None:
        if chunk <= 0:
            raise ConfigurationError(f"dispatch chunk must be positive: {chunk}")
        self.chunk = chunk
        self._core = 0
        self._steered = 0

    def select(self, message: Message, num_cores: int) -> int:
        """Stick to the current core for ``chunk`` arrivals, then rotate."""
        if self._core >= num_cores:
            # Core count shrank between calls (fresh runs build fresh
            # policies; this guards direct reuse).
            self._core = 0
            self._steered = 0
        if self._steered >= self.chunk:
            self._core = (self._core + 1) % num_cores
            self._steered = 0
        self._steered += 1
        return self._core

    def describe(self) -> dict[str, Any]:
        """Policy name plus the sticky chunk size."""
        return {"dispatch": self.name, "chunk": self.chunk}


#: Name -> zero/default-argument factory for every shipped policy.
DISPATCH_POLICIES: dict[str, Callable[[], DispatchPolicy]] = {
    "rss": FlowHashRSS,
    "app": AppDefinedDispatch,
    "ldlp": LDLPAwareDispatch,
}


def make_dispatch_policy(name: str, **params: Any) -> DispatchPolicy:
    """Build a registered policy by name (``params`` forwarded verbatim)."""
    try:
        factory = DISPATCH_POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown dispatch policy {name!r}; expected one of "
            f"{', '.join(sorted(DISPATCH_POLICIES))}"
        ) from None
    return factory(**params)
