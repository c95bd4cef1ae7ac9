"""Pluggable scheduler overload behaviour: drop policies.

The paper buffers 500 packets and tail-drops beyond that — one point in
a whole design space of overload behaviours.  A :class:`DropPolicy`
makes that axis pluggable: it decides *which* message loses when the
input buffer is contended (admission) and *how large* an LDLP batch may
grow given the current buffer occupancy (batch modulation).  All
policies are deterministic — no RNG — so simulation results stay
byte-identical for a fixed arrival sequence.

The registry in :data:`DROP_POLICIES` names the four shipped policies:

``tail``
    Classic tail drop (the paper's behaviour, and the default): reject
    the newest arrival when the buffer is full.
``head``
    Drop-from-front: evict the *oldest* queued message to admit the new
    one.  Under sustained overload the queue holds the freshest work,
    which bounds the staleness (and hence latency) of what completes.
``batch-cap``
    Early drop at a queue-depth cap below the physical buffer: bounds
    worst-case queueing delay to roughly ``cap / batch`` service steps,
    trading extra drops for a tighter latency tail.
``adaptive``
    LDLP batch-size backoff: admission is tail-drop, but the batch cap
    scales with buffer occupancy — a lightly loaded queue is served in
    small batches (low per-message latency), a deep queue gets the full
    cache-fit batch (maximum drain rate).  This is the "as many
    available messages as will fit in the data cache" rule made
    pressure-sensitive.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from typing import Any, Callable, Sequence

from ..errors import ConfigurationError


class DropPolicy(ABC):
    """How a scheduler behaves when its input buffer is contended.

    Two independent hooks:

    * :meth:`admit_run` — admits a run of arrivals, in order, to the
      live input queue: decides which new messages enter and which
      queued messages (if any) are evicted to make room.  The
      scheduler's one admission entry point
      (:meth:`~repro.core.scheduler.Scheduler.enqueue_arrivals`) calls
      it, with a one-message run where arrivals are admitted singly;
      the outcome must not depend on how a stream is split into runs;
    * :meth:`batch_limit` — called by the batching schedulers (LDLP and
      grouped LDLP) at the start of each service step; may shrink the
      cache-derived batch cap based on buffer occupancy.

    Policies must be deterministic functions of their arguments and
    construction parameters; they may keep counters but must not draw
    randomness, or runs stop being reproducible per seed.
    """

    #: Registry name; subclasses override.
    name = "abstract"

    @abstractmethod
    def admit_run(self, queue: deque, capacity: int, messages: Sequence) -> int:
        """Admit ``messages`` in order; returns how many messages were lost.

        Parameters
        ----------
        queue:
            The live input queue: accepted messages are appended to it,
            and the policy may evict from it.
        capacity:
            The configured buffer limit in messages.
        messages:
            The arrivals, oldest first.

        Every rejected arrival and every evicted queued message counts
        as one loss (a drop).
        """

    def batch_limit(self, base: int, queue_len: int, capacity: int) -> int:
        """The effective batch cap for one service step.

        ``base`` is the cache-fit cap from
        :class:`~repro.core.batching.BatchPolicy`; the default keeps it.
        """
        return base

    def describe(self) -> dict[str, Any]:
        """Static description for ``describe_config`` / analysis."""
        return {"policy": self.name}


class _NeverEvicting(DropPolicy):
    """Tail drop at a depth limit: the newest arrival loses when full.

    Nothing is ever evicted, so a run's outcome is arithmetic: the first
    ``limit - len(queue)`` arrivals enter and the rest are dropped.
    """

    def depth_limit(self, capacity: int) -> int:
        """Deepest queue an arrival may join (the buffer by default)."""
        return capacity

    def admit_run(self, queue: deque, capacity: int, messages: Sequence) -> int:
        """Admit ``min(n, room)`` messages in one ``extend``; drop the rest."""
        room = max(0, self.depth_limit(capacity) - len(queue))
        if room >= len(messages):
            queue.extend(messages)
            return 0
        queue.extend(messages[:room])
        return len(messages) - room


class TailDrop(_NeverEvicting):
    """Reject the newest arrival when the buffer is full (the default)."""

    name = "tail"


class HeadDrop(DropPolicy):
    """Evict the oldest queued message to admit the newest.

    Keeps the buffer full of *fresh* work under overload: what completes
    was queued recently, so completion latency stays bounded while the
    drop rate absorbs the excess — the latency/loss trade taken by
    drop-from-front AQM variants.
    """

    name = "head"

    def admit_run(self, queue: deque, capacity: int, messages: Sequence) -> int:
        """Always accept; evict from the front while full."""
        lost = 0
        for message in messages:
            while len(queue) >= capacity:
                queue.popleft()
                lost += 1
            queue.append(message)
        return lost


class QueueCap(_NeverEvicting):
    """Early tail drop at a fixed depth below the physical buffer.

    Parameters
    ----------
    cap:
        Maximum queue depth admitted, in messages.  With the paper's
        14-message LDLP batch, ``cap=56`` bounds queueing delay to
        about four full batches regardless of the 500-packet buffer.
    """

    name = "batch-cap"

    def __init__(self, cap: int = 56) -> None:
        if cap <= 0:
            raise ConfigurationError(f"queue cap must be positive: {cap}")
        self.cap = cap

    def depth_limit(self, capacity: int) -> int:
        """Accept while below ``min(cap, capacity)``."""
        return min(self.cap, capacity)

    def describe(self) -> dict[str, Any]:
        """Policy name plus the configured cap."""
        return {"policy": self.name, "cap": self.cap}


class AdaptiveBatchBackoff(_NeverEvicting):
    """Tail-drop admission with occupancy-scaled LDLP batches.

    The effective batch cap is ``base * queue_len / capacity`` (at least
    ``min_batch``, at most ``base``): near-empty buffers are served a
    message or two at a time — minimum latency, exactly the paper's
    light-load behaviour — and the cap backs off toward the full
    cache-fit batch only as the buffer fills and throughput starts to
    matter more than per-message delay.
    """

    name = "adaptive"

    def __init__(self, min_batch: int = 1) -> None:
        if min_batch <= 0:
            raise ConfigurationError(
                f"minimum batch must be positive: {min_batch}"
            )
        self.min_batch = min_batch

    def batch_limit(self, base: int, queue_len: int, capacity: int) -> int:
        """Scale the cap with occupancy: empty → ``min_batch``, full → ``base``."""
        if capacity <= 0:
            return base
        scaled = -(-base * queue_len // capacity)  # ceil division
        return max(self.min_batch, min(base, scaled))

    def describe(self) -> dict[str, Any]:
        """Policy name plus the floor batch size."""
        return {"policy": self.name, "min_batch": self.min_batch}


#: Name → zero/default-argument factory for every shipped policy.
DROP_POLICIES: dict[str, Callable[[], DropPolicy]] = {
    "tail": TailDrop,
    "head": HeadDrop,
    "batch-cap": QueueCap,
    "adaptive": AdaptiveBatchBackoff,
}


def make_drop_policy(name: str, **params: Any) -> DropPolicy:
    """Build a registered policy by name (``params`` forwarded verbatim)."""
    try:
        factory = DROP_POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown drop policy {name!r}; expected one of "
            f"{', '.join(sorted(DROP_POLICIES))}"
        ) from None
    return factory(**params)
