"""Composable, rng-driven fault injectors.

Every injector is one :class:`FaultStage`: a deterministic transform of
an arrival stream's columns (and, where it makes sense, of a raw frame
list) driven by a :class:`numpy.random.Generator` the plan derives from
the run seed.
Stages are JSON round-trippable (``to_params`` / ``from_params``) so a
whole fault plan travels through the parallel harness as plain point
parameters and hashes into the result-cache key.

The stages model what real receive paths face:

* :class:`LossFault` — the wire ate the packet;
* :class:`DuplicateFault` — retransmission/switch flooding duplicates;
* :class:`ReorderFault` — multipath or NIC-queue reordering (delivery
  *order* is perturbed; original timestamps are kept, so reordered
  messages show up as latency);
* :class:`DelayFault` — queueing jitter upstream of the host;
* :class:`TruncateFault` — runt frames cut mid-transfer;
* :class:`CorruptFault` — payload byte flips (meaningful for byte-level
  frames, where it exercises checksum/decode reject paths).

A stage computes an index selection or permutation of the stream and
replaces at most its ``time`` and ``size`` columns (and clamps a
gossip stream's ``header_bytes`` to a cut size), so every tag column
(a flow id, a gossip datagram's kind...) survives by construction: a
faulted flow-tagged stream still looks up its flows.

Environment injectors perturb the *machine* rather than the traffic:

* :class:`MbufExhaustionWindows` — deterministic count-based windows in
  which the mbuf pool refuses allocation (see
  :meth:`repro.buffers.pool.MbufPool.set_fault_gate`);
* cache flushes and clock derating are plan-level settings
  (:class:`repro.faults.plan.FaultPlan`) because they thread through
  :class:`~repro.sim.runner.SimulationConfig`, not the arrival stream.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..errors import ConfigurationError
from ..traffic.base import ArrivalColumns, check_positive


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ConfigurationError(f"fault rate must be in [0, 1]: {rate}")


def _take(
    columns: ArrivalColumns, index: np.ndarray, **replaced: np.ndarray
) -> ArrivalColumns:
    """Every column indexed by ``index`` (an integer array), in column
    order, except those named in ``replaced``, which take the given
    arrays (already indexed) instead."""
    return {
        name: (
            replaced[name] if name in replaced else np.asarray(column)[index]
        ).tolist()
        for name, column in columns.items()
    }


def _time_order(
    columns: ArrivalColumns, index: np.ndarray, times: np.ndarray
) -> ArrivalColumns:
    """The arrivals ``index`` with new ``times``, stably sorted by time
    (equal times keep their order, as ``list.sort`` does)."""
    order = np.argsort(times, kind="stable")
    return _take(columns, index[order], time=times[order])


class FaultStage(ABC):
    """One deterministic transform in a fault plan.

    Subclasses set :attr:`kind` (the registry name used for JSON
    round-trips) and implement :meth:`apply`; stages that can also
    mangle raw frame bytes override :meth:`apply_frames`.
    """

    #: Registry name; also the JSON ``kind`` discriminator.
    kind = "abstract"

    @abstractmethod
    def apply(
        self, columns: ArrivalColumns, rng: np.random.Generator
    ) -> ArrivalColumns:
        """Transform an arrival stream's columns into new lists (must
        not mutate the input)."""

    def apply_frames(
        self, frames: list[bytes], rng: np.random.Generator
    ) -> list[bytes]:
        """Transform raw frames; default: stage does not apply to bytes."""
        return list(frames)

    @abstractmethod
    def to_params(self) -> dict[str, Any]:
        """JSON-serializable form, ``{"kind": ..., **parameters}``."""

    def describe(self) -> str:
        """One human-readable summary line."""
        params = {k: v for k, v in self.to_params().items() if k != "kind"}
        inner = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class LossFault(FaultStage):
    """Drop each arrival independently with probability ``rate``."""

    rate: float = 0.01

    kind = "loss"

    def __post_init__(self) -> None:
        _check_rate(self.rate)

    def apply(
        self, columns: ArrivalColumns, rng: np.random.Generator
    ) -> ArrivalColumns:
        """Keep each arrival with probability ``1 - rate``."""
        keep = rng.random(len(columns["time"])) >= self.rate
        return _take(columns, np.flatnonzero(keep))

    def apply_frames(
        self, frames: list[bytes], rng: np.random.Generator
    ) -> list[bytes]:
        """Drop frames with the same Bernoulli rule."""
        keep = rng.random(len(frames)) >= self.rate
        return [f for f, k in zip(frames, keep) if k]

    def to_params(self) -> dict[str, Any]:
        """JSON form."""
        return {"kind": self.kind, "rate": self.rate}


@dataclass(frozen=True)
class DuplicateFault(FaultStage):
    """Duplicate selected arrivals a short, fixed delay later.

    Models link-layer retransmissions and switch flooding: the copy is
    a distinct message carrying its own (slightly later) timestamp and
    the original's tags.
    """

    rate: float = 0.01
    delay: float = 1e-4

    kind = "duplicate"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if not (math.isfinite(self.delay) and self.delay >= 0):
            raise ConfigurationError(
                f"duplicate delay must be finite and >= 0: {self.delay}"
            )

    def apply(
        self, columns: ArrivalColumns, rng: np.random.Generator
    ) -> ArrivalColumns:
        """Insert time-shifted copies of the selected arrivals."""
        times = np.asarray(columns["time"], dtype=float)
        copies = np.flatnonzero(rng.random(len(times)) < self.rate)
        index = np.concatenate((np.arange(len(times)), copies))
        return _time_order(
            columns, index, np.concatenate((times, times[copies] + self.delay))
        )

    def apply_frames(
        self, frames: list[bytes], rng: np.random.Generator
    ) -> list[bytes]:
        """Repeat selected frames back-to-back."""
        chosen = rng.random(len(frames)) < self.rate
        out: list[bytes] = []
        for frame, dup in zip(frames, chosen):
            out.append(frame)
            if dup:
                out.append(frame)
        return out

    def to_params(self) -> dict[str, Any]:
        """JSON form."""
        return {"kind": self.kind, "rate": self.rate, "delay": self.delay}


@dataclass(frozen=True)
class ReorderFault(FaultStage):
    """Swap selected arrivals forward by up to ``span`` positions.

    Perturbs *delivery order* only: timestamps are untouched, so the
    driver admits the displaced messages late and the disorder shows up
    as added latency — exactly what reordering costs a receiver.
    """

    rate: float = 0.01
    span: int = 3

    kind = "reorder"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.span <= 0:
            raise ConfigurationError(f"reorder span must be positive: {self.span}")

    def _permute(self, n: int, rng: np.random.Generator) -> list[int]:
        order = list(range(n))
        chosen = rng.random(n) < self.rate
        shifts = rng.integers(1, self.span + 1, size=n)
        for index in range(n):
            if not chosen[index]:
                continue
            target = min(n - 1, index + int(shifts[index]))
            value = order.pop(index)
            order.insert(target, value)
        return order

    def apply(
        self, columns: ArrivalColumns, rng: np.random.Generator
    ) -> ArrivalColumns:
        """Reorder delivery positions, keeping each arrival's timestamp."""
        order = self._permute(len(columns["time"]), rng)
        return _take(columns, np.array(order, dtype=np.int64))

    def apply_frames(
        self, frames: list[bytes], rng: np.random.Generator
    ) -> list[bytes]:
        """Reorder frame delivery with the same permutation rule."""
        order = self._permute(len(frames), rng)
        return [frames[i] for i in order]

    def to_params(self) -> dict[str, Any]:
        """JSON form."""
        return {"kind": self.kind, "rate": self.rate, "span": self.span}


@dataclass(frozen=True)
class DelayFault(FaultStage):
    """Add exponential jitter to selected arrivals (then re-sort).

    Models upstream queueing delay: the affected packet reaches the
    host late, possibly behind packets sent after it.
    """

    rate: float = 0.02
    mean: float = 2e-4

    kind = "delay"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        check_positive(self.mean, "mean delay")

    def apply(
        self, columns: ArrivalColumns, rng: np.random.Generator
    ) -> ArrivalColumns:
        """Shift selected timestamps by Exp(mean) and restore time order."""
        times = np.asarray(columns["time"], dtype=float)
        chosen = rng.random(len(times)) < self.rate
        jitter = rng.exponential(self.mean, size=len(times))
        return _time_order(
            columns, np.arange(len(times)), np.where(chosen, times + jitter, times)
        )

    def to_params(self) -> dict[str, Any]:
        """JSON form."""
        return {"kind": self.kind, "rate": self.rate, "mean": self.mean}


@dataclass(frozen=True)
class TruncateFault(FaultStage):
    """Cut selected packets short (runt frames).

    At the arrival level the size shrinks to a uniform fraction (at
    least ``min_size``), and a ``header_bytes`` column is clamped to the
    new size: a cut inside a gossip datagram's headers leaves only
    header bytes.  At the frame level the byte string itself is sliced,
    which is what drives header parsers and checksum verification into
    their reject paths.
    """

    rate: float = 0.01
    min_size: int = 1

    kind = "truncate"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.min_size <= 0:
            raise ConfigurationError(
                f"minimum truncated size must be positive: {self.min_size}"
            )

    def apply(
        self, columns: ArrivalColumns, rng: np.random.Generator
    ) -> ArrivalColumns:
        """Shrink selected sizes to a uniform fraction of the original."""
        sizes = np.asarray(columns["size"], dtype=np.int64)
        chosen = rng.random(len(sizes)) < self.rate
        fractions = rng.uniform(0.05, 0.95, size=len(sizes))
        cut = np.maximum(self.min_size, (sizes * fractions).astype(np.int64))
        sizes = np.where(chosen & (sizes > self.min_size), cut, sizes)
        replaced = {"size": sizes}
        if "header_bytes" in columns:
            replaced["header_bytes"] = np.minimum(columns["header_bytes"], sizes)
        return _take(columns, np.arange(len(sizes)), **replaced)

    def apply_frames(
        self, frames: list[bytes], rng: np.random.Generator
    ) -> list[bytes]:
        """Slice selected frames short (length >= min_size when possible)."""
        chosen = rng.random(len(frames)) < self.rate
        fractions = rng.uniform(0.05, 0.95, size=len(frames))
        out = []
        for frame, cut, fraction in zip(frames, chosen, fractions):
            if cut and len(frame) > self.min_size:
                length = max(self.min_size, int(len(frame) * float(fraction)))
                out.append(frame[:length])
            else:
                out.append(frame)
        return out

    def to_params(self) -> dict[str, Any]:
        """JSON form."""
        return {"kind": self.kind, "rate": self.rate, "min_size": self.min_size}


@dataclass(frozen=True)
class CorruptFault(FaultStage):
    """Flip up to ``max_flips`` payload bytes of selected frames.

    Only meaningful for byte-level traffic: each selected frame gets
    1..``max_flips`` bytes XORed with a random non-zero mask, which is
    precisely the corruption the Internet checksum exists to catch —
    property tests assert both checksum routines reject (or the flips
    provably cancel).  At the arrival level (sizes only, no bytes) this
    stage is an identity transform.
    """

    rate: float = 0.02
    max_flips: int = 4

    kind = "corrupt"

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.max_flips <= 0:
            raise ConfigurationError(
                f"max byte flips must be positive: {self.max_flips}"
            )

    def apply(
        self, columns: ArrivalColumns, rng: np.random.Generator
    ) -> ArrivalColumns:
        """Identity — synthetic arrivals carry no bytes to corrupt.

        The rng is still consumed once per arrival so a plan produces
        the same downstream stream whether or not payloads exist.
        """
        rng.random(len(columns["time"]))
        return {name: list(column) for name, column in columns.items()}

    def apply_frames(
        self, frames: list[bytes], rng: np.random.Generator
    ) -> list[bytes]:
        """XOR random non-zero masks into selected frames' bytes."""
        chosen = rng.random(len(frames)) < self.rate
        out = []
        for frame, corrupt in zip(frames, chosen):
            if corrupt and frame:
                out.append(flip_bytes(frame, rng, self.max_flips))
            else:
                out.append(frame)
        return out

    def to_params(self) -> dict[str, Any]:
        """JSON form."""
        return {"kind": self.kind, "rate": self.rate, "max_flips": self.max_flips}


def flip_bytes(frame: bytes, rng: np.random.Generator, max_flips: int = 4) -> bytes:
    """Return ``frame`` with 1..``max_flips`` bytes XORed non-trivially.

    Positions are drawn without replacement and every mask is non-zero,
    so the result always differs from the input — handy for property
    tests that must distinguish "corruption detected" from "corruption
    never happened".
    """
    if not frame:
        return frame
    count = int(rng.integers(1, max_flips + 1))
    count = min(count, len(frame))
    positions = rng.choice(len(frame), size=count, replace=False)
    mutated = bytearray(frame)
    for position in positions:
        mask = int(rng.integers(1, 256))
        mutated[int(position)] ^= mask
    return bytes(mutated)


@dataclass(frozen=True)
class MbufExhaustionWindows:
    """Deterministic count-based mbuf-pool exhaustion windows.

    Every ``period`` allocation attempts, the next ``width`` attempts
    fail (starting at attempt ``start``).  Install on a pool with
    :meth:`~repro.buffers.pool.MbufPool.set_fault_gate`; being keyed on
    the attempt *count* rather than wall/sim time makes the windows
    reproducible irrespective of scheduler interleaving.
    """

    period: int = 100
    width: int = 10
    start: int = 50

    def __post_init__(self) -> None:
        if self.period <= 0 or self.width < 0 or self.start < 0:
            raise ConfigurationError(
                f"invalid exhaustion window: period={self.period} "
                f"width={self.width} start={self.start}"
            )
        if self.width >= self.period:
            raise ConfigurationError(
                "exhaustion width must be smaller than the period "
                "(or no allocation ever succeeds)"
            )

    def gate(self) -> Callable[[int], bool]:
        """The ``gate(allocation_index) -> allowed`` callable to install."""

        def allowed(index: int) -> bool:
            """Whether allocation attempt ``index`` may succeed."""
            if index < self.start:
                return True
            return (index - self.start) % self.period >= self.width

        return allowed

    def to_params(self) -> dict[str, Any]:
        """JSON form."""
        return {
            "kind": "mbuf-exhaustion",
            "period": self.period,
            "width": self.width,
            "start": self.start,
        }


#: Stage registry keyed by the JSON ``kind`` discriminator.
STAGE_KINDS: dict[str, type[FaultStage]] = {
    stage.kind: stage
    for stage in (
        LossFault,
        DuplicateFault,
        ReorderFault,
        DelayFault,
        TruncateFault,
        CorruptFault,
    )
}


def stage_from_params(params: dict[str, Any]) -> FaultStage:
    """Rebuild one stage from its :meth:`FaultStage.to_params` dict."""
    fields = dict(params)
    kind = fields.pop("kind", None)
    try:
        cls = STAGE_KINDS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault stage kind {kind!r}; expected one of "
            f"{', '.join(sorted(STAGE_KINDS))}"
        ) from None
    return cls(**fields)
