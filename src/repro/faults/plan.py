"""Fault plans: seed-deterministic compositions of injectors.

A :class:`FaultPlan` bundles an ordered pipeline of traffic
:class:`~repro.faults.injectors.FaultStage` transforms with the
environment faults that thread through the machine model instead of the
arrival stream: periodic cache flushes, clock-rate derating, and
mbuf-pool exhaustion windows.

Determinism contract: every stage gets its own
:class:`numpy.random.Generator` seeded from
``[FAULT_SEED_TAG, crc32(stage.kind), stage_index, run_seed]``.  The
stream a stage sees therefore depends only on (plan shape, run seed) —
never on how many random draws *other* stages made — so inserting or
removing one stage does not silently reshuffle the faults the rest of
the plan injects.

Plans are JSON round-trippable (:meth:`FaultPlan.to_params` /
:meth:`FaultPlan.from_params`), which is what lets a campaign sweep
point carry its whole fault configuration as plain parameters through
the parallel harness and into the result-cache key.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..cache.hierarchy import MachineSpec
from ..errors import ConfigurationError
from ..traffic.base import Arrival
from .injectors import FaultStage, MbufExhaustionWindows, stage_from_params

#: Root of every fault rng stream; distinct from traffic/placement seeds
#: so the same run seed never correlates faults with arrivals.
FAULT_SEED_TAG = 0xFA17


@dataclass(frozen=True)
class FaultPlan:
    """An ordered fault pipeline plus environment-fault settings.

    Attributes
    ----------
    stages:
        Traffic injectors applied in order; each draws from its own
        deterministic rng (see module docstring).
    flush_period_cycles:
        When set, the simulation flushes both caches every that-many
        CPU cycles (interrupt/context-switch pollution); forwarded to
        :class:`~repro.sim.runner.SimulationConfig`.
    clock_derate:
        Clock-speed multiplier in ``(0, 1]``; ``0.5`` halves the CPU
        clock, modelling thermal throttling or a slower host, which
        turns a survivable offered load into overload.
    mbuf_windows:
        Deterministic mbuf-pool exhaustion windows to install on any
        pool exercised by the run (byte-level stacks).
    """

    stages: tuple[FaultStage, ...] = ()
    flush_period_cycles: float | None = None
    clock_derate: float = 1.0
    mbuf_windows: MbufExhaustionWindows | None = None

    def __post_init__(self) -> None:
        if self.flush_period_cycles is not None and self.flush_period_cycles <= 0:
            raise ConfigurationError("cache-flush period must be positive")
        if not 0.0 < self.clock_derate <= 1.0:
            raise ConfigurationError(
                f"clock derate must be in (0, 1]: {self.clock_derate}"
            )

    def stage_rng(self, index: int, seed: int) -> np.random.Generator:
        """The deterministic generator for stage ``index`` under ``seed``."""
        stage = self.stages[index]
        tag = zlib.crc32(stage.kind.encode("ascii"))
        return np.random.default_rng([FAULT_SEED_TAG, tag, index, seed])

    def apply(self, arrivals: list[Arrival], seed: int) -> list[Arrival]:
        """Run an arrival list through every stage, in order."""
        stream = list(arrivals)
        for index in range(len(self.stages)):
            stream = self.stages[index].apply(stream, self.stage_rng(index, seed))
        return stream

    def apply_frames(self, frames: list[bytes], seed: int) -> list[bytes]:
        """Run raw frames through every stage, in order."""
        stream = list(frames)
        for index in range(len(self.stages)):
            stream = self.stages[index].apply_frames(
                stream, self.stage_rng(index, seed)
            )
        return stream

    def derated_spec(self, spec: MachineSpec) -> MachineSpec:
        """``spec`` with the clock derating applied."""
        if self.clock_derate == 1.0:
            return spec
        return spec.with_clock(spec.clock_hz * self.clock_derate)

    def describe(self) -> str:
        """Human-readable multi-part summary."""
        parts = [stage.describe() for stage in self.stages]
        if self.flush_period_cycles is not None:
            parts.append(f"cache-flush(period={self.flush_period_cycles:g})")
        if self.clock_derate != 1.0:
            parts.append(f"clock-derate({self.clock_derate:g})")
        if self.mbuf_windows is not None:
            win = self.mbuf_windows
            parts.append(
                f"mbuf-exhaustion(period={win.period}, width={win.width})"
            )
        return " | ".join(parts) if parts else "no faults"

    def to_params(self) -> dict[str, Any]:
        """JSON-serializable form, inverse of :meth:`from_params`."""
        params: dict[str, Any] = {
            "stages": [stage.to_params() for stage in self.stages],
            "clock_derate": self.clock_derate,
        }
        if self.flush_period_cycles is not None:
            params["flush_period_cycles"] = self.flush_period_cycles
        if self.mbuf_windows is not None:
            win = self.mbuf_windows
            params["mbuf_windows"] = {
                "period": win.period,
                "width": win.width,
                "start": win.start,
            }
        return params

    @classmethod
    def from_params(cls, params: dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from its :meth:`to_params` dict.

        Raises :class:`ConfigurationError` on any malformed input,
        including a field of the wrong type.
        """
        if not isinstance(params, dict):
            raise ConfigurationError(
                f"fault plan parameters must be a dict, got {type(params).__name__}"
            )
        known = {"stages", "clock_derate", "flush_period_cycles", "mbuf_windows"}
        unknown = set(params) - known
        if unknown:
            raise ConfigurationError(
                f"unknown fault plan field(s): {', '.join(sorted(unknown))}"
            )
        try:
            stages = tuple(
                stage_from_params(stage) for stage in params.get("stages", ())
            )
            windows = params.get("mbuf_windows")
            return cls(
                stages=stages,
                flush_period_cycles=params.get("flush_period_cycles"),
                clock_derate=params.get("clock_derate", 1.0),
                mbuf_windows=(
                    MbufExhaustionWindows(**windows) if windows is not None else None
                ),
            )
        except (TypeError, ValueError) as error:
            # A field of the wrong type fails inside a constructor or a
            # range check, as one of these.
            raise ConfigurationError(f"malformed fault plan: {error}") from None
