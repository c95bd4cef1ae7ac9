"""Orchestration: run a workload with a recorder installed, feed sinks.

This is the glue between the generic recorder/sink machinery and the
two instrumented workloads:

* **simulator runs** (Figures 5-7): one recorder per scheduler
  configuration, replaying the *same* arrival sequence, so a Chrome
  trace shows conventional and LDLP as two process groups with one
  track per layer — the batch-vs-single-message schedule difference is
  directly visible;
* **the NetBSD receive path** (Tables 1-3, Figure 1): the trace
  generator emits phase spans and the miss-attribution replay emits
  per-function spans on per-layer tracks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.hierarchy import MachineSpec
from .attribution import MissAttribution, replay_receive_path
from .runtime import Recorder, recording
from .sinks import ChromeTraceSink


@dataclass(frozen=True)
class TracedRun:
    """One traced simulator configuration: its recorder and result."""

    name: str
    recorder: Recorder
    result: "object"  # repro.sim.stats.RunResult (kept loose for sinks)


def trace_simulation(
    scheduler: str = "ldlp",
    rate: float = 9000.0,
    seed: int = 0,
    duration: float = 0.02,
    message_size: int = 552,
    spec: MachineSpec | None = None,
    columns: dict[str, list] | None = None,
) -> TracedRun:
    """Run one Section-4 simulation with tracing enabled.

    ``columns`` overrides the Poisson source's stream, as in
    :func:`~repro.sim.runner.run_simulation`.

    Imports the simulator lazily so building a receive-path trace never
    pays for the scheduler stack.
    """
    from ..sim.runner import SimulationConfig, run_simulation
    from ..traffic.poisson import PoissonSource

    config = SimulationConfig(
        scheduler=scheduler,
        duration=duration,
        spec=spec or MachineSpec(),
    )
    source = PoissonSource(rate, size=message_size, rng=seed)
    recorder = Recorder(keep_spans=True)
    with recording(recorder):
        result = run_simulation(source, config, seed=seed, columns=columns)
    return TracedRun(name=scheduler, recorder=recorder, result=result)


def trace_schedulers(
    schedulers: tuple[str, ...] = ("conventional", "ldlp"),
    rate: float = 9000.0,
    seed: int = 0,
    duration: float = 0.02,
    message_size: int = 552,
) -> list[TracedRun]:
    """Trace several schedulers against the identical arrival sequence."""
    from ..traffic.poisson import PoissonSource

    source = PoissonSource(rate, size=message_size, rng=seed)
    columns = source.arrival_columns(duration)
    return [
        trace_simulation(
            scheduler=name,
            rate=rate,
            seed=seed,
            duration=duration,
            message_size=message_size,
            columns=columns,
        )
        for name in schedulers
    ]


def chrome_trace_for_sim(runs: list[TracedRun]) -> ChromeTraceSink:
    """Assemble simulator runs into one Chrome trace (cycles clock)."""
    sink = ChromeTraceSink(clock_unit="cycles")
    for run in runs:
        sink.add_recorder(run.recorder, run.name)
    return sink


def trace_receive_path(
    seed: int = 0, spec: MachineSpec | None = None
) -> tuple[Recorder, MissAttribution]:
    """Trace the receive-&-acknowledge path: spans + miss attribution.

    The returned recorder carries phase spans (from trace generation)
    and per-function spans on per-layer tracks (from the replay), both
    on the modelled-cycle clock; the attribution carries the function
    table and the live Table-1 working set.
    """
    recorder = Recorder(keep_spans=True)
    with recording(recorder):
        attribution = replay_receive_path(
            seed=seed, spec=spec, recorder=recorder
        )
    return recorder, attribution


def chrome_trace_for_receive(seed: int = 0) -> tuple[ChromeTraceSink, MissAttribution]:
    """One-call Chrome trace of the receive path (modelled cycles)."""
    recorder, attribution = trace_receive_path(seed=seed)
    sink = ChromeTraceSink(clock_unit="modelled cycles")
    sink.add_recorder(recorder, "receive-path")
    return sink, attribution
