"""The Section-4 synthetic benchmark: traffic → stack → scheduler → stats.

This is the harness behind Figures 5, 6 and 7.  The CPU is the clock:
arrivals are converted to cycle timestamps, the scheduler consumes work
and advances the CPU, and message latency is completion cycle minus
arrival cycle.

Paper parameters (all defaults here): five layers of 6 KB code / 256 B
data / 1652 cycles per 552-byte message; 100 MHz CPU; 8 KB direct-mapped
I and D caches; 20-cycle read-miss stall; 500-packet input buffer;
results averaged over runs with different random code placements.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..cache.hierarchy import MachineSpec
from ..core.batching import BatchPolicy
from ..core.binding import MachineBinding
from ..core.layer import Layer, LayerFootprint, Message, PassthroughLayer
from ..core.overload import DROP_POLICIES, make_drop_policy
from ..core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
    Scheduler,
)
from ..errors import ConfigurationError
from ..obs.runtime import active_recorder, machine_counters
from ..traffic.base import Arrival, TrafficSource
from ..traffic.poisson import PoissonSource
from .stats import (
    LatencyRecorder,
    MissesPerMessage,
    RunResult,
    merge_results,
)

#: Scheduler registry keyed by the names used throughout the experiments.
SCHEDULER_NAMES = ("conventional", "ilp", "ldlp", "grouped")

#: Drive-loop engines: the scalar reference loop and the vectorized
#: batch/columnar replay (:mod:`repro.sim.vec`), which is bit-identical
#: where supported and falls back to scalar where not.
ENGINE_NAMES = ("scalar", "vec")


def build_paper_stack(
    num_layers: int = 5,
    code_bytes: int = 6144,
    data_bytes: int = 256,
    base_cycles: float = 1376.0,
    per_byte_cycles: float = 0.5,
) -> list[Layer]:
    """The five synthetic layers of Section 4 (passthrough, full cost)."""
    footprint = LayerFootprint(
        code_bytes=code_bytes,
        data_bytes=data_bytes,
        base_cycles=base_cycles,
        per_byte_cycles=per_byte_cycles,
    )
    return [PassthroughLayer(f"layer{i}", footprint) for i in range(num_layers)]


@dataclass(frozen=True)
class SimulationConfig:
    """Configuration of one synthetic-benchmark run.

    ``drop_policy`` selects the input-buffer overload behaviour by
    registry name (:data:`repro.core.overload.DROP_POLICIES`); ``tail``
    is the paper's classic tail drop.  ``flush_period_cycles`` injects
    an environment fault: every that-many CPU cycles both caches are
    flushed cold, modelling interrupt/context-switch pollution
    (:mod:`repro.faults` campaigns sweep it).
    """

    scheduler: str = "ldlp"
    num_layers: int = 5
    layer_code_bytes: int = 6144
    layer_data_bytes: int = 256
    layer_base_cycles: float = 1376.0
    layer_per_byte_cycles: float = 0.5
    spec: MachineSpec = field(default_factory=MachineSpec)
    duration: float = 0.2
    input_limit: int = 500
    batch_limit: int | None = None
    pool_buffers: int = 32
    buffer_size: int = 2048
    random_placement: bool = True
    drop_policy: str = "tail"
    flush_period_cycles: float | None = None
    engine: str = "vec"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_NAMES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{ENGINE_NAMES}"
            )
        if self.scheduler not in SCHEDULER_NAMES:
            raise ConfigurationError(
                f"unknown scheduler {self.scheduler!r}; expected one of "
                f"{SCHEDULER_NAMES}"
            )
        if self.duration <= 0:
            raise ConfigurationError("duration must be positive")
        if self.drop_policy not in DROP_POLICIES:
            raise ConfigurationError(
                f"unknown drop policy {self.drop_policy!r}; expected one of "
                f"{tuple(sorted(DROP_POLICIES))}"
            )
        if self.flush_period_cycles is not None and self.flush_period_cycles <= 0:
            raise ConfigurationError("cache-flush period must be positive")

    def with_scheduler(self, scheduler: str) -> "SimulationConfig":
        """This config with only the scheduler swapped."""
        return replace(self, scheduler=scheduler)


def build_scheduler(config: SimulationConfig, seed) -> Scheduler:
    """Build one machine-bound scheduler from a config and placement seed.

    Shared by :func:`run_simulation` and the multi-core runner
    (:mod:`repro.sim.multicore`), which builds one per core — reusing
    this exact constructor is what makes a one-core multi-core run
    bit-identical to the single-core benchmark.
    """
    layers = build_paper_stack(
        config.num_layers,
        config.layer_code_bytes,
        config.layer_data_bytes,
        config.layer_base_cycles,
        config.layer_per_byte_cycles,
    )
    binding = MachineBinding(
        spec=config.spec,
        rng=seed,
        random_placement=config.random_placement,
        pool_buffers=config.pool_buffers,
        buffer_size=config.buffer_size,
    )
    drop_policy = make_drop_policy(config.drop_policy)
    if config.scheduler == "conventional":
        return ConventionalScheduler(
            layers, binding, config.input_limit, drop_policy=drop_policy
        )
    if config.scheduler == "ilp":
        return ILPScheduler(
            layers, binding, config.input_limit, drop_policy=drop_policy
        )
    policy = (
        BatchPolicy(config.batch_limit)
        if config.batch_limit is not None
        else BatchPolicy.from_machine(config.spec)
    )
    if config.scheduler == "grouped":
        return GroupedLDLPScheduler(
            layers, binding, config.input_limit, policy, drop_policy=drop_policy
        )
    return LDLPScheduler(
        layers, binding, config.input_limit, policy, drop_policy=drop_policy
    )


@dataclass
class DriveStats:
    """Raw outcome of :func:`drive`: latency samples plus work done."""

    latency: LatencyRecorder
    completed: int
    service_cycles: float


def drive(
    scheduler: Scheduler,
    arrivals: list[tuple[float, Message]],
    flush_period_cycles: float | None = None,
    engine: str = "scalar",
) -> DriveStats:
    """Drive any bound scheduler with timestamped messages.

    The scheduler's CPU is the clock: messages whose arrival time (in
    seconds) has passed are admitted before each service step, and each
    completion's latency is measured in CPU cycles.  Works for any
    stack — the synthetic five-layer benchmark, the byte-level TCP
    stack, or the signalling switch — as long as the scheduler carries
    a :class:`~repro.core.binding.MachineBinding`.

    With a :mod:`repro.obs` recorder installed, every scheduler service
    step is a span on the ``scheduler`` track and every admission or
    drop an instant event, all on the CPU-cycle clock; the per-layer
    spans inside a step come from
    :meth:`~repro.core.binding.MachineBinding.charge`.

    ``flush_period_cycles`` injects periodic cold-cache faults: after
    any service step that crosses a period boundary both caches are
    flushed, modelling interrupts or context switches polluting the
    cache mid-run (statistics are preserved, so the extra misses show
    up in the results — that is the point).

    ``engine`` selects the drive loop: ``"scalar"`` is this module's
    reference loop; ``"vec"`` replays service steps through the
    batch/columnar engine (:mod:`repro.sim.vec`), which is bit-identical
    where supported and silently falls back to the scalar loop where
    not (stateful layers, L2 hierarchies, self-conflicting placements,
    span-keeping recorders).
    """
    binding = scheduler.binding
    if binding is None:
        raise ConfigurationError("drive() needs a machine-bound scheduler")
    if flush_period_cycles is not None and flush_period_cycles <= 0:
        raise ConfigurationError("cache-flush period must be positive")
    if engine not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    if engine == "vec":
        from .vec import try_drive_vec

        outcome = try_drive_vec(scheduler, arrivals, flush_period_cycles)
        if outcome is not None:
            return outcome
    recorder = active_recorder()
    cpu = binding.cpu
    clock = cpu.clock
    next_flush = flush_period_cycles
    pending = [
        (clock.seconds_to_cycles(time), message) for time, message in arrivals
    ]
    latency = LatencyRecorder()
    index = 0
    completed = 0
    service_cycles = 0.0
    while index < len(pending) or scheduler.busy:
        if not scheduler.busy:
            if index >= len(pending):
                break
            cpu.advance_to_cycle(pending[index][0])
        while index < len(pending) and pending[index][0] <= cpu.cycles:
            cycle, message = pending[index]
            message.meta["arrival_cycle"] = cycle
            drops_before = scheduler.drops
            scheduler.enqueue_arrival(message)
            if recorder is not None:
                recorder.count("messages.arrivals")
                lost = scheduler.drops - drops_before
                if lost:
                    # Tail drop loses the new message; head drop evicts
                    # older queued ones — either way, count every loss.
                    recorder.count("messages.drops", float(lost))
                    recorder.instant(
                        "scheduler", "drop", cpu.cycles, size=message.size
                    )
            index += 1
        if scheduler.busy:
            before = cpu.cycles
            handle = (
                recorder.begin(
                    "scheduler",
                    "service_step",
                    cpu.cycles,
                    machine_counters(cpu),
                    pending_messages=scheduler.pending(),
                )
                if recorder is not None
                else None
            )
            completions = scheduler.service_step()
            if recorder is not None and handle is not None:
                handle.args["completions"] = len(completions)
                recorder.end(handle, cpu.cycles)
                recorder.count("scheduler.service_steps")
                recorder.count("messages.completions", float(len(completions)))
            for completion in completions:
                arrival_cycle = completion.message.meta.get("arrival_cycle")
                if arrival_cycle is None:
                    continue
                completed += 1
                latency.record(
                    clock.cycles_to_seconds(
                        completion.completion_cycle - arrival_cycle
                    )
                )
            service_cycles += cpu.cycles - before
            if next_flush is not None and cpu.cycles >= next_flush:
                cpu.cold_start()
                if recorder is not None:
                    recorder.count("faults.cache_flushes")
                    recorder.instant("scheduler", "cache_flush", cpu.cycles)
                while next_flush <= cpu.cycles:
                    next_flush += flush_period_cycles
    return DriveStats(
        latency=latency, completed=completed, service_cycles=service_cycles
    )


def run_simulation(
    source: TrafficSource,
    config: SimulationConfig | None = None,
    seed: int | np.random.Generator | None = 0,
    arrivals: list[Arrival] | None = None,
) -> RunResult:
    """Run one configuration against one traffic source.

    ``arrivals`` overrides the source's stream (used to replay the
    identical arrival sequence against several schedulers).
    """
    config = config or SimulationConfig()
    scheduler = build_scheduler(config, seed)
    assert scheduler.binding is not None

    stream = arrivals if arrivals is not None else source.arrival_list(config.duration)
    timestamped = [
        (a.time, Message(size=a.size, arrival_time=a.time)) for a in stream
    ]
    outcome = drive(
        scheduler,
        timestamped,
        flush_period_cycles=config.flush_period_cycles,
        engine=config.engine,
    )
    return assemble_run_result(scheduler, outcome, source, stream, config)


def assemble_run_result(
    scheduler: Scheduler,
    outcome: DriveStats,
    source: TrafficSource,
    stream: list[Arrival],
    config: SimulationConfig,
) -> RunResult:
    """Reduce one driven run to its :class:`RunResult`.

    Shared by :func:`run_simulation` and the flow-lookup runner
    (:mod:`repro.flows.runner`), so both report misses, cycles, and
    batching with exactly the same accounting.
    """
    binding = scheduler.binding
    assert binding is not None
    cpu = binding.cpu
    latency = outcome.latency
    completed = outcome.completed
    service_cycles = outcome.service_cycles

    imisses = cpu.icache_misses
    dmisses = cpu.dcache_misses
    # Explicit length checks: ``batch_sizes`` may be a numpy array from
    # a future scheduler (bare truthiness raises "truth value of an
    # array is ambiguous") and ``stream`` may be any sequence type.
    batch_sizes = getattr(scheduler, "batch_sizes", None)
    mean_batch = (
        float(np.mean(batch_sizes))
        if batch_sizes is not None and len(batch_sizes) > 0
        else 1.0
    )
    rate = getattr(source, "rate", None)
    if rate is None:
        rate = len(stream) / config.duration if len(stream) > 0 else 0.0
    divisor = max(completed, 1)
    return RunResult(
        scheduler=config.scheduler,
        arrival_rate=float(rate),
        offered=scheduler.arrivals,
        completed=completed,
        dropped=scheduler.drops,
        duration=config.duration,
        latency=latency.summary(),
        misses=MissesPerMessage(
            instruction=imisses / divisor, data=dmisses / divisor
        ),
        cycles_per_message=service_cycles / divisor,
        mean_batch_size=mean_batch,
    )


def run_averaged(
    source_factory,
    config: SimulationConfig,
    seeds: list[int],
) -> RunResult:
    """Average one configuration over several placement/traffic seeds.

    ``source_factory(seed)`` must return a fresh traffic source; the
    same seed also drives code placement, so each run is a different
    (placement, arrival-sequence) sample — the paper's methodology of
    "100 runs, each with a different random placement".
    """
    results = [
        run_simulation(source_factory(seed), config, seed=seed) for seed in seeds
    ]
    return merge_results(results)


def poisson_point(
    scheduler: str,
    rate: float,
    seeds: list[int],
    duration: float,
    message_size: int = 552,
    clock_mhz: float | None = None,
    buffer_size: int = 2048,
    engine: str = "vec",
) -> dict:
    """One (scheduler, rate) sweep point of the Section-4 benchmark.

    Module-level and fully determined by its arguments so harness
    workers can execute it in parallel (it pickles by dotted name) and
    the result cache can key it by content hash.  Returns the averaged
    :class:`RunResult` in JSON-serializable form.  ``engine`` selects
    the drive loop (results are engine-invariant; only speed differs).
    """
    spec = MachineSpec() if clock_mhz is None else MachineSpec(clock_hz=clock_mhz * 1e6)
    config = SimulationConfig(
        scheduler=scheduler,
        duration=duration,
        spec=spec,
        buffer_size=buffer_size,
        engine=engine,
    )
    result = run_averaged(
        lambda seed: PoissonSource(rate, size=message_size, rng=seed),
        config,
        list(seeds),
    )
    return result.to_dict()


@dataclass(frozen=True)
class ComparisonResult:
    """Conventional vs LDLP (and optionally ILP) at one operating point."""

    results: dict[str, RunResult]

    def __getitem__(self, name: str) -> RunResult:
        return self.results[name]

    def speedup(self, baseline: str = "conventional", improved: str = "ldlp") -> float:
        """Ratio of per-message service cost, baseline over improved."""
        base = self.results[baseline].cycles_per_message
        new = self.results[improved].cycles_per_message
        if new <= 0:
            return float("nan")
        return base / new

    def summary(self) -> str:
        """Per-scheduler reporting lines plus the LDLP speedup ratio."""
        lines = [result.summary() for result in self.results.values()]
        lines.append(f"LDLP speedup over conventional: {self.speedup():.2f}x")
        return "\n".join(lines)


def compare_schedulers(
    arrival_rate: float = 8000.0,
    message_size: int = 552,
    duration: float = 0.2,
    seed: int = 0,
    schedulers: tuple[str, ...] = ("conventional", "ldlp"),
    config: SimulationConfig | None = None,
) -> ComparisonResult:
    """Run several schedulers against the *same* arrival sequence."""
    base = config or SimulationConfig(duration=duration)
    source = PoissonSource(arrival_rate, size=message_size, rng=seed)
    arrivals = source.arrival_list(base.duration)
    results = {}
    for name in schedulers:
        results[name] = run_simulation(
            source,
            base.with_scheduler(name),
            seed=seed,
            arrivals=arrivals,
        )
    return ComparisonResult(results)
