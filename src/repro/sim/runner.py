"""The Section-4 synthetic benchmark: traffic → stack → scheduler → stats.

This is the harness behind Figures 5, 6 and 7.  The CPU is the clock:
arrivals are converted to cycle timestamps, the scheduler consumes work
and advances the CPU, and message latency is completion cycle minus
arrival cycle.

Paper parameters (all defaults here): five layers of 6 KB code / 256 B
data / 1652 cycles per 552-byte message; 100 MHz CPU; 8 KB direct-mapped
I and D caches; 20-cycle read-miss stall; 500-packet input buffer;
results averaged over runs with different random code placements.

The same runner drives the multi-core machine: with ``num_cores`` > 1
a receive-side dispatch stage (:mod:`repro.core.dispatch`) steers each
arrival onto one of N cores, each running its own scheduler over
private I/D caches (optionally behind one shared L2).  There is one
drive loop (:func:`drive`) for every core count and both engines; a
single-core run is simply the N=1 case without a dispatch policy.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from ..cache.hierarchy import CacheGeometry, MachineSpec
from ..core.batching import BatchPolicy
from ..core.binding import MachineBinding
from ..core.dispatch import (
    APP_CLASS_KEY,
    DISPATCH_POLICIES,
    FLOW_KEY,
    DispatchPolicy,
    make_dispatch_policy,
)
from ..core.layer import Layer, LayerFootprint, Message, PassthroughLayer
from ..core.overload import DROP_POLICIES, make_drop_policy
from ..core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
    Scheduler,
)
from ..errors import ConfigurationError, SimulationError
from ..machine.multicore import MultiCoreSpec
from ..obs.runtime import active_recorder, machine_counters, span_recorder
from ..traffic.base import Arrival, TrafficSource
from ..traffic.poisson import PoissonSource
from .stats import (
    LatencyRecorder,
    MissesPerMessage,
    RunResult,
    merge_results,
)

#: One service step of one core: (message, completion cycle) pairs in
#: completion order.
Stepper = Callable[[], list[tuple[Message, float]]]

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

    The machine topology and dispatch stage:

    ``num_cores`` / ``shared_l2``
        Core count and an optional second-level cache shared by every
        core (see :class:`repro.machine.multicore.MultiCoreSpec`).
    ``dispatch``
        Dispatch-policy registry name
        (:data:`repro.core.dispatch.DISPATCH_POLICIES`), required with
        more than one core.  ``None`` runs the single-core benchmark.
    ``num_flows`` / ``app_classes``
        The traffic structure a dispatcher keys on: arrivals are tagged
        with a deterministic flow id in ``0..num_flows-1`` and a decoded
        application class ``flow % app_classes`` (:func:`tag_flows`).
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
    num_cores: int = 1
    dispatch: str | None = None
    num_flows: int = 64
    app_classes: int = 8
    shared_l2: CacheGeometry | None = None

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
        if self.dispatch is not None and self.dispatch not in DISPATCH_POLICIES:
            raise ConfigurationError(
                f"unknown dispatch policy {self.dispatch!r}; expected one "
                f"of {tuple(sorted(DISPATCH_POLICIES))}"
            )
        if self.num_flows < 1:
            raise ConfigurationError("num_flows must be >= 1")
        if self.app_classes < 1:
            raise ConfigurationError("app_classes must be >= 1")
        if self.num_cores != 1 or self.shared_l2 is not None:
            # Topology validation (core count, shared-L2 geometry).
            MultiCoreSpec(self.num_cores, self.spec, self.shared_l2)
        if self.num_cores > 1 and self.dispatch is None:
            raise ConfigurationError("a multi-core run needs a dispatch policy")

    def with_scheduler(self, scheduler: str) -> "SimulationConfig":
        """This config with only the scheduler swapped."""
        return replace(self, scheduler=scheduler)


def build_scheduler(config: SimulationConfig, seed) -> Scheduler:
    """Build one machine-bound scheduler from a config and placement seed.

    :func:`build_cores` builds every core with this exact constructor,
    which is what makes a one-core dispatched run bit-identical to the
    single-core benchmark.
    """
    spec = config.spec
    if config.shared_l2 is not None:
        # The core charges two-level penalties; build_cores then rewires
        # its L2 state to the one instance every core shares.
        spec = replace(spec, l2=config.shared_l2)
    layers = build_paper_stack(
        config.num_layers,
        config.layer_code_bytes,
        config.layer_data_bytes,
        config.layer_base_cycles,
        config.layer_per_byte_cycles,
    )
    binding = MachineBinding(
        spec=spec,
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
        else BatchPolicy.from_machine(spec)
    )
    if config.scheduler == "grouped":
        return GroupedLDLPScheduler(
            layers, binding, config.input_limit, policy, drop_policy=drop_policy
        )
    return LDLPScheduler(
        layers, binding, config.input_limit, policy, drop_policy=drop_policy
    )


def core_seed(seed, core: int):
    """The placement seed of one core.

    Core 0 uses ``seed`` verbatim — the single-core equivalence anchor —
    and higher cores derive distinct deterministic seeds (CRC-mixed, no
    process entropy), so an N-core run samples N independent random code
    placements, the paper's averaging methodology applied per core.
    """
    if core == 0:
        return seed
    return zlib.crc32(f"core:{seed}:{core}".encode("utf-8"))


def build_cores(config: SimulationConfig, seed) -> list[Scheduler]:
    """Build one machine-bound scheduler per core.

    Each core reuses :func:`build_scheduler` with its own placement
    seed (:func:`core_seed`); with a shared L2 configured, every core's
    hierarchy is then rewired to probe one shared cache instance.
    """
    cores = [
        build_scheduler(config, core_seed(seed, index))
        for index in range(config.num_cores)
    ]
    if config.shared_l2 is not None:
        shared = config.shared_l2.build()
        for scheduler in cores:
            assert scheduler.binding is not None
            scheduler.binding.cpu.hierarchy.l2 = shared
    return cores


def tag_flows(
    messages: list[tuple[float, Message]],
    seed,
    num_flows: int,
    app_classes: int,
) -> None:
    """Tag each message with its flow id and decoded application class.

    The flow id is a CRC mix of (seed, arrival index) modulo
    ``num_flows`` — deterministic, PYTHONHASHSEED-independent — and the
    application class is ``flow % app_classes``, modeling many flows
    multiplexed over fewer application-level services.  Dispatch
    policies key on these meta fields (:data:`~repro.core.dispatch.FLOW_KEY`,
    :data:`~repro.core.dispatch.APP_CLASS_KEY`).
    """
    for index, (_, message) in enumerate(messages):
        flow = zlib.crc32(f"flow:{seed}:{index}".encode("utf-8")) % num_flows
        message.meta[FLOW_KEY] = int(flow)
        message.meta[APP_CLASS_KEY] = int(flow % app_classes)


@dataclass
class DriveStats:
    """Raw outcome of :func:`drive`: latency samples plus per-core work.

    The per-core lists are in core order; a single-core drive has one
    entry in each.
    """

    latency: LatencyRecorder
    completed_per_core: list[int]
    service_cycles_per_core: list[float]
    dispatched_per_core: list[int]

    @property
    def completed(self) -> int:
        """Completions of arrival-stamped messages, over every core."""
        return sum(self.completed_per_core)

    @property
    def service_cycles(self) -> float:
        """CPU cycles spent in service steps, over every core."""
        return sum(self.service_cycles_per_core)


def _scalar_stepper(scheduler: Scheduler) -> Stepper:
    """Adapt the scheduler's own ``service_step`` to the stepper shape."""

    def step() -> list[tuple[Message, float]]:
        return [
            (completion.message, completion.completion_cycle)
            for completion in scheduler.service_step()
        ]

    return step


def _stepper(scheduler: Scheduler, engine: str) -> Stepper:
    """The service step one core runs under ``engine``.

    ``"vec"`` asks the vectorized engine (:func:`repro.sim.vec.vec_stepper`)
    and falls back to the scalar step where it declines.  The returned
    callable is the only reference to a vec engine, so the engines live
    exactly as long as the drive call that holds them.
    """
    if engine == "vec":
        from . import vec

        stepper = vec.vec_stepper(scheduler)
        if stepper is not None:
            return stepper
    return _scalar_stepper(scheduler)


def drive(
    cores: Scheduler | list[Scheduler],
    arrivals: list[tuple[float, Message]],
    flush_period_cycles: float | None = None,
    engine: str = "scalar",
    dispatch: DispatchPolicy | None = None,
) -> DriveStats:
    """Drive bound schedulers (one per core) with timestamped messages.

    Each core's CPU is its clock.  The loop is a deterministic event
    merge: the busy core with the lowest cycle count (ties broken by
    core index) steps next, and every arrival at or before that cycle
    is admitted first — dispatched to a core by ``dispatch``, then
    offered to that core's drop policy.  An admission that wakes an
    idle core advances its clock to the arrival.  Each completion's
    latency is measured in CPU cycles.  Works for any stack — the
    synthetic five-layer benchmark, the byte-level TCP stack, or the
    signalling switch — as long as each scheduler carries a
    :class:`~repro.core.binding.MachineBinding`.

    ``cores`` is one scheduler or a list; more than one core needs a
    ``dispatch`` policy.  Without one every arrival goes to core 0.

    With a :mod:`repro.obs` recorder installed, the call counts
    arrivals, drops, service steps and completions (plus, with a
    dispatch policy, assignments and drops per core as
    ``dispatch.core{i}.*``).  The counts are tallied as ints and added
    once when the call returns, each only when non-zero, which gives
    the same float totals as counting every event (integer-valued
    floats below 2**53 add exactly).  Spans and instants are emitted
    only for a span-keeping recorder
    (:func:`~repro.obs.runtime.span_recorder`): every service step is
    then a span with machine counters attached and every dispatch, drop
    and cache flush an instant, all on the CPU-cycle clock; the
    per-layer spans inside a step come from
    :meth:`~repro.core.binding.MachineBinding.charge`.  Without a
    dispatch policy the track is ``scheduler``; with one it is
    ``core{i}/scheduler``, and dispatches go on the ``dispatch`` track.

    ``flush_period_cycles`` injects periodic cold-cache faults: after
    any service step that crosses a period boundary of its core, that
    core's caches are flushed, modelling interrupts or context switches
    polluting the cache mid-run (statistics are preserved, so the extra
    misses show up in the results — that is the point).

    ``engine`` selects each core's service step: ``"scalar"`` is the
    scheduler's own reference ``service_step``; ``"vec"`` replays
    service steps through the batch/columnar engine
    (:mod:`repro.sim.vec`), which is bit-identical where supported and
    silently falls back to the scalar step where not (stateful layers,
    L2 hierarchies, self-conflicting placements, span-keeping
    recorders).
    """
    if isinstance(cores, Scheduler):
        cores = [cores]
    if not cores:
        raise ConfigurationError("drive() needs at least one core")
    for scheduler in cores:
        if scheduler.binding is None:
            raise ConfigurationError("drive() needs machine-bound schedulers")
    if len(cores) > 1 and dispatch is None:
        raise ConfigurationError("drive() needs a dispatch policy for several cores")
    if flush_period_cycles is not None and flush_period_cycles <= 0:
        raise ConfigurationError("cache-flush period must be positive")
    if engine not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    recorder = active_recorder()
    spans = span_recorder()
    num_cores = len(cores)
    cpus = [scheduler.binding.cpu for scheduler in cores]  # type: ignore[union-attr]
    steppers = [_stepper(scheduler, engine) for scheduler in cores]
    if dispatch is None:
        tracks = ["scheduler"]
    else:
        tracks = [f"core{index}/scheduler" for index in range(num_cores)]
    clock = cpus[0].clock
    cycles = [clock.seconds_to_cycles(time) for time, _ in arrivals]
    total = len(arrivals)
    next_flush = [flush_period_cycles] * num_cores
    latency = LatencyRecorder()
    completed = [0] * num_cores
    service = [0.0] * num_cores
    dispatched = [0] * num_cores
    dropped = [0] * num_cores
    steps = 0
    finished = 0
    awake = [False] * num_cores
    index = 0
    while True:
        core = -1
        bound = math.inf
        for candidate in range(num_cores):
            awake[candidate] = busy = cores[candidate].busy
            if busy and cpus[candidate].cycles < bound:
                core, bound = candidate, cpus[candidate].cycles
        # Admit every arrival at or before the next service step.  Only
        # an admission that wakes an idle core can move that step
        # earlier (drop policies never empty a busy core's queue, so a
        # core stays awake until it steps).
        while index < total and cycles[index] <= bound:
            cycle = cycles[index]
            message = arrivals[index][1]
            target = 0
            if dispatch is not None:
                target = dispatch.select(message, num_cores) % num_cores
            scheduler = cores[target]
            cpu = cpus[target]
            idle = not awake[target]
            if idle:
                cpu.advance_to_cycle(cycle)
            message.meta["arrival_cycle"] = cycle
            drops_before = scheduler.drops
            scheduler.enqueue_arrival(message)
            dispatched[target] += 1
            # Tail drop loses the new message; head drop evicts older
            # queued ones — either way, count every loss.
            lost = scheduler.drops - drops_before
            dropped[target] += lost
            if spans is not None:
                if dispatch is not None:
                    spans.instant(
                        "dispatch", dispatch.name, cycle,
                        core=target, size=message.size,
                    )
                if lost:
                    spans.instant(
                        tracks[target], "drop", cpu.cycles, size=message.size
                    )
            index += 1
            if idle and scheduler.busy:
                awake[target] = True
                if cpu.cycles < bound or (cpu.cycles == bound and target < core):
                    core, bound = target, cpu.cycles
        if core < 0:
            break
        scheduler = cores[core]
        cpu = cpus[core]
        before = cpu.cycles
        if spans is None:
            completions = steppers[core]()
        else:
            handle = spans.begin(
                tracks[core],
                "service_step",
                before,
                machine_counters(cpu),
                pending_messages=scheduler.pending(),
            )
            completions = steppers[core]()
            handle.args["completions"] = len(completions)
            spans.end(handle, cpu.cycles)
        steps += 1
        finished += len(completions)
        for message, completion_cycle in completions:
            arrival_cycle = message.meta.get("arrival_cycle")
            if arrival_cycle is None:
                continue
            completed[core] += 1
            latency.record(clock.cycles_to_seconds(completion_cycle - arrival_cycle))
        service[core] += cpu.cycles - before
        flush_at = next_flush[core]
        if flush_at is not None and cpu.cycles >= flush_at:
            cpu.cold_start()
            if recorder is not None:
                recorder.count("faults.cache_flushes")
            if spans is not None:
                spans.instant(tracks[core], "cache_flush", cpu.cycles)
            while flush_at <= cpu.cycles:
                flush_at += flush_period_cycles  # type: ignore[operator]
            next_flush[core] = flush_at
    if recorder is not None:
        tallies = {
            "messages.arrivals": sum(dispatched),
            "messages.drops": sum(dropped),
            "scheduler.service_steps": steps,
        }
        if dispatch is not None:
            for target in range(num_cores):
                tallies[f"dispatch.core{target}.assigned"] = dispatched[target]
                tallies[f"dispatch.core{target}.drops"] = dropped[target]
        for name, value in tallies.items():
            if value:
                recorder.count(name, float(value))
        if steps:
            # Counted per step, so present (maybe 0) once any step ran.
            recorder.count("messages.completions", float(finished))
    return DriveStats(
        latency=latency,
        completed_per_core=completed,
        service_cycles_per_core=service,
        dispatched_per_core=dispatched,
    )


def simulate(
    source: TrafficSource,
    config: SimulationConfig,
    seed=0,
    arrivals: list[Arrival] | None = None,
    tag: Callable[[Arrival, Message], None] | None = None,
    flow_cache: Any = None,
) -> tuple[RunResult, list[Scheduler], DriveStats]:
    """Build the cores, drive one arrival stream through them, assemble.

    The shared body of every runner: ``tag(arrival, message)`` lets a
    workload tag each message (flow, message kind) before the drive;
    ``flow_cache`` (a :class:`repro.flows.lookup.FlowCacheSpec`, or
    anything whose ``build()`` returns a fresh lookup cache) attaches a
    route/PCB lookup cache to every core; a configured dispatch policy
    tags flows (:func:`tag_flows`) and steers arrivals.  ``arrivals``
    overrides the source's stream.  Returns the assembled result plus
    the driven cores and raw drive outcome, for per-core and per-lookup
    accounting.
    """
    cores = build_cores(config, seed)
    if flow_cache is not None:
        for scheduler in cores:
            assert scheduler.binding is not None
            scheduler.binding.flow_lookup = flow_cache.build()
    stream = arrivals if arrivals is not None else source.arrival_list(config.duration)
    timestamped = [
        (arrival.time, Message(size=arrival.size, arrival_time=arrival.time))
        for arrival in stream
    ]
    if tag is not None:
        for arrival, (_, message) in zip(stream, timestamped):
            tag(arrival, message)
    dispatch = None
    if config.dispatch is not None:
        dispatch = make_dispatch_policy(config.dispatch)
        tag_flows(timestamped, seed, config.num_flows, config.app_classes)
    outcome = drive(
        cores,
        timestamped,
        flush_period_cycles=config.flush_period_cycles,
        engine=config.engine,
        dispatch=dispatch,
    )
    return assemble_run_result(cores, outcome, source, stream, config), cores, outcome


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
    return simulate(source, config or SimulationConfig(), seed, arrivals)[0]


def assemble_run_result(
    cores: list[Scheduler],
    outcome: DriveStats,
    source: TrafficSource,
    stream: list[Arrival],
    config: SimulationConfig,
) -> RunResult:
    """Reduce one driven run to its :class:`RunResult`.

    The one place a run's accounting happens: misses, batch sizes,
    offered and dropped are summed over the cores, and misses and
    service cycles are divided by total completions — so a one-core run
    reports exactly what the single-core benchmark reports.

    It is also the one place message conservation is enforced: a core
    whose ``arrivals != completed + drops`` raises
    :class:`~repro.errors.SimulationError`.  Not in :func:`drive`, whose
    byte-level stacks may complete several outputs per input.
    """
    for index, scheduler in enumerate(cores):
        done = outcome.completed_per_core[index]
        if scheduler.arrivals != done + scheduler.drops:
            raise SimulationError(
                f"core {index} broke message conservation: "
                f"offered={scheduler.arrivals} != completed={done} + "
                f"dropped={scheduler.drops}"
            )
    completed = outcome.completed
    cpus = [scheduler.binding.cpu for scheduler in cores]  # type: ignore[union-attr]
    imisses = sum(cpu.icache_misses for cpu in cpus)
    dmisses = sum(cpu.dcache_misses for cpu in cpus)
    batch_sizes = [
        size
        for scheduler in cores
        for size in getattr(scheduler, "batch_sizes", ())
    ]
    mean_batch = float(np.mean(batch_sizes)) if len(batch_sizes) > 0 else 1.0
    # Explicit length check: ``stream`` may be any sequence type.
    rate = getattr(source, "rate", None)
    if rate is None:
        rate = len(stream) / config.duration if len(stream) > 0 else 0.0
    divisor = max(completed, 1)
    return RunResult(
        scheduler=config.scheduler,
        arrival_rate=float(rate),
        offered=sum(scheduler.arrivals for scheduler in cores),
        completed=completed,
        dropped=sum(scheduler.drops for scheduler in cores),
        duration=config.duration,
        latency=outcome.latency.summary(),
        misses=MissesPerMessage(
            instruction=imisses / divisor, data=dmisses / divisor
        ),
        cycles_per_message=outcome.service_cycles / divisor,
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
