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
drive loop for every core count and both engines; a single-core run is
simply the N=1 case without a dispatch policy, and :func:`drive` runs
each core of an uncoupled multi-core run through it on its own.
"""

from __future__ import annotations

import math
import zlib
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from itertools import islice
from operator import le
from typing import Any, Callable, Sequence

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
from ..core.layer import (
    Layer,
    LayerFootprint,
    Message,
    PassthroughLayer,
    arrival_messages,
)
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
from ..traffic.base import ArrivalColumns, TrafficSource, check_positive
from ..traffic.poisson import PoissonSource
from .stats import (
    LatencyRecorder,
    MissesPerMessage,
    RunResult,
    merge_results,
)

#: (message, completion cycle) pairs in completion order.
Completions = list[tuple[Message, float]]

#: One service step of one core: the step's completions, then the
#: one-message steps it replayed after it (conventional/ILP on the vec
#: engine), one pair per step, whose messages are still queued for
#: :func:`drive` to pop and settle.
Stepper = Callable[[], tuple[Completions, Completions]]

@dataclass(frozen=True, slots=True)
class AdmitAhead:
    """The drive loop's early admission for a core it drives on its own
    with no flush period (see :func:`drive`, "Run-ahead").

    Calling it with ``count`` admits the core's next ``count`` arrivals
    now, or none when fewer are left or the queue would then hold more
    than its input limit, and returns whether it did.
    :attr:`upcoming` shows the arrivals to come first.
    """

    #: ``admit(count)``: what calling the hook does.
    admit: Callable[[int], bool]
    #: ``upcoming(count)``: the core's next ``count`` arrivals, stamped
    #: with their arrival cycles, without admitting them (fewer at the
    #: stream's end).
    upcoming: Callable[[int], list[Message]]

    def __call__(self, count: int) -> bool:
        """``admit(count)``."""
        return self.admit(count)


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
        check_positive(self.duration, "duration")
        if self.drop_policy not in DROP_POLICIES:
            raise ConfigurationError(
                f"unknown drop policy {self.drop_policy!r}; expected one of "
                f"{tuple(sorted(DROP_POLICIES))}"
            )
        _check_flush_period(self.flush_period_cycles)
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
    # None lets the constructor derive the cap from binding.spec.
    policy = (
        BatchPolicy(config.batch_limit) if config.batch_limit is not None else None
    )
    batched = GroupedLDLPScheduler if config.scheduler == "grouped" else LDLPScheduler
    return batched(
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
    # CRC-32 extends: crc32(suffix, crc32(prefix)) == crc32(prefix + suffix),
    # so the constant prefix is hashed once per run.
    prefix = zlib.crc32(f"flow:{seed}:".encode("utf-8"))
    for index, (_, message) in enumerate(messages):
        flow = zlib.crc32(str(index).encode("utf-8"), prefix) % num_flows
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

    def step() -> tuple[Completions, Completions]:
        """One scalar service step's completions; it replays none ahead."""
        completions = [
            (completion.message, completion.completion_cycle)
            for completion in scheduler.service_step()
        ]
        return completions, []

    return step


def _stepper(
    scheduler: Scheduler,
    engine: str,
    admit_ahead: Callable[[int], bool] | None,
) -> Stepper:
    """The service step one core runs under ``engine``.

    ``"vec"`` asks the vectorized engine (:func:`repro.sim.vec.vec_stepper`)
    and falls back to the scalar step where it declines.  ``admit_ahead``
    is the drive loop's early admission (:class:`AdmitAhead`):
    ``admit_ahead(count)`` admits the core's next ``count`` arrivals
    now, or none, and says which.  Given one, the engine may replay
    several conventional/ILP steps, or several LDLP/grouped steps of one
    message, at once (see :func:`drive`).  The returned
    callable is the only reference to a vec engine, so the engines and
    their state memos live exactly as long as the drive call that holds
    them; what they compile stays in the vec engine's byte-bounded
    table store for later engines with equal inputs.
    """
    if engine == "vec":
        from . import vec

        stepper = vec.vec_stepper(scheduler, admit_ahead)
        if stepper is not None:
            return stepper
    return _scalar_stepper(scheduler)


def _check_flush_period(period: float | None) -> None:
    """Reject a flush period that is not positive and finite (NaN never flushes)."""
    if period is not None:
        check_positive(period, "cache-flush period")


def drive(
    cores: Scheduler | list[Scheduler],
    arrivals: list[tuple[float, Message]],
    flush_period_cycles: float | None = None,
    engine: str = "scalar",
    dispatch: DispatchPolicy | None = None,
) -> DriveStats:
    """Drive bound schedulers (one per core) with timestamped messages.

    Each core's CPU is its clock.  A core steps after exactly its own
    arrivals at or before the step's start cycle are admitted, each
    dispatched to a core by ``dispatch`` and then offered to that core's
    drop policy.  An admission that wakes an idle core advances its
    clock to the arrival.  Each completion's latency is measured in CPU
    cycles.  Works for any stack — the synthetic five-layer benchmark,
    the byte-level TCP stack, or the signalling switch — as long as each
    scheduler carries a :class:`~repro.core.binding.MachineBinding`.

    ``cores`` is one scheduler or a list; more than one core needs a
    ``dispatch`` policy.  Without one every arrival goes to core 0.

    *Two ways to run several cores.*  Cores with an L2 (a multi-core
    run's L2 is shared by every core), a run under a span-keeping
    recorder (whose spans and instants interleave on one clock) and
    arrivals out of time order go through one deterministic event merge
    (:func:`_event_merge`): the busy core with the lowest cycle count
    (ties broken by core index) steps next, and every arrival at or
    before that cycle is admitted first.  Otherwise, with a dispatch
    policy, the call runs ``dispatch.select`` once per arrival,
    in arrival order, before any core steps, and drives each core's own
    arrival stream through the one-core loop, bulk admission and
    multi-step replay included; one stable sort on (step start cycle,
    core index) then merges the cores' latency samples, a step replayed
    ahead starting at the previous step's completion.  This is exact:

    * without an L2, cores share no state;
    * ``select(message, num_cores)`` sees only the message and the
      policy's own earlier selections, no core state;
    * in both loops a core steps after exactly its own arrivals at or
      before the step's start cycle, and an arrival that wakes an idle
      core moves that core's clock;
    * the event merge steps the cores in (start cycle, core index)
      order, ties going to the lower index, so the sort reproduces its
      sample order, and with it the float ``mean`` and every digest;
    * each obs counter gets the same total (``messages.*``,
      ``scheduler.service_steps``, ``dispatch.core{i}.assigned/drops``,
      ``faults.cache_flushes``): they are integer-valued floats, whose
      sums are exact.  A core's drops are those of its own drive, not
      :attr:`Scheduler.drops <repro.core.scheduler.Scheduler.drops>`,
      which spans earlier calls.

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

    Admission and settlement are per window, not per message, where
    that cannot change an outcome.  Every message of ``arrivals`` is
    stamped with its arrival cycle (:attr:`Message.arrival_cycle
    <repro.core.layer.Message.arrival_cycle>`); only stamped messages
    count as completions, so a message a byte-level layer creates does
    not.  Every admission goes through
    :meth:`~repro.core.scheduler.Scheduler.enqueue_arrivals`.  A core
    driven on its own (one core without a dispatch policy, or each core
    of the per-core path) admits a busy core's window of arrivals up to
    its next step with one ``bisect`` over the arrival cycles and one
    admission call; an arrival that wakes an idle core is admitted
    alone, as in the event merge, where every arrival is.

    *Run-ahead.*  Without a flush period, such a core's vec
    conventional/ILP step replays :data:`repro.sim.vec.MAX_STEPS`
    messages' steps at once, each replayed step's flow lookup (if the
    core has a lookup cache) already charged inside the replayed
    timeline.  The messages are the queued ones; when fewer than
    ``MAX_STEPS - 1`` are queued after the step's pop, the loop admits
    the next arrivals of the core's stream *ahead* of their time,
    exactly as many as fill the run, or none when the stream has fewer
    left or the queue would then hold more than its input limit (and
    the step runs alone).  A vec LDLP/grouped step that takes a batch
    of one and empties the queue reads the arrivals to come
    (:attr:`AdmitAhead.upcoming`) and replays the next steps that
    provably serve one message each, up to ``MAX_STEPS`` steps in all;
    the loop admits their messages ahead (the gate and its proof are
    :mod:`repro.sim.vec`'s "Light-load runs").  A step admitted ahead
    starts at the previous step's completion ``c_{j-1}``, or at its own
    arrival ``a_j`` when that is later and the core idled in between,
    so its start is ``max(c_{j-1}, a_j)``.  The loop settles the
    replayed steps as one block, with the outcome of settling them one
    by one as if each had run alone: it pops their messages (asserting
    queue order), adds each step's ``c_j - start_j`` to the service
    cycles in step order, gives the per-core merge each step's start
    and records the block's latencies in sample order with one call.
    When the queue has room for every arrival up to the last replayed
    completion, it admits them all first; otherwise, before popping
    each replayed step's message, it admits every arrival up to that
    step's start.  Admitting a conventional/ILP run ahead is exact (the
    argument is in :mod:`repro.sim.vec`'s "Multi-step replay"): under
    tail drop, the i-th message admitted ahead has at most
    ``q + i <= MAX_STEPS - 2`` messages ahead of it (q queued after the
    pop), as many as the scalar run can show it at its real arrival, so
    neither run drops it; the served sequence, the ring slots and the
    order of flow lookups are therefore unchanged; and a later arrival
    admitted before step j sees the same queue in both runs, because
    every message admitted ahead precedes it in time.
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
    _check_flush_period(flush_period_cycles)
    if engine not in ENGINE_NAMES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )
    num_cores = len(cores)
    cpus = [scheduler.binding.cpu for scheduler in cores]  # type: ignore[union-attr]
    hz = cpus[0].clock.hz
    messages = [message for _, message in arrivals]
    # Clock.seconds_to_cycles, stamped on each message for its latency.
    cycles = [time * hz for time, _ in arrivals]
    for message, cycle in zip(messages, cycles):
        message.arrival_cycle = cycle
    # A core driven on its own admits each window of arrivals in one
    # call; its end is a bisect, so the cycles must be in order.
    ordered = all(map(le, cycles, islice(cycles, 1, None)))
    if (
        dispatch is not None
        and ordered
        and span_recorder() is None
        and all(cpu.hierarchy.l2 is None for cpu in cpus)
    ):
        # The per-core path (see above): split, drive each core on its
        # own, merge.
        streams: list[tuple[list[Message], list[float]]] = [
            ([], []) for _ in cores
        ]
        for message, cycle in zip(messages, cycles):
            own = streams[dispatch.select(message, num_cores) % num_cores]
            own[0].append(message)
            own[1].append(cycle)
        starts: list[list[float]] = [[] for _ in cores]
        runs = [
            _event_merge(
                [scheduler], own_messages, own_cycles, hz, flush_period_cycles,
                engine, dispatch=None, ordered=True, starts=own_starts,
            )
            for scheduler, (own_messages, own_cycles), own_starts
            in zip(cores, streams, starts)
        ]
        samples = [sample for run in runs for sample in run.latency.samples]
        order = np.argsort(np.concatenate(starts), kind="stable")
        latency = LatencyRecorder()
        latency.extend(np.array(samples).take(order).tolist())
        outcome = _Outcome(
            latency,
            [run.completed[0] for run in runs],
            [run.service[0] for run in runs],
            [run.dispatched[0] for run in runs],
            [run.dropped[0] for run in runs],
            sum(run.steps for run in runs),
            sum(run.finished for run in runs),
        )
    else:
        outcome = _event_merge(
            cores, messages, cycles, hz, flush_period_cycles, engine, dispatch,
            ordered, starts=None,
        )
    recorder = active_recorder()
    if recorder is not None:
        tallies = {
            "messages.arrivals": sum(outcome.dispatched),
            "messages.drops": sum(outcome.dropped),
            "scheduler.service_steps": outcome.steps,
        }
        if dispatch is not None:
            for target in range(num_cores):
                tallies[f"dispatch.core{target}.assigned"] = outcome.dispatched[target]
                tallies[f"dispatch.core{target}.drops"] = outcome.dropped[target]
        for name, value in tallies.items():
            if value:
                recorder.count(name, float(value))
        if outcome.steps:
            # Counted per step, so present (maybe 0) once any step ran.
            recorder.count("messages.completions", float(outcome.finished))
    return DriveStats(
        latency=outcome.latency,
        completed_per_core=outcome.completed,
        service_cycles_per_core=outcome.service,
        dispatched_per_core=outcome.dispatched,
    )


@dataclass
class _Outcome:
    """What one :func:`_event_merge` call tallies: per-core lists in core
    order, plus the service steps and completions (stamped or not) over
    every core, for the obs tallies."""

    latency: LatencyRecorder
    completed: list[int]
    service: list[float]
    dispatched: list[int]
    dropped: list[int]
    steps: int
    finished: int


def _event_merge(
    cores: list[Scheduler],
    messages: list[Message],
    cycles: list[float],
    hz: float,
    flush_period_cycles: float | None,
    engine: str,
    dispatch: DispatchPolicy | None,
    ordered: bool,
    starts: list[float] | None,
) -> _Outcome:
    """The drive loop: step the busy core with the lowest cycle count
    (ties to the lower index) after admitting every arrival at or
    before that cycle.  ``messages`` are stamped; ``cycles`` are their
    arrival cycles, at ``hz`` cycles a second.  ``starts``, when given,
    receives each latency sample's step start cycle (see
    :func:`drive`)."""
    recorder = active_recorder()
    spans = span_recorder()
    num_cores = len(cores)
    cpus = [scheduler.binding.cpu for scheduler in cores]  # type: ignore[union-attr]
    # One core without a dispatch policy or spans admits each window of
    # arrivals in one call.
    bulk = num_cores == 1 and dispatch is None and spans is None and ordered
    if dispatch is None:
        tracks = ["scheduler"]
    else:
        tracks = [f"core{index}/scheduler" for index in range(num_cores)]
    total = len(messages)
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

    def admit_window(end: int) -> None:
        """Admit arrivals ``index..end-1`` to core 0 in one call."""
        nonlocal index
        dropped[0] += cores[0].enqueue_arrivals(messages[index:end])
        dispatched[0] += end - index
        index = end

    # Core 0's queue, where a core driven on its own replays and settles
    # several steps at once.
    queue = cores[0].input_queue
    input_limit = cores[0].input_limit

    def admit_ahead(count: int) -> bool:
        """Admit core 0's next ``count`` arrivals before their time, or
        none when fewer remain or the queue would hold more than its
        limit (see :func:`drive`); returns whether it did."""
        if total - index < count or len(queue) + count > input_limit:
            return False
        admit_window(index + count)
        return True

    def upcoming(count: int) -> list[Message]:
        """Core 0's next ``count`` arrivals, not admitted."""
        return messages[index : index + count]

    # Without a flush period, a core driven on its own may run ahead.
    ahead = (
        AdmitAhead(admit_ahead, upcoming)
        if bulk and flush_period_cycles is None
        else None
    )
    steppers = [_stepper(scheduler, engine, ahead) for scheduler in cores]
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
            if bulk and awake[0]:
                admit_window(bisect_right(cycles, bound, index))
                break
            cycle = cycles[index]
            message = messages[index]
            target = 0
            if dispatch is not None:
                target = dispatch.select(message, num_cores) % num_cores
            scheduler = cores[target]
            cpu = cpus[target]
            idle = not awake[target]
            if idle:
                cpu.advance_to_cycle(cycle)
            # Tail drop loses the new message; head drop evicts older
            # queued ones — either way, count every loss.
            lost = scheduler.enqueue_arrivals((message,))
            dispatched[target] += 1
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
            completions, replayed = steppers[core]()
        else:
            handle = spans.begin(
                tracks[core],
                "service_step",
                before,
                machine_counters(cpu),
                pending_messages=scheduler.pending(),
            )
            completions, replayed = steppers[core]()
            handle.args["completions"] = len(completions)
            spans.end(handle, cpu.cycles)
        # Each settled step's start and completion.
        opened = [before]
        ends = [cpu.cycles]
        if replayed:
            # Settle the replayed steps, whose messages are still queued,
            # as one block.  Step j >= 1 starts at step j - 1's
            # completion, or at its own arrival when it was admitted
            # ahead and arrived later (the core idles in between), and
            # runs after every arrival up to its start is admitted.  When
            # the queue has room for every arrival up to the last
            # completion (a multi-step core runs TailDrop), admitting
            # them all first changes nothing; otherwise each step's
            # window is admitted before its message leaves the queue.
            end = bisect_right(cycles, replayed[-1][1], index)
            fits = len(queue) + end - index <= input_limit
            if fits:
                admit_window(end)
            previous = ends[0] = completions[-1][1]
            for message, cycle in replayed:
                arrival = message.arrival_cycle
                start = previous if arrival is None or arrival <= previous else arrival
                if not fits:
                    admit_window(bisect_right(cycles, start, index))
                popped = queue.popleft()
                assert popped is message, "replayed step out of queue order"
                opened.append(start)
                ends.append(cycle)
                previous = cycle
            completions += replayed
        if starts is not None:
            # A replayed step has one completion.
            starts += [
                start
                for (message, _), start in zip(
                    completions, opened if replayed else opened * len(completions)
                )
                if message.arrival_cycle is not None
            ]
        # One service addition per settled step, in step order, so the
        # float sum is the step-by-step one.
        for start, end_cycle in zip(opened, ends):
            service[core] += end_cycle - start
        steps += len(ends)
        finished += len(completions)
        samples = [
            (cycle - arrival) / hz  # Clock.cycles_to_seconds
            for message, cycle in completions
            if (arrival := message.arrival_cycle) is not None
        ]
        completed[core] += len(samples)
        latency.extend(samples)
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
    return _Outcome(
        latency, completed, service, dispatched, dropped, steps, finished
    )


def _check_columns(columns: ArrivalColumns) -> None:
    """Raise :class:`ConfigurationError` unless every column has the same
    length, every time is finite and non-negative and every size is
    positive.  Whole-column reductions decide; only a failing stream is
    walked, to name its first bad value (a sum of finite times can
    overflow to infinity, so that walk may find nothing to reject)."""
    lengths = {name: len(column) for name, column in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ConfigurationError(f"arrival columns differ in length: {lengths}")
    times, sizes = columns["time"], columns["size"]
    if len(times) == 0:
        return
    if not (min(times) >= 0 and math.isfinite(sum(times))):
        for time in times:
            if not (math.isfinite(time) and time >= 0):
                raise ConfigurationError(
                    f"arrival time must be finite and non-negative: {time}"
                )
    if not min(sizes) > 0:
        size = next(size for size in sizes if not size > 0)
        raise ConfigurationError(f"arrival size must be positive: {size}")


def simulate(
    source: TrafficSource,
    config: SimulationConfig,
    seed=0,
    columns: ArrivalColumns | None = None,
    flow_cache: Any = None,
    metas: Sequence[dict[str, Any]] | None = None,
) -> tuple[RunResult, list[Scheduler], DriveStats]:
    """Build the cores, drive one arrival stream through them, assemble.

    The shared body of every runner.  The stream is ``columns``, or the
    source's own :meth:`~repro.traffic.base.TrafficSource.arrival_columns`
    over the configured duration, and :func:`_check_columns` checks it;
    every message is built from its ``"time"`` and ``"size"`` columns
    in one bulk call, starting with its entry of ``metas`` as its meta
    dict — how a workload tags each message (flow, message kind) before
    the drive.  ``flow_cache`` (a
    :class:`repro.flows.lookup.FlowCacheSpec`, or anything whose
    ``build()`` returns a fresh lookup cache) attaches a route/PCB
    lookup cache to every core; a configured dispatch policy tags flows
    (:func:`tag_flows`) and steers arrivals.  Returns the assembled
    result plus the driven cores and raw drive outcome, for per-core
    and per-lookup accounting.
    """
    cores = build_cores(config, seed)
    if flow_cache is not None:
        for scheduler in cores:
            assert scheduler.binding is not None
            scheduler.binding.flow_lookup = flow_cache.build()
    if columns is None:
        columns = source.arrival_columns(config.duration)
    _check_columns(columns)
    times = columns["time"]
    messages = arrival_messages(times, columns["size"], metas)
    timestamped = list(zip(times, messages))
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
    return assemble_run_result(cores, outcome, source, times, config), cores, outcome


def run_simulation(
    source: TrafficSource,
    config: SimulationConfig | None = None,
    seed: int | np.random.Generator | None = 0,
    columns: ArrivalColumns | None = None,
) -> RunResult:
    """Run one configuration against one traffic source.

    ``columns`` overrides the source's stream (used to replay the
    identical arrival sequence against several schedulers).
    """
    return simulate(source, config or SimulationConfig(), seed, columns)[0]


def assemble_run_result(
    cores: list[Scheduler],
    outcome: DriveStats,
    source: TrafficSource,
    times: Sequence[float],
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
    byte-level stacks may complete several outputs per input.  A source
    that declares no ``rate`` reports the offered stream's arrivals
    (``times``) per second of ``config.duration``.
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
    rate = getattr(source, "rate", None)
    if rate is None:
        rate = len(times) / config.duration
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
    columns = source.arrival_columns(base.duration)
    results = {}
    for name in schedulers:
        results[name] = run_simulation(
            source,
            base.with_scheduler(name),
            seed=seed,
            columns=columns,
        )
    return ComparisonResult(results)
