"""Differential harness: the vec engine must equal the scalar engine.

The vectorized drive loop (:mod:`repro.sim.vec`) is only allowed to be
*fast*; it is never allowed to be *different*.  These tests enforce the
contract at three levels:

* **ExperimentRun level** — every declared experiment at CI scale,
  executed once per engine through the real harness (no cache), must
  produce byte-identical canonical-JSON results, identical obs
  counters, and an intact drop/completion conservation balance; the
  results must match the checked-in ``goldens/*.ci.json`` digests and
  bear out every paper claim the spec declares, as ``regress`` checks.
* **Property level** — hypothesis fans random ``SimulationConfig``
  combinations (scheduler × drop policy × fault plan × seed) through
  both engines and compares results and counters, including
  flow-charged runs (:mod:`repro.flows`, :mod:`repro.gossip`), whose
  lookups the vec step charges at the scalar loop's point,
  dispatched multi-core runs, where each core picks its own engine
  (and uncoupled cores, each driven on its own, equal the event merge
  sample for sample), and conventional/ILP runs whose queued steps the
  vec engine replays several at a time (latency sample order
  included), with and without a flow lookup.
* **Degenerate-input level** — zero-length and length-1 arrival
  streams through every scheduler and drop policy (the PR 4
  ``len()``-truthiness bug class).

Plus the template compiler (shared, collapsed code plans; every batch
length's layout from one analysis per engine, equal to a per-length
build), the state memo (a memoized replay equals the cache model's,
across flushes and under a tiny state table; interning stops on
mixed-size traffic), the table store (a run through tables that
earlier drive calls compiled equals a fresh-store run and the scalar
run, over engines that differ in each part of the store's key) and the
engine-selection seams: config validation,
the static ``vec_supported`` envelope (code- and data-side conflicts,
against a per-array reference), and the silent scalar fallbacks.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.cache.chunked as chunked_module
import repro.sim.runner as runner_module
import repro.sim.vec as vec_module
from repro.cache.cache import DirectMappedCache
from repro.cache.chunked import FusedReplay, collapsed_plan, segment_rows
from repro.cache.hierarchy import CacheGeometry, MachineSpec, SplitCacheHierarchy
from repro.core.batching import BatchPolicy
from repro.core.binding import MachineBinding
from repro.core.dispatch import DISPATCH_POLICIES
from repro.core.layer import CountingLayer, LayerFootprint, Message, PassthroughLayer
from repro.core.overload import DROP_POLICIES
from repro.core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
)
from repro.errors import ConfigurationError
from repro.experiments.figure7 import clock_point
from repro.faults.campaigns import campaign_plan
from repro.flows import FLOW_CACHE_ORGS, FlowCacheSpec
from repro.flows.runner import (
    FlowRunResult,
    _flow_metas,
    make_flow_base,
    run_flow_simulation,
)
from repro.gossip import (
    FRAMING_MODES,
    GossipFleetSource,
    GossipFleetSpec,
    run_gossip_simulation,
)
from repro.harness.cache import ResultCache, canonical_json
from repro.harness.golden import check_claims, check_digests, load_golden, result_digests
from repro.harness.points import point_accepts, with_keyword
from repro.harness.registry import EXPERIMENT_MODULES, get_spec
from repro.harness.runner import run_experiment
from repro.obs.runtime import Recorder, recording
from repro.sim.runner import (
    ENGINE_NAMES,
    SCHEDULER_NAMES,
    SimulationConfig,
    build_paper_stack,
    build_scheduler,
    drive,
    poisson_point,
    run_simulation,
    simulate,
)
from repro.sim.multicore import run_multicore
from repro.sim.vec import vec_supported
from repro.traffic.base import Arrival, record_columns
from repro.traffic.poisson import PoissonSource
from repro.traffic.zipf import ZipfFlowSource

POLICY_NAMES = tuple(sorted(DROP_POLICIES))


def _run_both_engines(config, arrivals, seed, flow_cache=None, tagged=False):
    """One config on both engines under a metrics recorder; returns
    {engine: (canonical result JSON, counters dict, latency samples)}.
    With a ``flow_cache`` the result carries the lookup counters;
    ``tagged`` tags each message with its arrival's flow, as
    :func:`run_flow_simulation` does."""
    columns = record_columns(arrivals)
    return {
        engine: _run_engine(
            replace(config, engine=engine), columns, seed, flow_cache, tagged
        )
        for engine in ENGINE_NAMES
    }


def _run_engine(config, columns, seed, flow_cache, tagged):
    """One run of ``config`` (see :func:`_run_both_engines`)."""
    recorder = Recorder(keep_spans=False)
    with recording(recorder):
        result, cores, stats = simulate(
            PoissonSource(1000.0, rng=seed),
            config,
            seed=seed,
            columns=columns,
            flow_cache=flow_cache,
            metas=_flow_metas(columns) if tagged else None,
        )
    if flow_cache is not None:
        result = FlowRunResult.of(result, cores)
    return (
        canonical_json(result.to_dict()),
        recorder.counters.as_dict(),
        list(stats.latency._samples),
    )


@contextmanager
def _vec_steppers():
    """Record, per core of each drive call, the vec engine's stepper,
    or ``None`` where the core stepped scalar."""
    steppers: list = []
    original = vec_module.vec_stepper

    def spy(*args, **kwargs):
        stepper = original(*args, **kwargs)
        steppers.append(stepper)
        return stepper

    vec_module.vec_stepper = spy
    try:
        yield steppers
    finally:
        vec_module.vec_stepper = original


@contextmanager
def _drive_paths():
    """Record each drive call's outcome and the core count of every
    event-merge loop it ran: one loop over all N cores for the event
    merge, N loops of one core each for the per-core path."""
    outcomes: list = []
    loops: list[int] = []
    drive_original = runner_module.drive
    merge_original = runner_module._event_merge

    def drive_spy(*args, **kwargs):
        outcome = drive_original(*args, **kwargs)
        outcomes.append(outcome)
        return outcome

    def merge_spy(cores, *args, **kwargs):
        loops.append(len(cores))
        return merge_original(cores, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runner_module, "drive", drive_spy)
        patch.setattr(runner_module, "_event_merge", merge_spy)
        yield outcomes, loops


def _flow_charged_both_engines(run, config):
    """``run(config)`` on both engines under a metrics recorder; asserts
    the vec pass really ran vec and returns {engine: (json, counters)}."""
    outcomes = {}
    for engine in ENGINE_NAMES:
        recorder = Recorder(keep_spans=False)
        with recording(recorder), _vec_steppers() as steppers:
            result = run(replace(config, engine=engine))
        ran_vec = [stepper is not None for stepper in steppers]
        assert ran_vec == ([True] if engine == "vec" else [])
        outcomes[engine] = (
            canonical_json(result.to_dict()),
            recorder.counters.as_dict(),
        )
    return outcomes


# ----------------------------------------------------------------------
# ExperimentRun level: all declared experiments, both engines


#: The checked-in goldens ``regress`` gates against.
GOLDENS = Path(__file__).resolve().parents[1] / "goldens"


@pytest.mark.parametrize("name", sorted(EXPERIMENT_MODULES))
def test_experiment_byte_identical_across_engines(name):
    """Stats, counters, conservation balance, golden digests and paper
    claims at CI scale.

    At ``jobs=1`` every point runs in this process, so one recorder
    around the run totals the counters of all its points.
    """
    runs, totals = {}, {}
    for engine in ENGINE_NAMES:
        spec = with_keyword(get_spec(name), "engine", engine)
        recorder = Recorder(keep_spans=False)
        with recording(recorder):
            runs[engine] = run_experiment(
                spec, scale="ci", jobs=1, cache=ResultCache(enabled=False)
            )
        totals[engine] = recorder.counters.as_dict()
    assert result_digests(runs["scalar"].results) == result_digests(runs["vec"].results)
    assert totals["scalar"] == totals["vec"]
    vec = runs["vec"]
    golden = load_golden(name, "ci", root=GOLDENS)
    assert check_digests(name, golden, vec.results) == []
    assert check_claims(get_spec(name), vec.points, vec.results) == []
    assert get_spec(name).quantities(vec.points, vec.results) == golden.quantities
    counters = totals["vec"]
    if counters.get("messages.arrivals"):
        # Every simulated drive loop runs until the queue drains, so
        # arrivals must be fully accounted as completions + drops.
        assert counters["messages.arrivals"] == (
            counters.get("messages.completions", 0.0)
            + counters.get("messages.drops", 0.0)
        )


def test_engine_tagging_only_touches_sim_points():
    """with_keyword pins sim-backed points and leaves analytic ones."""
    faults = with_keyword(get_spec("faults"), "engine", "scalar").points_for("ci")
    assert all(point.params["engine"] == "scalar" for point in faults)
    table1 = get_spec("table1")
    assert [
        point.params
        for point in with_keyword(table1, "engine", "scalar").points_for("ci")
    ] == [point.params for point in table1.points_for("ci")]
    assert not any(
        point_accepts(point, "engine") for point in table1.points_for("ci")
    )


# ----------------------------------------------------------------------
# Property level: random configs through both engines


@settings(max_examples=20, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    policy=st.sampled_from(POLICY_NAMES),
    seed=st.integers(0, 2**20),
    rate=st.sampled_from([2000.0, 9000.0, 15000.0]),
    input_limit=st.sampled_from([4, 32, 500]),
    faulted=st.booleans(),
)
def test_random_config_equivalence(
    scheduler, policy, seed, rate, input_limit, faulted
):
    """scheduler × drop policy × fault plan × seed, scalar ≡ vec."""
    duration = 0.015
    flush = None
    source = PoissonSource(rate, rng=seed)
    arrivals = source.arrival_list(duration)
    if faulted:
        # The standard campaign plan: loss, duplication, reordering and
        # jitter (out-of-order timestamps!) plus periodic cache flushes.
        plan = campaign_plan()
        arrivals = plan.apply(arrivals, seed)
        flush = plan.flush_period_cycles
    config = SimulationConfig(
        scheduler=scheduler,
        drop_policy=policy,
        duration=duration,
        input_limit=input_limit,
        flush_period_cycles=flush,
    )
    outcomes = _run_both_engines(config, arrivals, seed)
    assert outcomes["scalar"] == outcomes["vec"]


@settings(max_examples=10, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    batch_limit=st.sampled_from([1, 3, 14]),
    buffer_size=st.sampled_from([1024, 2048]),
    prefetch=st.sampled_from([0.0, 0.3, 0.5]),
    seed=st.integers(0, 2**10),
)
def test_machine_variation_equivalence(
    scheduler, batch_limit, buffer_size, prefetch, seed
):
    """Machine-shape knobs that stress the template compiler: batch
    caps, buffer geometry, and the iprefetch rounding path."""
    config = SimulationConfig(
        scheduler=scheduler,
        duration=0.01,
        batch_limit=batch_limit,
        buffer_size=buffer_size,
        spec=MachineSpec(iprefetch_efficiency=prefetch),
    )
    arrivals = PoissonSource(9000.0, rng=seed).arrival_list(config.duration)
    outcomes = _run_both_engines(config, arrivals, seed)
    assert outcomes["scalar"] == outcomes["vec"]


@settings(max_examples=25, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    organization=st.sampled_from(sorted(FLOW_CACHE_ORGS)),
    base=st.sampled_from(["poisson", "bellcore"]),
    policy=st.sampled_from(POLICY_NAMES),
    faulted=st.booleans(),
    seed=st.integers(0, 2**10),
)
def test_flow_run_equivalence(scheduler, organization, base, policy, faulted, seed):
    """run_flow_simulation: scalar ≡ vec, ``flows.*`` counters included,
    over every scheduler, lookup-cache organization and base process."""
    duration = 0.015
    source = ZipfFlowSource(
        make_flow_base(base, 11000.0, 552, seed), num_flows=64, skew=1.1,
        seed=seed,
    )
    arrivals = source.arrival_list(duration)
    flush = None
    if faulted:
        # Duplicated and delayed arrivals keep their flows.
        plan = campaign_plan()
        arrivals = plan.apply(arrivals, seed)
        flush = plan.flush_period_cycles
    config = SimulationConfig(
        scheduler=scheduler, drop_policy=policy, duration=duration,
        flush_period_cycles=flush,
    )
    cache = FlowCacheSpec(entries=16, organization=organization)
    outcomes = _flow_charged_both_engines(
        lambda config: run_flow_simulation(
            source, config, cache, seed=seed, arrivals=arrivals
        ),
        config,
    )
    assert outcomes["scalar"] == outcomes["vec"]
    counters = outcomes["vec"][1]
    # A short Bellcore-style stream can be all OFF period.
    assert (counters.get("flows.lookups", 0.0) > 0) == bool(arrivals)
    if faulted and len({arrival.flow for arrival in arrivals}) > 1:
        # The fault stages keep every arrival's flow, so the run looks up
        # more than one flow: each one's first lookup misses the cache,
        # which is never flushed.  Rebuilt as plain arrivals, every
        # message was flow 0 and missed exactly once.
        assert counters["flows.misses"] > 1


@settings(max_examples=20, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    organization=st.sampled_from(sorted(FLOW_CACHE_ORGS)),
    framing=st.sampled_from(sorted(FRAMING_MODES)),
    collection_size=st.sampled_from([1, 8]),
    policy=st.sampled_from(POLICY_NAMES),
    faulted=st.booleans(),
    seed=st.integers(0, 2**10),
)
def test_gossip_run_equivalence(
    scheduler, organization, framing, collection_size, policy, faulted, seed
):
    """run_gossip_simulation: scalar ≡ vec over batches that mix tagged
    data datagrams with untagged control datagrams (full table walks)."""
    spec = GossipFleetSpec(
        num_peers=1000, framing=framing, collection_size=collection_size,
        rate=12000.0, seed=seed,
    )
    config = SimulationConfig(
        scheduler=scheduler, drop_policy=policy, duration=0.015,
        flush_period_cycles=campaign_plan().flush_period_cycles if faulted else None,
    )
    cache = FlowCacheSpec(entries=16, organization=organization)
    outcomes = _flow_charged_both_engines(
        lambda config: run_gossip_simulation(
            GossipFleetSource(spec), config, cache, seed=seed
        ),
        config,
    )
    assert outcomes["scalar"] == outcomes["vec"]
    counters = outcomes["vec"][1]
    assert 0 < counters.get("flows.untagged", 0.0) < counters["flows.lookups"]


@settings(max_examples=25, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    dispatch=st.sampled_from(sorted(DISPATCH_POLICIES)),
    cores=st.integers(1, 4),
    policy=st.sampled_from(POLICY_NAMES),
    input_limit=st.sampled_from([8, 500]),
    flushed=st.booleans(),
    shared_l2=st.booleans(),
    seed=st.integers(0, 2**10),
)
def test_multicore_run_equivalence(
    scheduler, dispatch, cores, policy, input_limit, flushed, shared_l2, seed
):
    """run_multicore: scalar ≡ vec over scheduler × dispatch × core
    count × drop policy × flush period × shared L2.  Every core vec
    supports steps on vec; cores behind a shared L2 step scalar."""
    config = SimulationConfig(
        scheduler=scheduler,
        dispatch=dispatch,
        num_cores=cores,
        drop_policy=policy,
        input_limit=input_limit,
        duration=0.015,
        flush_period_cycles=campaign_plan().flush_period_cycles if flushed else None,
        shared_l2=CacheGeometry(size=65536, line_size=32) if shared_l2 else None,
    )
    source = PoissonSource(15000.0, rng=seed)
    arrivals = source.arrival_list(config.duration)
    outcomes = {}
    for engine in ENGINE_NAMES:
        recorder = Recorder(keep_spans=False)
        with recording(recorder), _vec_steppers() as steppers:
            result = run_multicore(
                source, replace(config, engine=engine), seed=seed,
                arrivals=arrivals,
            )
        ran_vec = [stepper is not None for stepper in steppers]
        assert ran_vec == ([not shared_l2] * cores if engine == "vec" else [])
        outcomes[engine] = (
            canonical_json(result.to_dict()),
            recorder.counters.as_dict(),
        )
    assert outcomes["scalar"] == outcomes["vec"]
    assert outcomes["vec"][1]["messages.arrivals"] == len(arrivals)


@settings(max_examples=25, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    dispatch=st.sampled_from(sorted(DISPATCH_POLICIES)),
    cores=st.integers(1, 4),
    policy=st.sampled_from(POLICY_NAMES),
    input_limit=st.sampled_from([4, 8, 500]),
    flushed=st.booleans(),
    rate=st.floats(5000.0, 40000.0),
    seed=st.integers(0, 2**10),
)
def test_per_core_path_equals_event_merge(
    scheduler, dispatch, cores, policy, input_limit, flushed, rate, seed
):
    """An uncoupled multi-core run driven core by core (metrics-only
    recorder, both engines: bulk admission and multi-step replay per
    core, samples merged by step start) equals the event merge (a
    span-keeping recorder, scalar): result bytes, obs counters and the
    raw latency sample list, order included."""
    config = SimulationConfig(
        scheduler=scheduler,
        dispatch=dispatch,
        num_cores=cores,
        drop_policy=policy,
        input_limit=input_limit,
        duration=0.01,
        flush_period_cycles=campaign_plan().flush_period_cycles if flushed else None,
    )
    arrivals = PoissonSource(rate, rng=seed).arrival_list(config.duration)
    seen = {}
    for engine, keep_spans in (("scalar", True), ("scalar", False), ("vec", False)):
        recorder = Recorder(keep_spans=keep_spans)
        with recording(recorder), _drive_paths() as (outcomes, loops):
            result = run_multicore(
                PoissonSource(rate, rng=seed), replace(config, engine=engine),
                seed=seed, arrivals=arrivals,
            )
        assert loops == ([cores] if keep_spans else [1] * cores)
        (outcome,) = outcomes
        seen[engine, keep_spans] = (
            canonical_json(result.to_dict()),
            recorder.counters.as_dict(),
            outcome.latency.samples,
        )
    merged = seen["scalar", True]
    assert seen["scalar", False] == merged
    assert seen["vec", False] == merged
    assert len(merged[2]) == result.aggregate.completed


#: Multi-core runs that must keep the event merge, as (config changes,
#: span-keeping recorder, arrivals reversed): cores behind one shared
#: L2, a span-keeping recorder, and arrivals out of time order (a
#: bisect needs them sorted).  "uncoupled" is the per-core control.
DRIVE_PATH_CASES = {
    "uncoupled": ({}, False, False),
    "shared-l2": ({"shared_l2": CacheGeometry(size=65536, line_size=32)}, False, False),
    "span-keeping": ({}, True, False),
    "unordered": ({}, False, True),
}


@pytest.mark.parametrize("engine", ENGINE_NAMES)
@pytest.mark.parametrize("case", sorted(DRIVE_PATH_CASES))
def test_drive_path_choice(case, engine):
    """drive() splits a dispatched run into one loop per core only when
    the cores share no L2, no recorder keeps spans and the arrivals are
    in time order; otherwise one event merge steps every core."""
    changes, keep_spans, reverse = DRIVE_PATH_CASES[case]
    config = SimulationConfig(
        scheduler="conventional", dispatch="rss", num_cores=3, duration=0.01,
        engine=engine, **changes,
    )
    arrivals = PoissonSource(20000.0, rng=4).arrival_list(config.duration)
    if reverse:
        arrivals.reverse()
    with recording(Recorder(keep_spans=keep_spans)), _drive_paths() as (_, loops):
        run_multicore(PoissonSource(20000.0, rng=4), config, seed=4, arrivals=arrivals)
    assert loops == ([1, 1, 1] if case == "uncoupled" else [3])


@settings(max_examples=30, deadline=None)
@given(
    scheduler=st.sampled_from(["conventional", "ilp"]),
    rate=st.floats(2000.0, 40000.0),
    input_limit=st.integers(1, 40),
    max_steps=st.sampled_from([1, 2, 3, 8, 32]),
    seed=st.integers(0, 2**20),
)
def test_multi_step_replay_equivalence(
    scheduler, rate, input_limit, max_steps, seed
):
    """Conventional/ILP steps replayed up to ``max_steps`` at a time:
    results, counters and latency sample order equal the scalar
    engine's, from idle to a full queue that drops."""
    config = SimulationConfig(
        scheduler=scheduler, input_limit=input_limit, duration=0.015
    )
    arrivals = PoissonSource(rate, rng=seed).arrival_list(config.duration)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec_module, "MAX_STEPS", max_steps)
        outcomes = _run_both_engines(config, arrivals, seed)
    assert outcomes["scalar"] == outcomes["vec"]


@settings(max_examples=30, deadline=None)
@given(
    scheduler=st.sampled_from(["conventional", "ilp"]),
    organization=st.sampled_from(sorted(FLOW_CACHE_ORGS)),
    tagged=st.booleans(),
    rate=st.floats(2000.0, 40000.0),
    input_limit=st.integers(1, 40),
    max_steps=st.sampled_from([1, 2, 3, 8, 32]),
    seed=st.integers(0, 2**20),
)
def test_multi_step_flow_lookup_equivalence(
    scheduler, organization, tagged, rate, input_limit, max_steps, seed
):
    """Flow-charged conventional/ILP steps replayed up to ``max_steps``
    at a time, over Zipf-tagged arrivals (lookups through the cache)
    or untagged ones (full table walks): results, lookup counters, obs
    counters and latency sample order equal the scalar engine's."""
    config = SimulationConfig(
        scheduler=scheduler, input_limit=input_limit, duration=0.015
    )
    source = PoissonSource(rate, rng=seed)
    if tagged:
        source = ZipfFlowSource(source, num_flows=64, skew=1.1, seed=seed)
    arrivals = source.arrival_list(config.duration)
    cache = FlowCacheSpec(entries=16, organization=organization)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec_module, "MAX_STEPS", max_steps)
        outcomes = _run_both_engines(
            config, arrivals, seed, cache, tagged
        )
    assert outcomes["scalar"] == outcomes["vec"]


#: Saturated conventional runs that fill an 8-deep queue, each as
#: (config changes, flow cache, Zipf-tagged arrivals, multi-step): tail
#: drop replays full runs of MAX_STEPS steps, with or without a flow
#: lookup and on each core of an uncoupled two-core run; head drop and
#: a flush period (one core or two) keep single steps.
MULTI_STEP_ENVELOPE_CASES = {
    "tail": ({}, None, False, True),
    "head": ({"drop_policy": "head"}, None, False, False),
    "flushed": (
        {"flush_period_cycles": campaign_plan().flush_period_cycles},
        None, False, False,
    ),
    "flow-lookup": (
        {}, FlowCacheSpec(entries=16, organization="direct"), False, True,
    ),
    "flow-lookup-lru4": (
        {}, FlowCacheSpec(entries=16, organization="lru4"), True, True,
    ),
    "two-cores": ({"num_cores": 2, "dispatch": "rss"}, None, False, True),
    "two-cores-flushed": (
        {
            "num_cores": 2, "dispatch": "rss",
            "flush_period_cycles": campaign_plan().flush_period_cycles,
        },
        None, False, False,
    ),
}


@pytest.mark.parametrize("case", sorted(MULTI_STEP_ENVELOPE_CASES))
def test_multi_step_envelope(case):
    """Multi-step replay engages only inside its envelope (each core of
    an uncoupled multi-core run included), replays either one step or a
    full run of MAX_STEPS, and every case stays byte-identical to
    scalar, latency order included."""
    changes, flow_cache, tagged, multi = MULTI_STEP_ENVELOPE_CASES[case]
    config = SimulationConfig(
        scheduler="conventional", input_limit=8, duration=0.015, **changes
    )
    source = PoissonSource(30000.0, rng=2)
    if tagged:
        source = ZipfFlowSource(source, num_flows=64, skew=1.1, seed=2)
    arrivals = source.arrival_list(config.duration)
    with _vec_steppers() as steppers:
        outcomes = _run_both_engines(
            config, arrivals, 2, flow_cache, tagged
        )
    assert outcomes["scalar"] == outcomes["vec"]
    counters = outcomes["vec"][1]
    assert counters["messages.drops"] > 0
    if flow_cache is not None:
        # Tagged lookups go through the cache; untagged ones walk.
        walked = "flows.misses" if tagged else "flows.untagged"
        assert 0 < counters[walked] <= counters["flows.lookups"]
        assert (counters.get("flows.hits", 0.0) > 0) == tagged
    replayed = {
        len(template.ends)
        for stepper in steppers
        for template in stepper.__self__.table.templates.values()
    }
    assert len(steppers) == config.num_cores
    assert replayed == ({1, vec_module.MAX_STEPS} if multi else {1})


@pytest.mark.parametrize("scheduler", ["conventional", "ldlp"])
def test_second_drive_starts_mid_ring(scheduler):
    """Two drive calls on one bound scheduler: the second call's engine
    takes its first run of buffers from where the first call left the
    ring, mid-way, as the scalar path's acquires do.  Latency samples,
    cycles, cache statistics, counters and the ring position stay equal
    to the scalar engine's."""
    streams = [
        PoissonSource(9000.0, rng=rng).arrival_list(0.01) for rng in (5, 6)
    ]
    seen = {}
    for engine in ENGINE_NAMES:
        built = build_scheduler(SimulationConfig(scheduler=scheduler), seed=5)
        binding = built.binding
        recorder = Recorder(keep_spans=False)
        samples, ring = [], []
        with recording(recorder), _vec_steppers() as steppers:
            for offset, arrivals in zip((0.0, 0.01), streams):
                timestamped = [
                    (a.time + offset, Message(size=a.size, arrival_time=a.time + offset))
                    for a in arrivals
                ]
                samples.append(list(drive(built, timestamped, engine=engine).latency._samples))
                ring.append(binding.pool._next)
        assert [stepper is not None for stepper in steppers] == (
            [True, True] if engine == "vec" else []
        )
        hierarchy = binding.cpu.hierarchy
        seen[engine] = (
            samples, ring, binding.cpu.cycles, binding.cpu.stall_cycles,
            hierarchy.icache.stats, hierarchy.dcache.stats,
            recorder.counters.as_dict(),
        )
    assert seen["scalar"] == seen["vec"]
    assert seen["vec"][1][0] != 0
    assert all(seen["vec"][0])


def test_grouped_batch_longer_than_ring():
    """An LDLP batch of more messages than the 32-buffer ring takes a run
    of ring slots that wraps past its start, so two of its messages
    share a buffer; results, counters and latency order equal the
    scalar engine's."""
    config = SimulationConfig(scheduler="ldlp", batch_limit=48, duration=0.01)
    arrivals = PoissonSource(40000.0, rng=7).arrival_list(config.duration)
    with _vec_steppers() as steppers:
        outcomes = _run_both_engines(config, arrivals, 7)
    assert outcomes["scalar"] == outcomes["vec"]
    (engine,) = [stepper.__self__ for stepper in steppers]
    longest = max(len(template.ends) for template in engine.table.templates.values())
    assert longest > len(engine.pool)


def test_mixed_sizes_reuse_shape_rows_across_rotations():
    """On a mixed-size stream, templates at different ring rotations
    whose buffers hold the same line counts share one shape's rows, and
    each one's data plan still equals the per-invocation reference's.
    Results, counters and latency order equal the scalar engine's."""
    config = SimulationConfig(scheduler="conventional", duration=0.05)
    sizes = np.random.default_rng(8).choice([64, 552, 1500], size=1000).tolist()
    arrivals = [
        Arrival(arrival.time, size)
        for arrival, size in zip(
            PoissonSource(3000.0, rng=8).arrival_list(config.duration), sizes
        )
    ]
    with _vec_steppers() as steppers:
        outcomes = _run_both_engines(config, arrivals, 8)
    assert outcomes["scalar"] == outcomes["vec"]
    (engine,) = [stepper.__self__ for stepper in steppers]
    pool = engine.pool.buffers
    rotations = {}  # a shape's slot line counts -> its templates' first slots
    compiles = {}  # a shape's slot line counts -> its templates
    table = engine.table
    for (first, key_sizes), template in table.templates.items():
        ring = [pool[(first + slot) % len(pool)] for slot in range(len(key_sizes))]
        counts = tuple(
            buffer.lines_for(min(size, buffer.capacity)).size
            for buffer, size in zip(ring, key_sizes)
        )
        rotations.setdefault(counts, set()).add(first)
        compiles[counts] = compiles.get(counts, 0) + 1
        _, segments = _reference_compile(engine, list(key_sizes), ring)
        reference = template.replay.data_plan(*segment_rows(segments))
        assert template.data.block.tolist() == reference.block.tolist()
        assert template.data.static.tolist() == reference.static.tolist()
        assert template.data.accesses == reference.accesses
    assert len(rotations) == len(table.shapes) < len(table.templates)
    assert max(len(firsts) for firsts in rotations.values()) > 1
    # A shape keeps its rows from its second compile: one-off shapes
    # hold none.  Its key leads with the layers' data line counts.
    layers = tuple(count for _, count in table.layer_runs)
    assert {
        layers + counts: uses > 1 for counts, uses in compiles.items()
    } == {counts: rows is not None for counts, rows in table.shapes.items()}


def test_drive_owns_the_vec_engines():
    """Each per-core vec engine dies with the drive call that made it:
    with the cycle collector off, every engine of a 4-core vec run is
    gone once the run returns (an engine parked on its scheduler would
    form a reference cycle and outlive the run)."""
    engines = []
    original = vec_module.vec_stepper

    def spy(*args):
        stepper = original(*args)
        engines.append(weakref.ref(stepper.__self__))
        return stepper

    config = SimulationConfig(dispatch="ldlp", num_cores=4, duration=0.01)
    gc.disable()
    vec_module.vec_stepper = spy
    try:
        run_multicore(PoissonSource(12000.0, rng=0), config, seed=0)
        alive = [ref() is not None for ref in engines]
    finally:
        vec_module.vec_stepper = original
        gc.enable()
    assert alive == [False] * 4


# ----------------------------------------------------------------------
# Template compiler: shared and collapsed code plans


@pytest.mark.parametrize("batch_limit", [1, 3, 14])
@pytest.mark.parametrize(
    "groups", [[[0], [1], [2], [3], [4]], [[0, 1], [2], [3, 4]], None],
    ids=["singletons", "mixed", "ldlp"],
)
def test_grouped_explicit_groups_equivalence(batch_limit, groups):
    """Grouped LDLP with explicit groups: every singleton group runs its
    layer over the whole batch back to back, so its code segments
    collapse; the latency samples and cache statistics must not move.
    ``None`` builds :class:`LDLPScheduler`, the singleton grouping."""
    arrivals = PoissonSource(12000.0, rng=3).arrival_list(0.01)
    seen = {}
    for engine in ENGINE_NAMES:
        binding = MachineBinding(rng=3)
        if groups is None:
            scheduler = LDLPScheduler(
                build_paper_stack(), binding, 500, BatchPolicy(batch_limit)
            )
        else:
            scheduler = GroupedLDLPScheduler(
                build_paper_stack(), binding, 500, BatchPolicy(batch_limit),
                groups=groups,
            )
        timestamped = [
            (a.time, Message(size=a.size, arrival_time=a.time)) for a in arrivals
        ]
        recorder = Recorder(keep_spans=False)
        with recording(recorder):
            stats = drive(scheduler, timestamped, engine=engine)
        hierarchy = binding.cpu.hierarchy
        seen[engine] = (
            list(stats.latency._samples),
            binding.cpu.cycles,
            binding.cpu.stall_cycles,
            hierarchy.icache.stats,
            hierarchy.dcache.stats,
            recorder.counters.as_dict(),
        )
    assert seen["scalar"] == seen["vec"]
    assert max(scheduler.batch_sizes) == batch_limit


def test_code_plan_shared_per_batch_length():
    """Templates of one batch length share one code plan, fused replay
    and arena, and LDLP's layer-major code stream collapses to one
    segment per layer."""
    config = SimulationConfig(scheduler="ldlp", batch_limit=14, duration=0.01)
    scheduler = build_scheduler(config, seed=0)
    engine = vec_module._VecEngine(scheduler, vec_module._scheduler_kind(scheduler))
    binding = scheduler.binding
    buffers = binding.pool.buffers
    first = engine._compile([552] * 14, buffers[:14])
    second = engine._compile([100] * 14, buffers[14:28])
    replay = first.replay
    assert second.replay is replay
    assert second.positions is first.positions
    assert first.data is not second.data
    assert replay.iplan.static.size == len(scheduler.layers)
    code_lines = sum(
        binding.placed_layer(layer.name).code_lines.size
        for layer in scheduler.layers
    )
    # The 13 elided repeats of each layer's code still count as accesses.
    assert replay.iplan.accesses == 14 * code_lines
    istall = first.positions[replay.dsegments:]
    assert istall.tolist() == [1 + 5 * 14 * index for index in range(5)]
    # The code plan's first-touch arrays are not copied into templates:
    # a template's block holds one column per data set it touches.
    dsets = engine.dcache.num_lines
    for template, sizes, ring in ((first, 552, buffers[:14]), (second, 100, buffers[14:28])):
        _, segments = _reference_compile(engine, [sizes] * 14, ring)
        touched = np.unique(np.concatenate(segments) % dsets).size
        assert template.data.block.shape == (4, touched)
        assert template.data.static.size == replay.num_segments


@settings(max_examples=40, deadline=None)
@given(
    runs=st.lists(
        st.tuples(st.integers(0, 3), st.integers(1, 4)), min_size=1, max_size=8
    ),
    warm=st.lists(st.integers(0, 255), max_size=64),
)
def test_collapsed_plan_matches_uncollapsed(runs, warm):
    """Eliding a segment that repeats its predecessor leaves hits,
    misses, evictions and tags exactly as the scalar per-call path over
    every segment leaves them, from any starting cache state."""
    num_lines = 32
    rng = np.random.default_rng(len(runs))
    blocks = [
        rng.choice(4 * num_lines, size=8, replace=False) for _ in range(4)
    ]
    # Distinct sets within a block, so both plans are supported.
    blocks = [block[np.unique(block % num_lines, return_index=True)[1]] for block in blocks]
    segments = [blocks[block] for block, repeat in runs for _ in range(repeat)]
    geometry = CacheGeometry(num_lines * 32, 32)
    hierarchy = SplitCacheHierarchy(MachineSpec(icache=geometry, dcache=geometry))
    collapsed_cache = hierarchy.icache
    scalar_cache = DirectMappedCache(num_lines * 32, 32)
    for cache in (collapsed_cache, scalar_cache):
        for line in warm:
            cache.access_line(line)
    collapsed, kept = collapsed_plan(segments, num_lines)
    # Replay the code plan beside one empty data segment.
    replay = FusedReplay(collapsed, num_lines, 1)
    no_lines = np.empty(0, dtype=np.int64)
    kept_misses = replay.apply(
        hierarchy.l1_tags, replay.data_plan(*segment_rows([no_lines])),
        hierarchy.dcache.stats, collapsed_cache.stats,
    )[1:]
    scalar_misses = np.array([
        scalar_cache.access_line_array_report(segment).size for segment in segments
    ])
    assert collapsed.static.size == len(kept) <= len(segments)
    assert kept_misses.tolist() == scalar_misses[kept].tolist()
    elided = np.ones(len(segments), dtype=bool)
    elided[kept] = False
    assert not scalar_misses[elided].any()
    assert collapsed_cache.stats == scalar_cache.stats
    assert np.array_equal(collapsed_cache.tag_array, scalar_cache.tag_array)


def _reference_compile(engine, sizes, buffers):
    """The per-invocation compile loop: one ``lines_for`` call and one
    addend write per invocation.  Returns (addends, data segments)."""
    program = engine._invocations(sizes)
    data_segments = []
    addends = np.zeros(1 + 5 * len(program))
    for position, (layer_index, slot, include_data, trailing) in enumerate(program):
        placed = engine.placed[layer_index]
        data_segments.append(placed.data_lines)
        if include_data:
            buffer = buffers[slot]
            size = min(sizes[slot], buffer.capacity)
            data_segments.append(
                buffer.lines_for(size) if size > 0 else placed.data_lines[:0]
            )
            addends[5 * position + 4] = placed.footprint.compute_cycles(sizes[slot])
        else:
            data_segments.append(placed.data_lines[:0])
            addends[5 * position + 4] = placed.footprint.base_cycles
        addends[5 * position + 5] = trailing
    return addends, data_segments


@settings(max_examples=40, deadline=None)
@given(
    scheduler=st.sampled_from(SCHEDULER_NAMES),
    batch=st.lists(
        st.tuples(st.integers(0, 31), st.integers(1, 3000)), min_size=1, max_size=12
    ),
    warm_seed=st.integers(0, 2**32 - 1),
)
def test_compile_matches_per_invocation_reference(scheduler, batch, warm_seed):
    """A compiled template equals the per-invocation reference: bit-equal
    addends, and a fused replay on a live split L1 that gives the
    per-segment misses, stats and tags of the reference code and data
    segments accessed one scalar call at a time."""
    config = SimulationConfig(scheduler=scheduler, batch_limit=12, duration=0.01)
    built = build_scheduler(config, seed=0)
    engine = vec_module._VecEngine(built, vec_module._scheduler_kind(built))
    pool = built.binding.pool.buffers
    buffers = [pool[index % len(pool)] for index, _ in batch]
    sizes = [size for _, size in batch]
    template = engine._compile(sizes, buffers)
    addends, segments = _reference_compile(engine, sizes, buffers)
    assert template.addends.tobytes() == addends.tobytes()
    program = engine._invocations(sizes)
    code = [engine.placed[layer_index].code_lines for layer_index, *_ in program]

    # Warm both machines alike: some reference lines (hits), some strays.
    rng = np.random.default_rng(warm_seed)
    planned = SplitCacheHierarchy(built.binding.spec)
    scalar = SplitCacheHierarchy(built.binding.spec)
    for name, lines in (("dcache", segments), ("icache", code)):
        all_lines = np.concatenate(lines)
        num_lines = getattr(planned, name).num_lines
        warm = np.concatenate([
            rng.choice(all_lines, size=all_lines.size // 2 + 1),
            rng.integers(0, 4 * num_lines, size=8),
        ])
        for hierarchy in (planned, scalar):
            cache = getattr(hierarchy, name)
            for line in warm.tolist():
                cache.access_line(line)
    replay = template.replay
    per_segment = replay.apply(
        planned.l1_tags, template.data, planned.dcache.stats, planned.icache.stats
    )
    dmisses = [scalar.dcache.access_line_array_report(lines).size for lines in segments]
    imisses = [scalar.icache.access_line_array_report(lines).size for lines in code]
    assert per_segment[: replay.dsegments].tolist() == dmisses
    # Each code segment's stall lands in its invocation's istall slot;
    # the elided repeats missed nothing.
    istall = np.zeros(len(program), dtype=np.int64)
    istall[(template.positions[replay.dsegments:] - 1) // 5] = per_segment[replay.dsegments:]
    assert istall.tolist() == imisses
    dslots = template.positions[: replay.dsegments].reshape(-1, 2)
    assert dslots.tolist() == [[5 * i + 2, 5 * i + 3] for i in range(len(program))]
    for name in ("dcache", "icache"):
        assert getattr(planned, name).stats == getattr(scalar, name).stats
    assert np.array_equal(planned.l1_tags, scalar.l1_tags)


def _reference_layout(engine, batch):
    """A batch length's layout built the old way: the length's own
    program, one ``collapsed_plan`` over its whole code stream and one
    entry per invocation."""
    program = engine._program(batch)
    num_layers = len(engine.placed)
    iplan, kept = collapsed_plan(
        [engine.placed[layer].code_lines for layer, *_ in program],
        engine.icache.num_lines,
    )
    pieces, slots, constant, per_byte = [], [0], [0.0], [0.0]
    last = {}
    for index, (layer, slot, include, trailing, extra) in enumerate(program):
        footprint = engine.placed[layer].footprint
        pieces += [layer, num_layers + 1 + slot if include else num_layers]
        slots += [0, 0, 0, slot, slot]
        constant += [0.0, 0.0, 0.0, footprint.base_cycles, trailing]
        per_byte += [
            0.0, 0.0, 0.0, footprint.per_byte_cycles if include else 0.0, extra
        ]
        last[slot] = index
    # A message completes at its last invocation's execute (one step per
    # message) or trailing execute (batched).
    end = 4 if engine.per_message else 5
    return {
        "block": iplan.block,
        "static": iplan.static,
        "accesses": iplan.accesses,
        "positions": np.array(
            [5 * index + slot for index in range(len(program)) for slot in (2, 3)]
            + [5 * index + 1 for index in kept],
            dtype=np.int64,
        ),
        "pieces": np.array(pieces, dtype=np.intp),
        "slots": np.array(slots, dtype=np.intp),
        "constant": np.array(constant),
        "per_byte": np.array(per_byte),
        "completions": [(slot, 5 * last[slot] + end) for slot in range(batch)],
    }


@st.composite
def _engines(draw):
    """A vec engine over a random stack and placement: conventional or
    ILP (with or without multi-step replay), LDLP or explicit groups,
    one to five layers of assorted footprints (code as small as two
    lines, so sequentially placed layers can share lines), random or
    sequential placement."""
    num_layers = draw(st.integers(1, 5))
    layers = [
        PassthroughLayer(
            f"layer{index}",
            LayerFootprint(
                code_bytes=draw(st.sampled_from([40, 200, 1024, 3000, 6144])),
                data_bytes=draw(st.sampled_from([0, 64, 256])),
                base_cycles=draw(st.sampled_from([1376.0, 900.0, 17.5])),
                per_byte_cycles=draw(st.sampled_from([0.5, 0.0, 1.25])),
            ),
        )
        for index in range(num_layers)
    ]
    binding = MachineBinding(
        rng=draw(st.integers(0, 2**32 - 1)), random_placement=draw(st.booleans())
    )
    kind = draw(st.sampled_from(["conventional", "ilp", "ldlp", "groups"]))
    if kind in ("conventional", "ilp"):
        scheduler = (ConventionalScheduler if kind == "conventional" else ILPScheduler)(
            layers, binding
        )
        # Without multi-step replay every batch is single.
        return vec_module._VecEngine(scheduler, kind, draw(st.booleans()))
    policy = BatchPolicy(draw(st.integers(1, 9)))
    if kind == "ldlp":
        scheduler = LDLPScheduler(layers, binding, 500, policy)
    else:
        cuts = draw(st.sets(st.integers(1, num_layers - 1))) if num_layers > 1 else set()
        bounds = [0, *sorted(cuts), num_layers]
        groups = [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]
        scheduler = GroupedLDLPScheduler(layers, binding, 500, policy, groups=groups)
    return vec_module._VecEngine(scheduler, "grouped")


@settings(max_examples=60, deadline=None)
@given(engine=_engines())
def test_layouts_match_per_length_reference(engine):
    """Every batch length's layout, derived from the engine's one
    analysis, equals the per-length build field by field: code block,
    static misses, accesses, stall positions, pieces, addend slots,
    constant and per-byte terms, and completions.  The lengths run one
    past the engine's longest, which rebuilds the rows longer."""
    assert vec_supported(engine.scheduler)
    for batch in range(1, engine.longest + 2):
        layout = engine._layout(batch)
        reference = _reference_layout(engine, batch)
        iplan = layout.replay.iplan
        got = {
            "block": iplan.block,
            "static": iplan.static,
            "accesses": iplan.accesses,
            "positions": layout.positions,
            "pieces": layout.pieces,
            "slots": layout.slots,
            "constant": layout.constant,
            "per_byte": layout.per_byte,
            "completions": list(enumerate(layout.ends.tolist())),
        }
        for field, expected in reference.items():
            if isinstance(expected, np.ndarray):
                assert got[field].dtype == expected.dtype, (batch, field)
                assert got[field].shape == expected.shape, (batch, field)
                assert got[field].tobytes() == expected.tobytes(), (batch, field)
            else:
                assert got[field] == expected, (batch, field)
        if engine.per_message:
            # The slots after each completion, which _addends_for checks are
            # free, are every step's last addend slot.
            step = 5 * len(engine.placed)
            assert (layout.ends + 1).tolist() == list(
                range(step, step * batch + 1, step)
            )


def test_code_analysed_once_per_engine():
    """Every batch length's code plan comes from one static analysis of
    the engine's code stream: an LDLP engine and a multi-step
    conventional engine each call the analysis kernel once while they
    build the layouts of every batch length."""
    calls = []
    original = chunked_module._first_touches

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(chunked_module, "_first_touches", counting)
        for scheduler, longest in (("ldlp", 14), ("conventional", vec_module.MAX_STEPS)):
            config = SimulationConfig(scheduler=scheduler, duration=0.01)
            built = build_scheduler(config, seed=0)
            engine = vec_module._VecEngine(
                built, vec_module._scheduler_kind(built), multi_step=True
            )
            assert engine.longest == longest
            before = len(calls)
            for batch in range(1, longest + 1):
                engine._layout(batch)
            assert len(calls) - before == 1, scheduler


# ----------------------------------------------------------------------
# State memo: (interned L1 tag state, template) -> replay outcome


def _segments(data, num_sets, min_size, repeats=False):
    """Draw self-conflict-free segments over ``num_sets`` sets: each is
    one line per drawn set, from one of six lines mapping to it; with
    ``repeats``, a segment may run up to three times in a row."""
    drawn = data.draw(
        st.lists(
            st.tuples(
                st.dictionaries(
                    st.integers(0, num_sets - 1), st.integers(0, 5), max_size=12
                ),
                st.integers(1, 3 if repeats else 1),
            ),
            min_size=min_size, max_size=6,
        )
    )
    return [
        np.array(
            [index + num_sets * tag for index, tag in lines.items()], dtype=np.int64
        )
        for lines, repeat in drawn
        for _ in range(repeat)
    ]


def _stats(hierarchy):
    d, i = hierarchy.dcache.stats, hierarchy.icache.stats
    return (d.hits, d.misses, d.evictions, i.hits, i.misses, i.evictions)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_state_memo_reproduces_apply(data):
    """Twice from one tag state (cold sets included), a memoized replay
    leaves the final tags, the per-segment stall vector and the six
    hit/miss/eviction deltas that ``FusedReplay.apply`` and the engine's
    stall arithmetic give: first through the cache model, then from the
    memo."""
    isets = data.draw(st.sampled_from([8, 16, 32]))
    dsets = data.draw(st.sampled_from([8, 16, 32]))
    penalty = data.draw(st.sampled_from([20.0, 7.0]))
    efficiency = data.draw(st.sampled_from([0.0, 0.3, 0.5]))
    spec = MachineSpec(
        icache=CacheGeometry(isets * 32, 32), dcache=CacheGeometry(dsets * 32, 32)
    )
    iplan, _ = collapsed_plan(_segments(data, isets, 1, repeats=True), isets)
    dsegments = _segments(data, dsets, 1)
    replay = FusedReplay(iplan, dsets, len(dsegments))
    template = vec_module._StepTemplate(
        replay, replay.data_plan(*segment_rows(dsegments)), np.zeros(1),
        np.empty(0, np.intp), [],
    )
    # Each set holds -1 (cold) or one of six lines mapping to it.
    tags = data.draw(
        st.lists(st.integers(-1, 5), min_size=dsets + isets, max_size=dsets + isets)
    )
    sets = np.r_[np.arange(dsets), np.arange(isets)]
    per_set = np.r_[np.full(dsets, dsets), np.full(isets, isets)]
    start = np.where(np.array(tags) < 0, -1, sets + per_set * np.array(tags))

    reference = SplitCacheHierarchy(spec)
    reference.l1_tags[:] = start
    stall = replay.apply(
        reference.l1_tags, template.data,
        reference.dcache.stats, reference.icache.stats,
    ) * penalty
    if efficiency:
        stall[len(dsegments):] = np.rint(stall[len(dsegments):] * (1.0 - efficiency))

    live = SplitCacheHierarchy(spec)
    memo = vec_module._StateMemo(
        live, penalty, (1.0 - efficiency) if efficiency else None
    )
    entries = {}
    for hits in (0, 1):
        # A flush tells the memo the tags changed under it.
        live.flush()
        live.l1_tags[:] = start
        before = _stats(live)
        got, total = memo.replay(template, entries)
        assert memo.hits == hits
        assert got.tolist() == stall.tolist()
        assert total == float(stall.sum())
        assert np.array_equal(live.l1_tags, reference.l1_tags)
        assert np.subtract(_stats(live), before).tolist() == list(_stats(reference))


#: Arrival rate per scheduler for a flush every 0.5 ms to land between
#: steps that replay from a memo: a few steps run warm between flushes
#: (a flush after every step would make every step start cold, where a
#: stale state id happens to give the right answer).  LDLP batches at
#: higher rates, so its steps rarely repeat a template.
FLUSHED_MEMO_RATES = {"conventional": 9000.0, "ldlp": 3000.0}


@pytest.mark.parametrize("scheduler", sorted(FLUSHED_MEMO_RATES))
def test_state_memo_flushed_equivalence(scheduler):
    """A flush resets the L1 behind the memo's back: the engine must
    re-intern the state after every ``SplitCacheHierarchy.flush``, or a
    memo hit restores the warm tags the flush emptied.  Results,
    counters and latency order equal the scalar engine's."""
    config = SimulationConfig(
        scheduler=scheduler, duration=0.03, flush_period_cycles=50_000.0
    )
    rate = FLUSHED_MEMO_RATES[scheduler]
    arrivals = PoissonSource(rate, rng=3).arrival_list(config.duration)
    with _vec_steppers() as steppers:
        outcomes = _run_both_engines(config, arrivals, 3)
    assert outcomes["scalar"] == outcomes["vec"]
    assert outcomes["vec"][1]["faults.cache_flushes"] > 10
    (engine,) = [stepper.__self__ for stepper in steppers]
    assert engine.memo_hits > 0


def test_state_memo_engages_on_steady_poisson_point():
    """Conventional processing at a steady rate leaves the L1 in a few
    recurring states, so most steps replay from a memo."""
    with _vec_steppers() as steppers:
        poisson_point("conventional", 9000.0, [1, 2], 0.05)
    engines = [stepper.__self__ for stepper in steppers]
    assert len(engines) == 2
    for engine in engines:
        assert engine.memo_hits > engine.memo_misses > 0


def test_state_memo_stops_interning_only_without_hits():
    """The memo stops interning when its table fills before any replay
    has hit, and releases the table; it keeps interning (and the table)
    when one has."""
    geometry = CacheGeometry(8 * 32, 32)
    spec = MachineSpec(icache=geometry, dcache=geometry)
    iplan, _ = collapsed_plan([np.array([0, 1, 2])], 8)
    replay = FusedReplay(iplan, 8, 1)
    cold = np.full(16, -1)
    other = np.arange(16) + 64

    def replay_from(memo, hierarchy, tags):
        hierarchy.flush()
        hierarchy.l1_tags[:] = tags
        memo.replay(template, entries)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec_module, "MAX_STATES", 2)
        for hit_first in (False, True):
            entries = {}
            template = vec_module._StepTemplate(
                replay, replay.data_plan(*segment_rows([np.array([8, 9])])), np.zeros(1),
                np.empty(0, np.intp), [],
            )
            hierarchy = SplitCacheHierarchy(spec)
            memo = vec_module._StateMemo(hierarchy, 20.0, None)
            # Interns the cold state and the one the replay leaves.
            replay_from(memo, hierarchy, cold)
            if hit_first:
                replay_from(memo, hierarchy, cold)
            replay_from(memo, hierarchy, other)
            assert memo.hits == hit_first
            assert memo.interning is hit_first
            assert len(memo.states) == len(memo.ids) == (2 if hit_first else 0)


def test_state_memo_stops_interning_on_mixed_sizes():
    """On a Bellcore-like mixed-size trace, L1 tag states do not recur:
    the state table fills without one memo hit, and from then on the
    engine interns nothing, so its reused templates replay through the
    cache model without the intern and lookup, and the full table is
    released.  The result is the scalar engine's."""
    calls = []  # (method, whether the memo was still interning)
    filled = []  # the table's size after each call
    methods = {
        name: getattr(vec_module._StateMemo, name) for name in ("_intern", "replay")
    }

    def spying(name):
        def spy(memo, *args):
            calls.append((name, memo.interning))
            result = methods[name](memo, *args)
            filled.append(len(memo.states))
            return result

        return spy

    seen = {}
    with pytest.MonkeyPatch.context() as patch, _vec_steppers() as steppers:
        for name in methods:
            patch.setattr(vec_module._StateMemo, name, spying(name))
        for engine in ENGINE_NAMES:
            seen[engine] = canonical_json(
                clock_point("conventional", 80, [1], 0.3, 1200.0, engine=engine)
            )
    assert seen["scalar"] == seen["vec"]
    (engine,) = [stepper.__self__ for stepper in steppers if stepper is not None]
    memo = engine.memo
    assert not memo.interning
    assert memo.hits == 0
    assert max(filled) == vec_module.MAX_STATES
    assert memo.states == [] and memo.ids == {}
    assert ("_intern", False) not in calls
    assert ("replay", False) in calls


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
def test_state_table_bound(scheduler):
    """With room for two states, the table never holds more (it fills;
    a memo that stops interning then releases it), and results stay
    byte-identical to the unbounded-enough default's and the scalar
    engine's."""
    config = SimulationConfig(scheduler=scheduler, duration=0.03)
    arrivals = PoissonSource(7000.0, rng=4).arrival_list(config.duration)
    default = _run_both_engines(config, arrivals, 4)
    intern = vec_module._StateMemo._intern
    filled = []  # (states, ids) held after each intern

    def spy(memo):
        state = intern(memo)
        filled.append((len(memo.states), len(memo.ids)))
        return state

    with pytest.MonkeyPatch.context() as patch, _vec_steppers() as steppers:
        patch.setattr(vec_module, "MAX_STATES", 2)
        patch.setattr(vec_module._StateMemo, "_intern", spy)
        bounded = _run_both_engines(config, arrivals, 4)
    assert bounded == default
    assert default["scalar"] == default["vec"]
    (engine,) = [stepper.__self__ for stepper in steppers]
    assert max(filled) == (2, 2)
    memo = engine.memo
    assert len(memo.states) == len(memo.ids) == (2 if memo.interning else 0)


# ----------------------------------------------------------------------
# Table store: compiled tables shared across drive calls

def _shift(attribute, layer, lines):
    """A build hook moving one placed layer's code or data lines."""

    def hook(build, config, seed):
        scheduler = build(config, seed)
        placed = scheduler.binding.placed_layer(scheduler.layers[layer].name)
        setattr(placed, attribute, getattr(placed, attribute) + lines)
        return scheduler

    return hook


def _regroup(groups):
    """A build hook making a grouped scheduler with explicit ``groups``,
    placed as :func:`build_scheduler` places it."""

    def hook(build, config, seed):
        binding = MachineBinding(
            spec=config.spec, rng=seed, pool_buffers=config.pool_buffers,
            buffer_size=config.buffer_size,
        )
        stack = build_paper_stack(config.num_layers, config.layer_code_bytes)
        return GroupedLDLPScheduler(
            stack, binding, config.input_limit, groups=groups,
            drop_policy=DROP_POLICIES[config.drop_policy](),
        )

    return hook


#: Each variant of the base run (conventional cores with 2 KiB of code
#: per layer, so a moved code line changes the I-cache misses) changes
#: one engine input: first each part of the table key, then inputs the
#: key leaves out because no table entry reads them.  A variant is
#: (config changes, a build hook or None).
STORE_VARIANTS = {
    "base": ({}, None),
    "ilp": ({"scheduler": "ilp"}, None),
    "ldlp": ({"scheduler": "ldlp"}, None),
    "groups": ({"scheduler": "ldlp"}, _regroup([[0, 1], [2], [3, 4]])),
    "code-lines": ({}, _shift("code_lines", 1, 100)),
    "data-lines": ({}, _shift("data_lines", 2, 5)),
    "buffers": ({"buffer_size": 1664}, None),
    "footprint": ({"layer_base_cycles": 1400.0}, None),
    "ilp-per-byte": ({"scheduler": "ilp", "layer_per_byte_cycles": 0.75}, None),
    "icache": ({"spec": MachineSpec(icache=CacheGeometry(16384, 32))}, None),
    "dcache": ({"spec": MachineSpec(dcache=CacheGeometry(16384, 32))}, None),
    # Not key parts.
    "penalty": ({"spec": MachineSpec(miss_penalty=35)}, None),
    "prefetch": ({"spec": MachineSpec(iprefetch_efficiency=0.5)}, None),
    "batch-limit": ({"scheduler": "ldlp", "batch_limit": 3}, None),
    "head-drop": ({"drop_policy": "head"}, None),
}


def _store_columns(seed, sizes):
    """A 10 ms stream past conventional saturation, so multi-step runs
    replay, with sizes drawn from ``sizes`` and 16 flows."""
    columns = PoissonSource(30000.0, rng=seed).arrival_columns(0.01)
    rng = np.random.default_rng(seed)
    count = len(columns["time"])
    columns["size"] = rng.choice(sizes, size=count).tolist()
    columns["flow"] = rng.integers(0, 16, size=count).tolist()
    return columns


def _store_outcomes(variant, cores, lookup, seed, columns):
    """One run of ``variant`` on ``cores`` cores, with a flow lookup or
    without: {"shared": vec with the store as it is, "fresh": vec with
    an empty store, "scalar": ...}, each (canonical result JSON,
    counters, latency samples).  Only the shared run keeps its tables."""
    changes, hook = STORE_VARIANTS[variant]
    config = SimulationConfig(**{
        "scheduler": "conventional", "layer_code_bytes": 2048, "input_limit": 64,
        "duration": 0.01, **changes,
    })
    if cores > 1:
        config = replace(config, num_cores=cores, dispatch="rss")
    flow_cache = FlowCacheSpec(entries=16, organization="lru4") if lookup else None
    outcomes = {}
    with pytest.MonkeyPatch.context() as patch:
        if hook is not None:
            build = runner_module.build_scheduler
            patch.setattr(
                runner_module, "build_scheduler",
                lambda config, seed: hook(build, config, seed),
            )
        for run, engine in (("shared", "vec"), ("fresh", "vec"), ("scalar", "scalar")):
            if run == "fresh":
                patch.setattr(vec_module, "_TABLES", {})
            outcomes[run] = _run_engine(
                replace(config, engine=engine), columns, seed, flow_cache, lookup
            )
    return outcomes


@pytest.mark.parametrize(
    "first, second",
    [("base", variant) for variant in sorted(STORE_VARIANTS)]
    + [(("base", True), ("base", False)), (("base", False), ("base", True))],
    ids=str,
)
def test_table_store_twin_runs(first, second):
    """A run after one whose engines differ in one input (a key part,
    the flow lookup's presence, or an input the key leaves out) equals
    a fresh-store run and the scalar run: result, counters and latency
    order.  One message size, so the second run finds templates."""
    columns = _store_columns(4, [552])
    first, second = (
        run if isinstance(run, tuple) else (run, True) for run in (first, second)
    )
    for variant, lookup in (first, second):
        outcomes = _store_outcomes(variant, 1, lookup, 4, columns)
        assert outcomes["shared"] == outcomes["fresh"] == outcomes["scalar"]
    assert vec_module._TABLES


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2),
    sizes=st.sampled_from([[552], [64, 552, 1500]]),
    runs=st.lists(
        st.tuples(
            st.sampled_from(sorted(STORE_VARIANTS)), st.integers(1, 4), st.booleans()
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_table_store_equals_fresh_and_scalar(seed, sizes, runs):
    """Random sequences of drive calls, in random order, over variants
    that share and differ in each engine input, with and without a flow
    lookup on 1-4 cores: every run through the shared store equals a
    fresh-store run and the scalar run."""
    vec_module.clear_tables()
    columns = _store_columns(seed, sizes)
    for variant, cores, lookup in [("base", 1, runs[0][2])] + runs:
        outcomes = _store_outcomes(variant, cores, lookup, seed, columns)
        assert outcomes["shared"] == outcomes["fresh"] == outcomes["scalar"]


def test_table_store_shares_and_stays_in_budget():
    """A second drive call with equal engine inputs (another rate)
    compiles nothing its first compiled, and the store evicts the least
    recently used tables past MAX_TABLE_BYTES."""
    compiled = []
    original = vec_module._VecEngine._compile

    def counting(engine, sizes, buffers):
        compiled.append(tuple(sizes))
        return original(engine, sizes, buffers)

    config = SimulationConfig(scheduler="ldlp", duration=0.01)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vec_module._VecEngine, "_compile", counting)
        run_simulation(PoissonSource(9000.0, rng=1), config, seed=1)
        first = len(compiled)
        run_simulation(PoissonSource(9000.0, rng=1), config, seed=1)
        assert first > 0 and len(compiled) == first
        (table,) = vec_module._TABLES.values()
        patch.setattr(vec_module, "MAX_TABLE_BYTES", table.nbytes - 1)
        run_simulation(PoissonSource(9000.0, rng=1), config, seed=2)
        # The seed-2 table is the most recent; seed 1's went over budget.
        assert len(vec_module._TABLES) == 1
        assert next(iter(vec_module._TABLES.values())) is not table


# ----------------------------------------------------------------------
# Degenerate-input level: the PR 4 truthiness bug class


@pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_empty_and_singleton_streams(scheduler, policy):
    """Zero-length and length-1 arrival streams through every
    scheduler and drop policy, on both engines."""
    for arrivals in ([], [Arrival(time=0.001, size=552)]):
        config = SimulationConfig(
            scheduler=scheduler, drop_policy=policy, duration=0.01
        )
        outcomes = _run_both_engines(config, list(arrivals), seed=0)
        assert outcomes["scalar"] == outcomes["vec"]
        for engine in ENGINE_NAMES:
            counters = outcomes[engine][1]
            expected = float(len(arrivals))
            assert counters.get("messages.arrivals", 0.0) == expected
            assert counters.get("messages.completions", 0.0) == expected


# ----------------------------------------------------------------------
# Engine-selection seams


def test_unknown_engine_rejected():
    with pytest.raises(ConfigurationError):
        SimulationConfig(engine="turbo")

    scheduler = ConventionalScheduler(build_paper_stack(), MachineBinding())
    with pytest.raises(ConfigurationError):
        drive(scheduler, [], engine="turbo")


def test_vec_supported_envelope():
    """The static envelope: paper stacks vectorize, stateful stacks,
    unbound schedulers and oversized code working sets do not."""
    assert vec_supported(
        LDLPScheduler(build_paper_stack(), MachineBinding())
    )
    assert not vec_supported(
        ConventionalScheduler(build_paper_stack())  # no binding
    )
    counting = [
        CountingLayer(f"count{i}", LayerFootprint()) for i in range(2)
    ]
    assert not vec_supported(
        ConventionalScheduler(counting, MachineBinding())
    )
    # 12 KB of layer code = 384 lines in a 256-set I-cache: the code
    # working set conflicts with itself, so the static template is
    # unsound and the engine must decline (ablations A3 hits this).
    big = build_paper_stack(code_bytes=12288)
    assert not vec_supported(ConventionalScheduler(big, MachineBinding()))


#: Data-side placements whose static template would be unsound: ring
#: buffers larger than the 8 KiB D-cache, and layer data that conflicts
#: with itself (384 lines in 256 sets).
DATA_CONFLICTS = {
    "oversized-buffers": {"buffer_size": 12288},
    "self-conflicting-layer-data": {"layer_data_bytes": 12288},
}


@pytest.mark.parametrize("case", sorted(DATA_CONFLICTS))
def test_data_conflicts_decline_vec(case):
    """A D-side self-conflict declines vec, so the core steps scalar and
    the results are the scalar engine's."""
    config = SimulationConfig(
        scheduler="ldlp", duration=0.01, **DATA_CONFLICTS[case]
    )
    assert not vec_supported(build_scheduler(config, seed=5))
    arrivals = PoissonSource(6000.0, rng=5).arrival_list(config.duration)
    with _vec_steppers() as steppers:
        outcomes = _run_both_engines(config, arrivals, 5)
    assert steppers == [None]
    assert outcomes["scalar"] == outcomes["vec"]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    code_bytes=st.sampled_from([512, 6144, 8192, 8200, 12288]),
    data_bytes=st.sampled_from([0, 256, 8192, 8200, 12288]),
    buffer_size=st.sampled_from([552, 2048, 8192, 8193, 12288]),
    random_placement=st.booleans(),
)
def test_soundness_check_matches_per_array_reference(
    seed, code_bytes, data_bytes, buffer_size, random_placement
):
    """``vec_supported``'s one sort per cache agrees with a per-array
    ``np.unique`` check of every layer's code and data and every ring
    buffer, on random and sequential placements around the 8 KiB
    caches' size."""
    config = SimulationConfig(
        scheduler="ldlp",
        duration=0.01,
        layer_code_bytes=code_bytes,
        layer_data_bytes=data_bytes,
        buffer_size=buffer_size,
        random_placement=random_placement,
    )
    scheduler = build_scheduler(config, seed=seed)
    binding = scheduler.binding
    hierarchy = binding.cpu.hierarchy

    def distinct(lines, cache):
        return np.unique(lines % cache.num_lines).size == lines.size

    placed = [binding.placed_layer(layer.name) for layer in scheduler.layers]
    expected = (
        all(distinct(layer.code_lines, hierarchy.icache) for layer in placed)
        and all(distinct(layer.data_lines, hierarchy.dcache) for layer in placed)
        and all(
            distinct(buffer.lines_for(buffer.capacity), hierarchy.dcache)
            for buffer in binding.pool.buffers
        )
    )
    assert vec_supported(scheduler) == expected


def test_unsupported_stack_falls_back_to_scalar():
    """engine='vec' on an ineligible stack silently runs scalar and
    produces the scalar result."""
    counting = [
        CountingLayer(f"count{i}", LayerFootprint()) for i in range(3)
    ]
    scheduler = ConventionalScheduler(counting, MachineBinding())
    assert not vec_supported(scheduler)
    results = {}
    for engine in ENGINE_NAMES:
        config = SimulationConfig(
            scheduler="conventional",
            duration=0.01,
            layer_code_bytes=12288,
            engine=engine,
        )
        arrivals = PoissonSource(3000.0, rng=1).arrival_list(config.duration)
        result = run_simulation(
            PoissonSource(3000.0, rng=1), config, seed=1, arrivals=arrivals
        )
        results[engine] = canonical_json(result.to_dict())
    assert results["scalar"] == results["vec"]


def test_span_keeping_recorder_uses_scalar_path():
    """Full tracing needs per-layer invoke spans, which only the
    scalar path emits: under a keep_spans recorder the vec engine must
    stand aside, and the trace must contain layer tracks."""
    config = SimulationConfig(duration=0.005, engine="vec")
    arrivals = PoissonSource(5000.0, rng=0).arrival_list(config.duration)
    recorder = Recorder(keep_spans=True)
    with recording(recorder):
        run_simulation(PoissonSource(5000.0, rng=0), config, seed=0,
                       arrivals=arrivals)
    tracks = set(recorder.tracks())
    assert "layer0" in tracks
    assert any(span.name == "invoke" for span in recorder.spans)


#: Runs whose counters must not depend on the recorder mode: every
#: scheduler, a cache-flushed run, and a 2-core dispatched run that
#: overflows its 4-deep queues.
COUNTER_IDENTITY_CASES = {
    **{
        name: (SimulationConfig(scheduler=name, duration=0.02), 12000.0)
        for name in SCHEDULER_NAMES
    },
    "flushed": (
        SimulationConfig(
            scheduler="ldlp", duration=0.02,
            flush_period_cycles=campaign_plan().flush_period_cycles,
        ),
        12000.0,
    ),
    "dispatched": (
        SimulationConfig(
            scheduler="conventional", dispatch="rss", num_cores=2,
            input_limit=4, duration=0.02,
        ),
        30000.0,
    ),
}


@pytest.mark.parametrize("case", sorted(COUNTER_IDENTITY_CASES))
def test_counters_identical_with_and_without_spans(case):
    """The same run under a span-keeping and a metrics-only recorder,
    on both engines, counts exactly the same: skipping spans on the
    metrics-only path and tallying the drive counters per call must
    not change a bit (nor which counters exist)."""
    config, rate = COUNTER_IDENTITY_CASES[case]
    arrivals = PoissonSource(rate, rng=5).arrival_list(config.duration)
    seen = {}
    for engine in ENGINE_NAMES:
        for keep_spans in (True, False):
            recorder = Recorder(keep_spans=keep_spans)
            with recording(recorder):
                result = run_simulation(
                    PoissonSource(rate, rng=5), replace(config, engine=engine),
                    seed=5, arrivals=arrivals,
                )
            seen[engine, keep_spans] = (
                canonical_json(result.to_dict()), recorder.counters.as_dict()
            )
    assert len(set(map(repr, seen.values()))) == 1
    counters = seen["vec", False][1]
    assert counters["messages.arrivals"] == len(arrivals)
    if case == "flushed":
        assert counters["faults.cache_flushes"] > 0
    if case == "dispatched":
        assert counters["messages.drops"] > 0
        assert counters["dispatch.core0.drops"] + counters["dispatch.core1.drops"] == (
            counters["messages.drops"]
        )


def test_latency_sample_order_is_identical():
    """Not just summary statistics: the raw per-completion latency
    sample sequences match, which pins completion *order*."""
    for scheduler_name in SCHEDULER_NAMES:
        config = SimulationConfig(scheduler=scheduler_name, duration=0.01)
        arrivals = PoissonSource(12000.0, rng=7).arrival_list(config.duration)
        samples = {}
        for engine in ENGINE_NAMES:
            scheduler = build_scheduler(config, seed=7)
            timestamped = [
                (a.time, Message(size=a.size, arrival_time=a.time))
                for a in arrivals
            ]
            stats = drive(scheduler, timestamped, engine=engine)
            samples[engine] = list(stats.latency._samples)
        assert samples["scalar"] == samples["vec"], scheduler_name
