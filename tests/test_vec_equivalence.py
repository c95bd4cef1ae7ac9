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
  dispatched multi-core runs, where each core picks its own engine,
  and conventional/ILP runs whose queued steps the vec engine replays
  several at a time (latency sample order included), with and without
  a flow lookup.
* **Degenerate-input level** — zero-length and length-1 arrival
  streams through every scheduler and drop policy (the PR 4
  ``len()``-truthiness bug class).

Plus the template compiler (shared, collapsed code plans) and the
engine-selection seams: config validation, the static
``vec_supported`` envelope, and the silent scalar fallbacks.
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

import repro.sim.vec as vec_module
from repro.cache.cache import DirectMappedCache
from repro.cache.chunked import SegmentedAccessPlan, collapsed_plan
from repro.cache.hierarchy import CacheGeometry, SplitCacheHierarchy
from repro.core.batching import BatchPolicy
from repro.core.binding import MachineBinding
from repro.core.dispatch import DISPATCH_POLICIES
from repro.core.layer import CountingLayer, LayerFootprint, Message
from repro.core.overload import DROP_POLICIES
from repro.core.scheduler import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    LDLPScheduler,
)
from repro.errors import ConfigurationError
from repro.faults.campaigns import campaign_plan
from repro.flows import FLOW_CACHE_ORGS, FlowCacheSpec
from repro.flows.runner import (
    FlowRunResult,
    _tag_flow,
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
from repro.harness.points import point_accepts_engine, with_engine
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
    run_simulation,
    simulate,
)
from repro.sim.multicore import run_multicore
from repro.sim.vec import vec_supported
from repro.traffic.base import Arrival
from repro.traffic.poisson import PoissonSource
from repro.traffic.zipf import ZipfFlowSource

POLICY_NAMES = tuple(sorted(DROP_POLICIES))


def _run_both_engines(config, arrivals, seed, flow_cache=None, tag=None):
    """One config on both engines under a metrics recorder; returns
    {engine: (canonical result JSON, counters dict, latency samples)}.
    With a ``flow_cache`` the result carries the lookup counters."""
    outcomes = {}
    for engine in ENGINE_NAMES:
        recorder = Recorder(keep_spans=False)
        with recording(recorder):
            result, cores, stats = simulate(
                PoissonSource(1000.0, rng=seed),
                replace(config, engine=engine),
                seed=seed,
                arrivals=arrivals,
                tag=tag,
                flow_cache=flow_cache,
            )
        if flow_cache is not None:
            result = FlowRunResult.of(result, cores)
        outcomes[engine] = (
            canonical_json(result.to_dict()),
            recorder.counters.as_dict(),
            list(stats.latency._samples),
        )
    return outcomes


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
        spec = with_engine(get_spec(name), engine)
        recorder = Recorder(keep_spans=False)
        with recording(recorder):
            runs[engine] = run_experiment(
                spec, scale="ci", jobs=1, cache=ResultCache(enabled=False)
            )
        totals[engine] = recorder.counters.as_dict()
    assert result_digests(runs["scalar"].results) == result_digests(runs["vec"].results)
    assert totals["scalar"] == totals["vec"]
    vec = runs["vec"]
    assert check_digests(name, load_golden(name, "ci", root=GOLDENS), vec.results) == []
    assert check_claims(get_spec(name), vec.points, vec.results) == []
    counters = totals["vec"]
    if counters.get("messages.arrivals"):
        # Every simulated drive loop runs until the queue drains, so
        # arrivals must be fully accounted as completions + drops.
        assert counters["messages.arrivals"] == (
            counters.get("messages.completions", 0.0)
            + counters.get("messages.drops", 0.0)
        )


def test_engine_tagging_only_touches_sim_points():
    """with_engine pins sim-backed points and leaves analytic ones."""
    faults = with_engine(get_spec("faults"), "scalar").points_for("ci")
    assert all(point.params["engine"] == "scalar" for point in faults)
    table1 = get_spec("table1")
    assert [
        point.params for point in with_engine(table1, "scalar").points_for("ci")
    ] == [point.params for point in table1.points_for("ci")]
    assert not any(
        point_accepts_engine(point) for point in table1.points_for("ci")
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
    from repro.cache.hierarchy import MachineSpec

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
        # Duplicates come back as plain arrivals: tagged flow 0.
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
    # A short Bellcore-style stream can be all OFF period.
    assert (outcomes["vec"][1].get("flows.lookups", 0.0) > 0) == bool(arrivals)


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
            config, arrivals, seed, cache, _tag_flow if tagged else None
        )
    assert outcomes["scalar"] == outcomes["vec"]


#: Saturated conventional runs that fill an 8-deep queue, each as
#: (config changes, flow cache, Zipf-tagged arrivals, multi-step): only
#: the first replays several steps at once, with or without a flow
#: lookup; head drop, a flush period and a second core each keep
#: single steps.
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
    "two-cores": ({"num_cores": 2, "dispatch": "rss"}, None, False, False),
}


@pytest.mark.parametrize("case", sorted(MULTI_STEP_ENVELOPE_CASES))
def test_multi_step_envelope(case):
    """Multi-step replay engages only inside its envelope, and every
    case stays byte-identical to scalar, latency order included."""
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
            config, arrivals, 2, flow_cache, _tag_flow if tagged else None
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
        len(key) for stepper in steppers for key in stepper.__self__._templates
    }
    assert len(steppers) == config.num_cores
    assert (max(replayed) == vec_module.MAX_STEPS) if multi else replayed == {1}


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
    assert replay.iplan.num_segments == len(scheduler.layers)
    code_lines = sum(
        binding.placed_layer(layer.name).code_lines.size
        for layer in scheduler.layers
    )
    assert replay.iplan.repeat_hits == 13 * code_lines
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
    misses, evictions and tags exactly as the full plan and the scalar
    per-call path leave them, from any starting cache state."""
    num_lines = 32
    rng = np.random.default_rng(len(runs))
    blocks = [
        rng.choice(4 * num_lines, size=8, replace=False) for _ in range(4)
    ]
    # Distinct sets within a block, so both plans are supported.
    blocks = [block[np.unique(block % num_lines, return_index=True)[1]] for block in blocks]
    segments = [blocks[block] for block, repeat in runs for _ in range(repeat)]
    caches = []
    for _ in range(3):
        cache = DirectMappedCache(num_lines * 32, 32)
        cache.access_stream(np.asarray(warm, dtype=np.int64))
        caches.append(cache)
    full_cache, collapsed_cache, scalar_cache = caches
    full = SegmentedAccessPlan(
        np.concatenate(segments),
        np.cumsum([0] + [segment.size for segment in segments]),
        num_lines,
    )
    collapsed, kept = collapsed_plan(segments, num_lines)
    full_misses = full.apply(full_cache.tag_array, full_cache.stats)
    kept_misses = collapsed.apply(collapsed_cache.tag_array, collapsed_cache.stats)
    scalar_misses = [
        scalar_cache.access_line_array_report(segment).size for segment in segments
    ]
    assert full_misses.tolist() == scalar_misses
    assert collapsed.num_segments == len(kept) <= full.num_segments
    assert kept_misses.tolist() == full_misses[kept].tolist()
    elided = np.ones(len(segments), dtype=bool)
    elided[kept] = False
    assert not full_misses[elided].any()
    for cache in (full_cache, scalar_cache):
        assert collapsed_cache.stats == cache.stats
        assert np.array_equal(collapsed_cache.tag_array, cache.tag_array)


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
            addends[5 * position + 4] = placed.profile.compute_cycles(sizes[slot])
        else:
            data_segments.append(placed.data_lines[:0])
            addends[5 * position + 4] = placed.profile.base_cycles
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
            getattr(hierarchy, name).access_stream(warm)
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


def test_vec_plans_keep_no_mask_arrays():
    """Only element-sequential unit plans can return a miss mask."""
    lines = np.arange(4, dtype=np.int64)
    plans = (
        SegmentedAccessPlan(lines, np.asarray([0, 4]), 8),
        collapsed_plan([lines, lines], 8)[0],
    )
    for plan in plans:
        with pytest.raises(ValueError):
            plan.apply(np.full(8, -1, dtype=np.int64), return_mask=True)


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
