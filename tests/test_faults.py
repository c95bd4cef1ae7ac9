"""Fault injection, drop policies, and overload robustness.

Pins the repro.faults contract: injectors are deterministic per seed
and JSON round-trippable; every injected corruption is either detected
by the checksum reject path or leaves the bytes unchanged; the two
checksum routines never disagree; and whatever the faults do, admission
accounting conserves — ``offered == completed + dropped`` once the
queue drains — for every scheduler under every drop policy.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.harnesscheck import (
    check_sweep_coverage,
    import_closure,
    module_path,
)
from repro.buffers.pool import MbufPool
from repro.core import (
    AdaptiveBatchBackoff,
    ConventionalScheduler,
    HeadDrop,
    QueueCap,
    TailDrop,
    make_drop_policy,
)
from repro.core.layer import LayerFootprint, Message, PassthroughLayer
from repro.errors import (
    BufferError_,
    ChecksumError,
    ConfigurationError,
    TraceError,
)
from repro.faults import (
    CorruptFault,
    DelayFault,
    DuplicateFault,
    FaultPlan,
    LossFault,
    MbufExhaustionWindows,
    ReorderFault,
    TruncateFault,
    flip_bytes,
    stage_from_params,
)
from repro.faults.campaigns import SWEEP, campaign_plan, fault_point
from repro.gossip.fleet import GossipFleetSource, GossipFleetSpec
from repro.protocols.checksum import (
    internet_checksum,
    internet_checksum_unrolled,
    verify_checksum,
)
from repro.sim.runner import (
    SCHEDULER_NAMES,
    SimulationConfig,
    run_simulation,
)
from repro.traffic.bellcore import TraceSource, read_bellcore_trace
from repro.traffic.poisson import PoissonSource
from repro.traffic.zipf import ZipfFlowSource

ALL_STAGES = (
    LossFault(rate=0.1),
    DuplicateFault(rate=0.1),
    ReorderFault(rate=0.2, span=5),
    DelayFault(rate=0.1, mean=5e-4),
    TruncateFault(rate=0.1),
    CorruptFault(rate=0.2),
)


def make_arrivals(count=200, seed=0):
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.exponential(1e-4, size=count))
    return {"time": times.tolist(), "size": [552] * count}


def rows(columns):
    """A stream's arrivals as tuples, one per arrival, in column order."""
    return list(zip(*columns.values()))


def make_frames(count=64, seed=0):
    rng = np.random.default_rng(seed)
    return [
        rng.integers(0, 256, size=int(rng.integers(20, 600)), dtype=np.uint8)
        .tobytes()
        for _ in range(count)
    ]


class TestInjectorDeterminism:
    @pytest.mark.parametrize("stage", ALL_STAGES, ids=lambda s: s.kind)
    def test_same_seed_same_stream(self, stage):
        plan = FaultPlan(stages=(stage,))
        arrivals = make_arrivals()
        assert plan.apply(arrivals, 7) == plan.apply(arrivals, 7)
        frames = make_frames()
        assert plan.apply_frames(frames, 7) == plan.apply_frames(frames, 7)

    def test_different_seed_different_stream(self):
        plan = FaultPlan(stages=(LossFault(rate=0.3),))
        arrivals = make_arrivals(count=400)
        assert plan.apply(arrivals, 0) != plan.apply(arrivals, 1)

    def test_stage_rng_independent_of_other_stages(self):
        # Adding a stage must not reshuffle what an existing stage does.
        arrivals = make_arrivals()
        alone = FaultPlan(stages=(LossFault(rate=0.2),)).apply(arrivals, 3)
        stacked = FaultPlan(
            stages=(LossFault(rate=0.2), DelayFault(rate=0.0))
        ).apply(arrivals, 3)
        assert alone["size"] == stacked["size"]

    def test_original_list_never_mutated(self):
        arrivals = make_arrivals(count=50)
        copy = {name: list(column) for name, column in arrivals.items()}
        FaultPlan(stages=ALL_STAGES).apply(arrivals, 0)
        assert arrivals == copy
        for stage in ALL_STAGES:
            out = stage.apply(arrivals, np.random.default_rng(0))
            assert arrivals == copy
            assert all(out[name] is not arrivals[name] for name in arrivals)


class TestInjectorSemantics:
    def test_loss_removes_only(self):
        arrivals = make_arrivals(count=500)
        survivors = FaultPlan(stages=(LossFault(rate=0.3),)).apply(arrivals, 0)
        assert 0 < len(survivors["time"]) < 500
        assert set(rows(survivors)) <= set(rows(arrivals))

    def test_duplicate_adds_time_shifted_copies(self):
        arrivals = make_arrivals(count=300)
        out = FaultPlan(stages=(DuplicateFault(rate=0.5, delay=1e-5),)).apply(
            arrivals, 0
        )
        assert len(out["time"]) > 300
        assert out["time"] == sorted(out["time"])

    def test_reorder_keeps_timestamps(self):
        arrivals = make_arrivals(count=300)
        out = FaultPlan(stages=(ReorderFault(rate=0.5, span=4),)).apply(
            arrivals, 0
        )
        assert sorted(rows(out)) == rows(arrivals)
        assert out != arrivals  # the delivery order did change

    def test_delay_only_increases_times(self):
        arrivals = make_arrivals(count=300)
        out = FaultPlan(stages=(DelayFault(rate=0.5, mean=1e-3),)).apply(
            arrivals, 0
        )
        assert len(out["time"]) == 300
        assert out["time"] == sorted(out["time"])
        assert sum(out["time"]) > sum(arrivals["time"])

    def test_truncate_shrinks_sizes(self):
        arrivals = make_arrivals(count=300)
        out = FaultPlan(stages=(TruncateFault(rate=0.5),)).apply(arrivals, 0)
        sizes = out["size"]
        assert all(type(size) is int for size in sizes)
        assert min(sizes) >= 1
        assert min(sizes) < 552 and max(sizes) == 552

    def test_stages_keep_flow_tags(self):
        """Copied, delayed and cut arrivals keep their flow: a faulted
        flow-tagged stream that lost its flow column would read as flow
        0 throughout."""
        flowed = ZipfFlowSource(
            PoissonSource(11000.0, rng=1), num_flows=64, skew=1.1, seed=1
        ).arrival_columns(0.05)
        assert len(set(flowed["flow"])) > 1

        def apply(stage):
            out = FaultPlan(stages=(stage,)).apply(flowed, 1)
            assert list(out) == ["time", "size", "flow"]
            return out

        def pairs(columns):
            return sorted(zip(columns["flow"], columns["size"]))

        delayed = apply(DelayFault(rate=0.02))
        assert pairs(delayed) == pairs(flowed)
        assert delayed != flowed
        duplicated = apply(DuplicateFault(rate=1.0, delay=1e-5))
        assert pairs(duplicated) == sorted(2 * pairs(flowed))
        cut = apply(TruncateFault(rate=1.0))
        assert (cut["time"], cut["flow"]) == (flowed["time"], flowed["flow"])
        assert all(size < 552 for size in cut["size"])

    def test_truncate_clamps_gossip_header_bytes(self):
        """A datagram cut inside its headers keeps its kind and peer and
        carries only header bytes: ``header_bytes`` is clamped to the
        cut size, so no datagram has more header bytes than bytes."""
        datagrams = GossipFleetSource(
            GossipFleetSpec(num_peers=100, rate=8000.0, seed=2)
        ).arrival_columns(0.02)
        cut = FaultPlan(stages=(TruncateFault(rate=1.0),)).apply(datagrams, 0)
        assert list(cut) == list(datagrams)
        for name in ("time", "flow", "kind", "community", "messages"):
            assert cut[name] == datagrams[name]
        for size, header, before_size, before_header in zip(
            cut["size"], cut["header_bytes"], datagrams["size"],
            datagrams["header_bytes"],
        ):
            assert size < before_size
            assert header == min(before_header, size)
        assert any(
            a < b for a, b in zip(cut["header_bytes"], datagrams["header_bytes"])
        )

    def test_truncate_frames_respects_min_size(self):
        frames = make_frames()
        out = FaultPlan(stages=(TruncateFault(rate=1.0, min_size=8),)).apply_frames(
            frames, 0
        )
        assert all(len(f) >= 8 for f in out)
        assert any(len(f) < len(g) for f, g in zip(out, frames))

    def test_corrupt_is_identity_on_arrivals(self):
        arrivals = make_arrivals(count=50)
        assert FaultPlan(stages=(CorruptFault(rate=1.0),)).apply(arrivals, 0) == (
            arrivals
        )

    def test_corrupt_changes_frame_bytes(self):
        frames = make_frames()
        out = FaultPlan(stages=(CorruptFault(rate=1.0),)).apply_frames(frames, 0)
        assert all(len(f) == len(g) for f, g in zip(out, frames))
        assert all(f != g for f, g in zip(out, frames))

    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            LossFault(rate=1.5)
        with pytest.raises(ConfigurationError):
            ReorderFault(span=0)
        with pytest.raises(ConfigurationError):
            DelayFault(mean=0.0)
        with pytest.raises(ConfigurationError):
            CorruptFault(max_flips=0)


class TestPlanRoundTrip:
    def test_stage_round_trip(self):
        for stage in ALL_STAGES:
            assert stage_from_params(stage.to_params()) == stage

    def test_plan_round_trip_and_json(self):
        plan = FaultPlan(
            stages=ALL_STAGES,
            flush_period_cycles=1e6,
            clock_derate=0.5,
            mbuf_windows=MbufExhaustionWindows(period=50, width=5, start=10),
        )
        params = json.loads(json.dumps(plan.to_params()))
        assert FaultPlan.from_params(params) == plan

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "params",
        [{"kind": "duplicate", "delay": None}, {"kind": "delay", "mean": None}],
        ids=["duplicate.delay", "delay.mean"],
    )
    def test_non_finite_stage_parameters_rejected(self, params, value):
        """A NaN duplicate delay once gave copies NaN times that the run
        then lost without an error, and an infinite one (or an infinite
        mean delay) broke message conservation deep in the drive."""
        field = next(name for name in params if name != "kind")
        with pytest.raises(ConfigurationError, match="finite"):
            stage_from_params({**params, field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_flush_period_must_be_positive_and_finite(self, value):
        """The plan rejects a flush period ``SimulationConfig`` would."""
        with pytest.raises(ConfigurationError, match="positive and finite"):
            FaultPlan.from_params({"flush_period_cycles": value})
        with pytest.raises(ConfigurationError, match="positive and finite"):
            SimulationConfig(flush_period_cycles=value)

    def test_unknown_stage_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            stage_from_params({"kind": "gamma-ray"})

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_params({"stages": [], "typo": 1})

    def test_derate_validation_and_spec(self):
        from repro.cache.hierarchy import MachineSpec

        with pytest.raises(ConfigurationError):
            FaultPlan(clock_derate=0.0)
        with pytest.raises(ConfigurationError):
            FaultPlan(clock_derate=1.5)
        spec = FaultPlan(clock_derate=0.5).derated_spec(MachineSpec())
        assert spec.clock_hz == pytest.approx(50e6)

    def test_exhaustion_window_validation(self):
        with pytest.raises(ConfigurationError):
            MbufExhaustionWindows(period=10, width=10)
        with pytest.raises(ConfigurationError):
            MbufExhaustionWindows(period=0)


class TestChecksumRejectPaths:
    @given(data=st.binary(min_size=0, max_size=2000))
    @settings(max_examples=200, deadline=None)
    def test_routines_never_disagree(self, data):
        assert internet_checksum(data) == internet_checksum_unrolled(data)

    @given(data=st.binary(min_size=1, max_size=600), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_routines_agree_after_corruption(self, data, seed):
        corrupted = flip_bytes(data, np.random.default_rng(seed))
        assert internet_checksum(corrupted) == internet_checksum_unrolled(corrupted)

    @given(data=st.binary(min_size=1, max_size=600), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_single_byte_flip_always_detected(self, data, seed):
        expected = internet_checksum(data)
        corrupted = flip_bytes(data, np.random.default_rng(seed), max_flips=1)
        assert corrupted != data
        assert internet_checksum(corrupted) != expected
        with pytest.raises(ChecksumError):
            verify_checksum(corrupted, expected)

    @given(data=st.binary(min_size=1, max_size=600), seed=st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_corruption_detected_or_harmless(self, data, seed):
        # The reject path fires exactly when the bytes changed in a way
        # the 16-bit checksum can see; flip_bytes guarantees the bytes
        # changed, so "undetected" requires a genuine checksum collision
        # — both routines must then agree it collided (no split-brain).
        expected = internet_checksum(data)
        corrupted = flip_bytes(data, np.random.default_rng(seed))
        detected = internet_checksum(corrupted) != expected
        if detected:
            with pytest.raises(ChecksumError):
                verify_checksum(corrupted, expected)
        else:
            assert internet_checksum_unrolled(corrupted) == expected


class TestDropPolicies:
    def _scheduler(self, policy, limit=4):
        footprint = LayerFootprint(
            code_bytes=64, data_bytes=16, base_cycles=1.0, per_byte_cycles=0.0
        )
        return ConventionalScheduler(
            [PassthroughLayer("l0", footprint)],
            None,
            limit,
            drop_policy=policy,
        )

    def test_tail_drop_rejects_newest(self):
        scheduler = self._scheduler(TailDrop())
        messages = [Message(size=1, arrival_time=0.0) for _ in range(6)]
        accepted = [scheduler.enqueue_arrival(m) for m in messages]
        assert accepted == [True] * 4 + [False] * 2
        assert scheduler.drops == 2
        assert list(scheduler.input_queue) == messages[:4]

    def test_head_drop_evicts_oldest(self):
        scheduler = self._scheduler(HeadDrop())
        messages = [Message(size=1, arrival_time=0.0) for _ in range(6)]
        accepted = [scheduler.enqueue_arrival(m) for m in messages]
        assert accepted == [True] * 6
        assert scheduler.drops == 2
        assert list(scheduler.input_queue) == messages[2:]

    def test_queue_cap_drops_early(self):
        scheduler = self._scheduler(QueueCap(cap=2), limit=10)
        messages = [Message(size=1, arrival_time=0.0) for _ in range(5)]
        accepted = [scheduler.enqueue_arrival(m) for m in messages]
        assert accepted == [True, True, False, False, False]
        assert scheduler.drops == 3

    def test_conservation_counter_identity(self):
        for policy in (TailDrop(), HeadDrop(), QueueCap(cap=2)):
            scheduler = self._scheduler(policy)
            for _ in range(10):
                scheduler.enqueue_arrival(Message(size=1, arrival_time=0.0))
            assert scheduler.arrivals == 10
            assert scheduler.drops + len(scheduler.input_queue) == 10

    def test_adaptive_batch_scaling(self):
        policy = AdaptiveBatchBackoff(min_batch=2)
        assert policy.batch_limit(14, 0, 500) == 2     # empty: floor
        assert policy.batch_limit(14, 500, 500) == 14  # full: cache fit
        limits = [policy.batch_limit(14, q, 500) for q in range(0, 501, 50)]
        assert limits == sorted(limits)                # monotone in depth
        assert all(2 <= limit <= 14 for limit in limits)

    def test_registry(self):
        assert make_drop_policy("head").name == "head"
        assert make_drop_policy("batch-cap", cap=7).cap == 7
        with pytest.raises(ConfigurationError):
            make_drop_policy("coin-flip")
        with pytest.raises(ConfigurationError):
            QueueCap(cap=0)
        with pytest.raises(ConfigurationError):
            AdaptiveBatchBackoff(min_batch=0)


class TestBulkAdmission:
    """One ``enqueue_arrivals`` call over a run of n messages is n
    one-message calls: same queue, evictions and counters."""

    POLICIES = {
        "tail": lambda cap: TailDrop(),
        "head": lambda cap: HeadDrop(),
        "batch-cap": lambda cap: QueueCap(cap=cap),
        "adaptive": lambda cap: AdaptiveBatchBackoff(),
    }

    @pytest.mark.parametrize("policy", sorted(POLICIES))
    @settings(max_examples=60, deadline=None)
    @given(
        queued=st.integers(0, 12),
        capacity=st.integers(1, 12),
        cap=st.integers(1, 12),
        n=st.integers(0, 15),
    )
    def test_one_run_equals_one_message_at_a_time(self, policy, queued, capacity, cap, n):
        waiting = [Message(size=1) for _ in range(queued)]
        offered = [Message(size=1) for _ in range(n)]
        outcomes = []
        for bulk in (True, False):
            scheduler = ConventionalScheduler(
                [PassthroughLayer("l0")], None, capacity,
                drop_policy=self.POLICIES[policy](cap),
            )
            # A queue may start deeper than the buffer (cap or capacity
            # below what is already queued): nothing is admitted then.
            scheduler.input_queue.extend(waiting)
            if bulk:
                lost = scheduler.enqueue_arrivals(offered)
            else:
                lost = sum(scheduler.enqueue_arrivals([message]) for message in offered)
            queue = list(scheduler.input_queue)
            gone = [message for message in waiting + offered if message not in queue]
            outcomes.append((
                [id(message) for message in queue],
                [id(message) for message in gone],
                lost,
                scheduler.drops,
                scheduler.arrivals,
            ))
        assert outcomes[0] == outcomes[1]
        queue_ids, gone_ids, lost, drops, arrivals = outcomes[0]
        assert (lost, drops, arrivals) == (len(gone_ids), len(gone_ids), n)


class TestConservationUnderFaults:
    @pytest.mark.parametrize("scheduler", SCHEDULER_NAMES)
    @pytest.mark.parametrize("stage", ALL_STAGES, ids=lambda s: s.kind)
    def test_every_injector_every_scheduler(self, scheduler, stage):
        duration = 0.02
        config = SimulationConfig(scheduler=scheduler, duration=duration)
        source = PoissonSource(11000.0, rng=0)
        columns = FaultPlan(stages=(stage,)).apply(
            source.arrival_columns(duration), 0
        )
        result = run_simulation(source, config, seed=0, columns=columns)
        assert result.completed > 0
        assert result.offered == result.completed + result.dropped

    @pytest.mark.parametrize("policy", ("tail", "head", "batch-cap", "adaptive"))
    @pytest.mark.parametrize("scheduler", ("conventional", "ldlp"))
    def test_every_policy_under_combined_plan(self, scheduler, policy):
        duration = 0.02
        plan = FaultPlan(stages=ALL_STAGES, flush_period_cycles=5e5)
        config = SimulationConfig(
            scheduler=scheduler,
            duration=duration,
            drop_policy=policy,
            input_limit=40,
            flush_period_cycles=plan.flush_period_cycles,
        )
        source = PoissonSource(14000.0, rng=1)
        columns = plan.apply(source.arrival_columns(duration), 1)
        result = run_simulation(source, config, seed=1, columns=columns)
        assert result.completed > 0
        assert result.offered == result.completed + result.dropped

    def test_default_policy_matches_legacy_tail_drop(self):
        duration = 0.03
        source = PoissonSource(12000.0, rng=0)
        columns = source.arrival_columns(duration)
        base = SimulationConfig(scheduler="ldlp", duration=duration)
        explicit = SimulationConfig(
            scheduler="ldlp", duration=duration, drop_policy="tail"
        )
        first = run_simulation(source, base, seed=0, columns=columns)
        second = run_simulation(source, explicit, seed=0, columns=columns)
        assert first.to_dict() == second.to_dict()


class TestEnvironmentFaults:
    def test_cache_flush_costs_extra_misses(self):
        duration = 0.02
        source = PoissonSource(8000.0, rng=0)
        columns = source.arrival_columns(duration)
        clean = run_simulation(
            source,
            SimulationConfig(scheduler="ldlp", duration=duration),
            seed=0,
            columns=columns,
        )
        flushed = run_simulation(
            source,
            SimulationConfig(
                scheduler="ldlp", duration=duration, flush_period_cycles=1e5
            ),
            seed=0,
            columns=columns,
        )
        assert flushed.offered == flushed.completed + flushed.dropped
        assert flushed.misses.total > clean.misses.total

    def test_flush_period_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(flush_period_cycles=0.0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(drop_policy="nonsense")

    def test_mbuf_exhaustion_windows(self):
        pool = MbufPool(limit=1024)
        windows = MbufExhaustionWindows(period=10, width=3, start=5)
        pool.set_fault_gate(windows.gate())
        outcomes = []
        held = []
        for _ in range(25):
            try:
                held.append(pool.alloc())
                outcomes.append(True)
            except BufferError_:
                outcomes.append(False)
        # Attempts 5,6,7 and 15,16,17 fall inside the carved windows.
        expected = [i < 5 or (i - 5) % 10 >= 3 for i in range(25)]
        assert outcomes == expected
        assert pool.stats.denied == outcomes.count(False)
        pool.set_fault_gate(None)
        held.append(pool.alloc())  # gate cleared: allocation works again
        for mbuf in held:
            pool.free(mbuf)
        pool.verify_balanced()


class TestSatelliteFixes:
    def test_bellcore_rejects_dirty_traces(self, tmp_path):
        cases = {
            "negative.txt": "-1.0 64\n",
            "backwards.txt": "1.0 64\n0.5 64\n",
            "oversize.txt": "0.0 9999\n",
            "runt.txt": "0.0 0\n",
        }
        for name, body in cases.items():
            path = tmp_path / name
            path.write_text(body)
            with pytest.raises(TraceError) as excinfo:
                read_bellcore_trace(path)
            message = str(excinfo.value)
            assert str(path) in message and "clamp" in message
            # file:line points at the offending record
            assert f"{path}:{body.count(chr(10))}" in message

    def test_bellcore_clamp_escape_hatch(self, tmp_path):
        path = tmp_path / "dirty.txt"
        path.write_text("-1.0 64\n0.5 9999\n0.2 0\n")
        assert read_bellcore_trace(path, clamp=True) == {
            "time": [0.0, 0.5, 0.5], "size": [64, 1518, 1],
        }

    def test_run_simulation_empty_stream_rate_zero(self):
        result = run_simulation(
            TraceSource({"time": [], "size": []}),
            SimulationConfig(scheduler="ldlp", duration=0.01),
            seed=0,
        )
        assert result.arrival_rate == 0.0
        assert result.offered == 0 and result.completed == 0

    def test_run_simulation_array_batch_sizes(self, monkeypatch):
        # A scheduler exposing batch_sizes as a numpy array used to hit
        # "truth value of an array is ambiguous" in run_simulation.
        from repro.core.scheduler import LDLPScheduler

        original = LDLPScheduler.service_step

        def service_step(self):
            self.batch_sizes = list(self.batch_sizes)
            completions = original(self)
            self.batch_sizes = np.asarray(self.batch_sizes)
            return completions

        monkeypatch.setattr(LDLPScheduler, "service_step", service_step)
        result = run_simulation(
            PoissonSource(8000.0, rng=0),
            SimulationConfig(scheduler="ldlp", duration=0.01),
            seed=0,
        )
        assert result.mean_batch_size >= 1.0


    @pytest.mark.parametrize(
        "argv",
        [
            ["injectors", "--duration", "-1"],
            ["injectors", "--duration", "nan"],
            ["injectors", "--rate", "0"],
            ["degradation", "--jobs", "0"],
        ],
    )
    def test_faults_cli_rejects_bad_arguments(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        """Bad arguments are usage errors (exit 2) before any run, not
        exit 1, which means an injector failed."""
        from repro.faults.cli import main as faults_main

        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            faults_main(argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert argv[1] in captured.err and captured.out == ""
        assert list(tmp_path.iterdir()) == []  # no cache written


class TestCampaigns:
    def test_fault_point_deterministic_and_conserving(self):
        params = dict(
            scheduler="ldlp",
            policy="head",
            rate=12000.0,
            seeds=[0, 1],
            duration=0.02,
            plan=campaign_plan().to_params(),
        )
        first = fault_point(**params)
        second = fault_point(**params)
        assert first == second
        assert first["conservation_violations"] == 0
        assert first["result"]["completed"] > 0

    def test_sweep_points_unique_and_serializable(self):
        for scale in ("ci", "default"):
            points = SWEEP.points_for(scale)
            assert len({p.key for p in points}) == len(points)
            json.dumps([p.params for p in points])

    def test_quantities_cover_every_policy_at_top_rate(self):
        points = SWEEP.points_for("ci")
        results = {
            p.key: {
                "result": {
                    "scheduler": p.params["scheduler"],
                    "arrival_rate": float(p.params["rate"]),
                    "offered": 10,
                    "completed": 9,
                    "dropped": 1,
                    "duration": 0.1,
                    "latency": {
                        "count": 9, "mean": 1e-3, "median": 1e-3,
                        "p95": 2e-3, "p99": 3e-3, "maximum": 4e-3,
                    },
                    "misses": {"instruction": 1.0, "data": 1.0},
                    "cycles_per_message": 100.0,
                    "mean_batch_size": 1.0,
                },
                "policy": p.params["policy"],
                "conservation_violations": 0,
            }
            for p in points
        }
        quantities = SWEEP.quantities(points, results)
        for scheduler in ("conventional", "ilp", "ldlp"):
            for policy in ("tail", "head"):
                assert f"{scheduler}/{policy}/drop_frac" in quantities
                assert f"{scheduler}/{policy}/p99_ms" in quantities


class TestHarnessCheck:
    def test_module_path_resolution(self):
        assert module_path("repro.sim.runner").name == "runner.py"
        assert module_path("repro.core").name == "__init__.py"
        assert module_path("repro.no.such.module") is None
        assert module_path("numpy") is None

    def test_closure_follows_real_imports_only(self):
        closure = import_closure("repro.sim.runner")
        assert "repro.core.scheduler" in closure    # direct import
        assert "repro.obs.runtime" in closure       # transitive
        assert "repro.cache.hierarchy" in closure
        # No experiment module is reachable from the simulator.
        assert not any(m.startswith("repro.experiments") for m in closure)

    def test_repo_specs_all_clean(self):
        assert check_sweep_coverage() == []
