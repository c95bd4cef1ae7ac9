"""Tests of the multi-core machine, dispatch policies, and sweep.

The two acceptance pins of the multi-core work live here: (1) with one
core, every dispatch policy reproduces the single-core benchmark
bit-identically for every scheduler, and (2) the whole multicore sweep
is byte-identical across harness worker counts and repeat runs.  Plus
the RSS balance property: flow-hash dispatch spreads flows over cores
within a stated bound (each core gets between 0.5x and 1.5x the fair
share once there are at least 32 flows per core).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.harnesscheck import check_sweep_coverage
from repro.cache.hierarchy import CacheGeometry, MachineSpec
from repro.core.dispatch import (
    APP_CLASS_KEY,
    DISPATCH_POLICIES,
    FLOW_KEY,
    AppDefinedDispatch,
    FlowHashRSS,
    LDLPAwareDispatch,
    make_dispatch_policy,
    stable_hash,
)
from repro.core.layer import Message
from repro.errors import ConfigurationError
from repro.experiments import multicore as experiment
from repro.harness import ResultCache, run_experiment
from repro.harness.golden import result_digests
from repro.machine.multicore import MultiCoreMachine, MultiCoreSpec
from repro.sim.multicore import (
    MultiCoreRunResult,
    multicore_point,
    run_multicore,
)
from repro.sim.runner import ENGINE_NAMES, SimulationConfig, run_simulation
from repro.traffic.poisson import PoissonSource

ALL_SCHEDULERS = ("conventional", "ilp", "ldlp", "grouped")


def flow_message(flow: int, app_class: int | None = None) -> Message:
    """A message tagged the way the multi-core runner tags arrivals."""
    message = Message()
    message.meta[FLOW_KEY] = flow
    message.meta[APP_CLASS_KEY] = (
        app_class if app_class is not None else flow % 8
    )
    return message


# ----------------------------------------------------------------------
# Dispatch-policy semantics


class TestDispatchPolicies:
    def test_registry_names_match_policy_names(self):
        for name, factory in DISPATCH_POLICIES.items():
            assert factory().name == name

    def test_unknown_policy_raises(self):
        with pytest.raises(ConfigurationError):
            make_dispatch_policy("round-robin-but-wrong")

    def test_rss_is_per_flow_sticky(self):
        """Every message of one flow lands on the same core."""
        policy = FlowHashRSS()
        for flow in range(50):
            cores = {
                policy.select(flow_message(flow), 4) for _ in range(5)
            }
            assert len(cores) == 1

    def test_rss_matches_stable_hash(self):
        policy = FlowHashRSS()
        assert policy.select(flow_message(17), 8) == stable_hash(17) % 8

    def test_app_rules_table_wins_over_hash(self):
        policy = AppDefinedDispatch(rules={3: 1, 5: 2})
        assert policy.select(flow_message(0, app_class=3), 4) == 1
        assert policy.select(flow_message(0, app_class=5), 4) == 2

    def test_app_falls_back_to_field_hash(self):
        policy = AppDefinedDispatch(rules={3: 1})
        assert policy.select(flow_message(0, app_class=7), 4) == (
            stable_hash(7) % 4
        )

    def test_ldlp_steers_whole_chunks_then_rotates(self):
        policy = LDLPAwareDispatch(chunk=3)
        picks = [policy.select(Message(), 2) for _ in range(9)]
        assert picks == [0, 0, 0, 1, 1, 1, 0, 0, 0]

    def test_ldlp_chunk_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            LDLPAwareDispatch(chunk=0)

    def test_ldlp_recovers_from_shrunk_core_count(self):
        policy = LDLPAwareDispatch(chunk=1)
        policy.select(Message(), 8)
        policy.select(Message(), 8)  # rotated to core 1
        assert policy.select(Message(), 1) == 0

    def test_selects_are_deterministic(self):
        """No policy may draw randomness: same inputs, same core."""
        for name in DISPATCH_POLICIES:
            first = [
                make_dispatch_policy(name).select(flow_message(i), 4)
                for i in range(40)
            ]
            second = [
                make_dispatch_policy(name).select(flow_message(i), 4)
                for i in range(40)
            ]
            assert first == second


class TestRSSBalanceProperty:
    @given(
        cores=st.sampled_from([2, 3, 4, 8]),
        flows_per_core=st.integers(32, 128),
        start=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_rss_balances_flows_within_bound(
        self, cores, flows_per_core, start
    ):
        """The stated bound: with >= 32 flows per core, every core
        receives between 0.5x and 1.5x the fair share of flows."""
        policy = FlowHashRSS()
        flows = cores * flows_per_core
        counts = [0] * cores
        for flow in range(start, start + flows):
            counts[policy.select(flow_message(flow), cores)] += 1
        fair = flows / cores
        assert min(counts) >= 0.5 * fair
        assert max(counts) <= 1.5 * fair


# ----------------------------------------------------------------------
# Machine topology


class TestMultiCoreSpec:
    def test_core_count_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(num_cores=0)

    def test_per_core_l2_is_rejected(self):
        spec = MachineSpec(l2=CacheGeometry(size=65536, line_size=32))
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(num_cores=2, core=spec)

    def test_shared_l2_line_size_must_match(self):
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(
                num_cores=2,
                shared_l2=CacheGeometry(size=65536, line_size=64),
            )

    def test_shared_l2_must_cover_primaries(self):
        with pytest.raises(ConfigurationError):
            MultiCoreSpec(
                num_cores=2,
                shared_l2=CacheGeometry(size=4096, line_size=32),
            )

    def test_shared_l2_is_one_instance(self):
        machine = MultiCoreMachine(
            MultiCoreSpec(
                num_cores=3,
                shared_l2=CacheGeometry(size=65536, line_size=32),
            )
        )
        assert machine.shared_l2 is not None
        for cpu in machine.cpus:
            assert cpu.hierarchy.l2 is machine.shared_l2

    def test_per_core_counters_vocabulary(self):
        machine = MultiCoreMachine(MultiCoreSpec(num_cores=2))
        counters = machine.per_core_counters()
        assert len(counters) == 2
        assert set(counters[0]) == {
            "cycles", "stall_cycles", "icache_misses", "dcache_misses",
        }


# ----------------------------------------------------------------------
# Acceptance pin 1: one core == the single-core benchmark, bit for bit


class TestSingleCoreEquivalence:
    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    @pytest.mark.parametrize("dispatch", sorted(DISPATCH_POLICIES))
    def test_one_core_reproduces_run_simulation(self, scheduler, dispatch):
        """On both engines: the dispatched one-core run equals the
        scalar single-core reference."""
        base = run_simulation(
            PoissonSource(9000.0, size=552, rng=7),
            SimulationConfig(
                scheduler=scheduler, duration=0.04, engine="scalar"
            ),
            seed=7,
        )
        for engine in ENGINE_NAMES:
            multi = run_multicore(
                PoissonSource(9000.0, size=552, rng=7),
                SimulationConfig(
                    scheduler=scheduler,
                    dispatch=dispatch,
                    num_cores=1,
                    duration=0.04,
                    engine=engine,
                ),
                seed=7,
            )
            assert multi.aggregate.to_dict() == base.to_dict(), engine


# ----------------------------------------------------------------------
# Multi-core behaviour


class TestMultiCoreRun:
    def test_messages_conserved_across_dispatch(self):
        for dispatch in DISPATCH_POLICIES:
            point = multicore_point(
                "ldlp", dispatch, 3, 12000.0, [0], 0.03
            )
            assert point["conservation_violations"] == 0
            aggregate = point["result"]["aggregate"]
            assert aggregate["offered"] == (
                aggregate["completed"] + aggregate["dropped"]
            )

    def test_per_core_counts_sum_to_aggregate(self):
        result = run_multicore(
            PoissonSource(12000.0, size=552, rng=1),
            SimulationConfig(scheduler="ldlp", dispatch="rss", num_cores=4,
                             duration=0.03),
            seed=1,
        )
        assert sum(c.completed for c in result.cores) == (
            result.aggregate.completed
        )
        assert sum(c.dispatched for c in result.cores) == (
            result.aggregate.offered
        )
        assert sum(c.drops for c in result.cores) == result.aggregate.dropped

    def test_ldlp_dispatch_beats_rss_on_imisses_at_4_cores(self):
        """The locality claim: chunked steering keeps layer code
        resident, so LDLP-aware dispatch misses less than RSS."""
        rss = multicore_point("ldlp", "rss", 4, 12000.0, [0, 1], 0.04)
        ldlp = multicore_point("ldlp", "ldlp", 4, 12000.0, [0, 1], 0.04)
        rss_imiss = rss["result"]["aggregate"]["misses"]["instruction"]
        ldlp_imiss = ldlp["result"]["aggregate"]["misses"]["instruction"]
        assert ldlp_imiss < rss_imiss

    def test_result_dict_roundtrip(self):
        result = run_multicore(
            PoissonSource(9000.0, size=552, rng=0),
            SimulationConfig(num_cores=2, dispatch="rss", duration=0.02),
            seed=0,
        )
        rebuilt = MultiCoreRunResult.from_dict(result.to_dict())
        assert rebuilt.to_dict() == result.to_dict()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(dispatch="nope")
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_cores=0, dispatch="rss")
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_flows=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(num_cores=2)  # several cores, no dispatcher
        with pytest.raises(ConfigurationError):
            run_multicore(PoissonSource(9000.0), SimulationConfig())


# ----------------------------------------------------------------------
# Acceptance pin 2: byte-identical across --jobs and repeat runs


class TestSweepDeterminism:
    def tiny_spec(self):
        """The real multicore sweep shrunk to stay fast under pytest."""
        from repro.harness.points import SweepPoint, SweepSpec

        def points(scale: str) -> list[SweepPoint]:
            del scale
            return [
                SweepPoint(
                    experiment="tinymulticore",
                    key=f"{dispatch}/cores={cores}",
                    func="repro.sim.multicore:multicore_point",
                    params={
                        "scheduler": "ldlp",
                        "dispatch": dispatch,
                        "cores": cores,
                        "rate": 12000.0,
                        "seeds": [0, 1],
                        "duration": 0.02,
                    },
                )
                for dispatch in sorted(DISPATCH_POLICIES)
                for cores in (1, 2)
            ]

        return SweepSpec(
            name="tinymulticore",
            points=points,
            quantities=lambda points, results: {},
        )

    def test_every_policy_identical_across_jobs(self, tmp_path):
        spec = self.tiny_spec()
        serial = run_experiment(spec, jobs=1, cache=ResultCache(tmp_path / "a"))
        parallel = run_experiment(spec, jobs=2, cache=ResultCache(tmp_path / "b"))
        assert result_digests(serial.results) == result_digests(parallel.results)

    def test_point_repeats_byte_identically(self):
        import json

        first = multicore_point("grouped", "app", 2, 12000.0, [0, 1], 0.02)
        second = multicore_point("grouped", "app", 2, 12000.0, [0, 1], 0.02)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_different_seeds_differ(self):
        first = multicore_point("ldlp", "rss", 2, 12000.0, [0], 0.02)
        second = multicore_point("ldlp", "rss", 2, 12000.0, [5], 0.02)
        assert first["result"] != second["result"]


# ----------------------------------------------------------------------
# Experiment declaration and the HARN002 coverage rule


class TestExperimentSweep:
    def test_ci_sweep_exercises_every_policy(self):
        points = experiment.sweep_points("ci")
        exercised = {point.params["dispatch"] for point in points}
        assert exercised == set(DISPATCH_POLICIES)

    def test_ci_sweep_reaches_four_cores(self):
        """The acceptance pin needs >= 4 cores in the golden record."""
        points = experiment.sweep_points("ci")
        assert max(point.params["cores"] for point in points) >= 4

    def test_golden_quantities_pin_the_locality_ratio(self):
        points = experiment.sweep_points("ci")
        results = {
            point.key: multicore_point(
                **{**point.params, "seeds": [0], "duration": 0.02}
            )
            for point in points
        }
        quantities = experiment.golden_quantities(points, results)
        # The locality win needs a batching scheduler: LDLP batches the
        # chunks the dispatcher steers; conventional processes messages
        # one at a time, so steering cannot change its miss rate.
        assert quantities["ldlp/ldlp_vs_rss_imiss"] < 1.0
        assert quantities["conventional/ldlp_vs_rss_imiss"] == (
            pytest.approx(1.0, rel=0.05)
        )

    def test_assemble_and_render(self):
        points = experiment.sweep_points("ci")[:2]
        results = {
            point.key: multicore_point(
                **{**point.params, "seeds": [0], "duration": 0.02}
            )
            for point in points
        }
        table = experiment.assemble(points, results).render()
        assert "dispatch" in table and "cores" in table

    def test_harn002_clean_on_shipped_registry(self):
        assert check_sweep_coverage() == []

    def test_harn002_flags_unexercised_policy(self, monkeypatch):
        import repro.core.dispatch as dispatch_module

        monkeypatch.setitem(
            dispatch_module.DISPATCH_POLICIES, "phantom", FlowHashRSS
        )
        findings = check_sweep_coverage()
        assert len(findings) == 1
        assert findings[0].rule_id == "HARN002"
        assert findings[0].details["policy"] == "phantom"
