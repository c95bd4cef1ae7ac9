"""Tests of the flow-lookup layer: Zipf flows, the lookup cache, and
the ``flows`` experiment.

The acceptance pins of the flow work live here: (1) flow draws are a
pure function of the seed (crc32 derivation — byte-identical at any
worker count and across repeat runs), (2) batching schedulers amortize
lookups — LDLP performs strictly fewer lookups than Conventional at
equal load and never more misses per message, (3) lookup charging
conserves messages exactly, (4) the vectorized engine accepts
flow-charged bindings and both engine settings return identical bytes,
and (5) the HARN003 rule keeps every registered cache organization
exercised by the sweep.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.harnesscheck import check_sweep_coverage
from repro.cache.cache import DirectMappedCache
from repro.errors import ConfigurationError
from repro.experiments import flows as experiment
from repro.flows import (
    FLOW_CACHE_ORGS,
    FlowCacheSpec,
    make_flow_cache,
)
from repro.flows.runner import flows_point, make_flow_base, run_flow_simulation
from repro.harness import ResultCache, check_claims, run_experiment
from repro.harness.golden import result_digests
from repro.obs.runtime import Recorder, recording
from repro.sim.runner import SimulationConfig, build_scheduler
from repro.sim.vec import vec_supported
from repro.traffic.base import TrafficSource
from repro.traffic.poisson import PoissonSource
from repro.traffic.zipf import (
    ZipfFlowSource,
    flow_rng,
    zipf_flow_ids,
    zipf_weights,
)


def zipf_source(seed: int = 0, skew: float = 1.1, rate: float = 11000.0):
    return ZipfFlowSource(
        PoissonSource(rate, size=552, rng=seed),
        num_flows=64,
        skew=skew,
        seed=seed,
    )


# ----------------------------------------------------------------------
# Zipf flow structure (repro.traffic.zipf)


class TestZipfSource:
    def test_weights_normalized_and_ranked(self):
        weights = zipf_weights(64, 1.0)
        assert weights.shape == (64,)
        assert weights.sum() == pytest.approx(1.0)
        assert np.all(np.diff(weights) <= 0)  # rank 0 most popular

    def test_zero_skew_is_uniform(self):
        weights = zipf_weights(8, 0.0)
        assert np.allclose(weights, 1.0 / 8.0)

    def test_weights_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_weights(0, 1.0)
        with pytest.raises(ConfigurationError):
            zipf_weights(8, -0.5)
        with pytest.raises(ConfigurationError):
            zipf_weights(8, float("inf"))
        with pytest.raises(ConfigurationError):
            zipf_weights(8, float("nan"))

    def test_source_validates_eagerly(self):
        with pytest.raises(ConfigurationError):
            ZipfFlowSource(PoissonSource(1000.0, rng=0), num_flows=0)
        with pytest.raises(ConfigurationError):
            ZipfFlowSource(PoissonSource(1000.0, rng=0), skew=-1.0)

    def test_flow_ids_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_flow_ids(-1, 64, 1.0, 0)
        assert zipf_flow_ids(0, 64, 1.0, 0).shape == (0,)

    def test_flow_rng_uses_crc32_derivation(self):
        import zlib

        expected = np.random.default_rng(zlib.crc32(b"zipf:7"))
        assert flow_rng(7).integers(0, 1 << 30) == expected.integers(0, 1 << 30)

    def test_same_seed_same_stream(self):
        first = zipf_source(seed=3).arrival_columns(0.05)
        second = zipf_source(seed=3).arrival_columns(0.05)
        assert first == second

    def test_different_seeds_differ(self):
        first = zipf_source(seed=0).arrival_columns(0.05)
        second = zipf_source(seed=5).arrival_columns(0.05)
        assert first["flow"] != second["flow"]

    def test_flow_draws_leave_base_rng_untouched(self):
        """Re-flowing the same base stream at another skew must not
        shift the base source's arrivals."""
        plain = PoissonSource(11000.0, size=552, rng=9).arrival_columns(0.05)
        flowed = zipf_source(seed=9, skew=1.5).arrival_columns(0.05)
        assert {"time": flowed["time"], "size": flowed["size"]} == plain

    def test_top_flow_share_grows_with_skew(self):
        shares = []
        for skew in (0.0, 0.8, 1.6):
            ids = zipf_flow_ids(5000, 64, skew, seed=0)
            shares.append(float(np.mean(ids == 0)))
        assert shares[0] < shares[1] < shares[2]

    def test_flow_arrival_validation(self):
        """A flow-charged run checks its stream like any other run."""
        config = SimulationConfig(duration=0.01)
        for columns in (
            {"time": [-1.0], "size": [100], "flow": [0]},
            {"time": [0.0], "size": [0], "flow": [0]},
            {"time": [0.0], "size": [100], "flow": [0, 1]},
        ):
            with pytest.raises(ConfigurationError):
                run_flow_simulation(zipf_source(), config, columns=columns)

    def test_rate_passthrough(self):
        assert zipf_source(rate=12345.0).rate == 12345.0

    def test_num_flows_one_degenerates_to_single_flow(self):
        ids = zipf_flow_ids(500, 1, 1.3, seed=0)
        assert ids.shape == (500,)
        assert np.all(ids == 0)
        assert zipf_weights(1, 0.0) == pytest.approx([1.0])
        assert zipf_weights(1, 2.0) == pytest.approx([1.0])

    @given(
        num_flows=st.integers(2, 256),
        low=st.floats(0.0, 1.5, allow_nan=False),
        delta=st.floats(0.05, 1.5, allow_nan=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_top_flow_weight_monotone_in_skew(self, num_flows, low, delta):
        """The most popular destination's share only grows with skew —
        the structural property behind the empirical share test above,
        checked on the exact weights for any population size (gossip
        peer populations included)."""
        assert (
            zipf_weights(num_flows, low + delta)[0]
            >= zipf_weights(num_flows, low)[0]
        )

    def test_gossip_peer_popularity_monotone_in_skew(self):
        """Same monotonicity through the gossip fleet's peer weighting."""
        from repro.gossip import GossipFleetSpec

        shares = [
            GossipFleetSpec(num_peers=1000, peer_skew=skew).peer_popularity()[0]
            for skew in (0.0, 0.7, 1.4)
        ]
        assert shares[0] < shares[1] < shares[2]


# ----------------------------------------------------------------------
# The stateful-base snapshot fix (regression guard)


class _CountingSource(TrafficSource):
    """Wraps a source and counts how many times its stream is drawn."""

    def __init__(self, inner):
        self.inner = inner
        self.draws = 0

    @property
    def rate(self):
        return self.inner.rate

    def arrival_columns(self, duration):
        self.draws += 1
        return self.inner.arrival_columns(duration)


class TestStatefulBaseSnapshot:
    def bursty_source(self, seed=4):
        from repro.traffic.onoff import ParetoOnOffSource

        return ParetoOnOffSource(
            num_sources=4, packet_rate_on=4000.0, size=552, rng=seed
        )

    def test_stateful_base_rematerializes_identically(self):
        """The bug: re-drawing a stateful base (Pareto ON/OFF keeps live
        RNG state) from the same ZipfFlowSource advanced the base RNG,
        so a second materialization silently produced a different
        stream.  The snapshot fix pins both draws byte-identical."""
        flowed = ZipfFlowSource(
            self.bursty_source(), num_flows=64, skew=1.1, seed=4
        )
        first = flowed.arrival_columns(0.05)
        second = flowed.arrival_columns(0.05)
        assert first == second

    def test_base_stream_drawn_once_per_duration(self):
        counting = _CountingSource(self.bursty_source())
        flowed = ZipfFlowSource(counting, num_flows=64, skew=1.1, seed=4)
        flowed.arrival_columns(0.05)
        flowed.arrival_columns(0.05)
        assert counting.draws == 1
        # A different duration is a different snapshot.
        flowed.arrival_columns(0.02)
        assert counting.draws == 2

    def test_fresh_wrapper_matches_reused_wrapper(self):
        """Two fresh wrappers and one reused wrapper agree — the
        snapshot changes nothing for the first materialization."""
        fresh = ZipfFlowSource(
            self.bursty_source(), num_flows=64, skew=1.1, seed=4
        ).arrival_columns(0.05)
        reused = ZipfFlowSource(
            self.bursty_source(), num_flows=64, skew=1.1, seed=4
        )
        reused.arrival_columns(0.05)
        assert reused.arrival_columns(0.05) == fresh


# ----------------------------------------------------------------------
# The lookup cache (repro.flows.lookup)


class _CycleCounter:
    def __init__(self):
        self.cycles = 0.0

    def execute(self, cycles):
        self.cycles += cycles


class _Binding:
    def __init__(self):
        self.cpu = _CycleCounter()


class TestFlowLookup:
    def test_every_registered_org_builds(self):
        for name in FLOW_CACHE_ORGS:
            cache = make_flow_cache(name, 16)
            assert cache.access_line(3) is True  # cold miss
            assert cache.access_line(3) is False  # now resident

    def test_unknown_org_rejected(self):
        with pytest.raises(ConfigurationError):
            make_flow_cache("phantom", 16)
        with pytest.raises(ConfigurationError):
            FlowCacheSpec(organization="phantom")

    def test_spec_validates_costs_and_entries(self):
        with pytest.raises(ConfigurationError):
            FlowCacheSpec(hit_cycles=-1.0)
        with pytest.raises(ConfigurationError):
            FlowCacheSpec(hit_cycles=10.0, miss_cycles=5.0)
        with pytest.raises(ConfigurationError):
            FlowCacheSpec(entries=12)  # not a power of two
        with pytest.raises(ConfigurationError):
            FlowCacheSpec(entries=2, organization="lru4")  # ways > lines

    @pytest.mark.parametrize(
        "hit, miss",
        [
            (math.nan, math.nan),
            (4.0, math.nan),
            (math.nan, 120.0),
            (math.inf, math.inf),
            (0.0, math.inf),
        ],
    )
    def test_spec_rejects_non_finite_costs(self, hit, miss):
        """NaN slips past both ordering checks and infinity past the
        first; neither is a cycle cost."""
        with pytest.raises(ConfigurationError, match="finite"):
            FlowCacheSpec(hit_cycles=hit, miss_cycles=miss)

    def test_lookup_cost_model(self):
        lookup = FlowCacheSpec(entries=16).build()
        assert lookup.lookup(3) == 120.0  # cold miss: full table walk
        assert lookup.lookup(3) == 4.0  # cached destination

    def test_charge_batch_dedups_within_batch(self):
        lookup = FlowCacheSpec(entries=16).build()
        binding = _Binding()
        cycles = lookup.charge_batch(binding, [3, 3, 5, 3])
        assert lookup.demand == 4
        assert lookup.lookups == 2  # distinct flows 3 and 5
        assert lookup.stats.misses == 2
        assert cycles == 240.0
        assert binding.cpu.cycles == 240.0
        # The next batch re-resolves both flows, now cached.
        assert lookup.charge_batch(binding, [5, 3]) == 8.0
        assert lookup.stats.hits == 2

    def test_resolve_batch_is_charge_batch_without_executing(self):
        """The split: on the same flows, resolving leaves the same lookup
        counters and ``flows.*`` obs counts as charging, and charging
        adds exactly the returned cycles to the CPU."""
        batches = [[3, None, 3], [7, 5, None, 7], [3, 5, 9, 11, 3]]
        outcomes = {}
        for method in ("charge", "resolve"):
            lookup = FlowCacheSpec(entries=4, organization="lru2").build()
            binding = _Binding()
            binding.cpu.cycles = 1000.0
            recorder = Recorder(keep_spans=False)
            returned = []
            with recording(recorder):
                for batch in batches:
                    before = binding.cpu.cycles
                    if method == "charge":
                        cycles = lookup.charge_batch(binding, batch)
                        assert binding.cpu.cycles == before + cycles
                    else:
                        cycles = lookup.resolve_batch(batch)
                        assert binding.cpu.cycles == before
                    returned.append(cycles)
            outcomes[method] = (
                lookup.counters(), recorder.counters.as_dict(), returned
            )
        assert outcomes["charge"] == outcomes["resolve"]
        counters, obs, _ = outcomes["resolve"]
        assert counters["hits"] > 0 and counters["evictions"] > 0
        assert obs["flows.untagged"] == counters["untagged"] == 2

    def test_charge_batch_empty_is_free(self):
        lookup = FlowCacheSpec().build()
        binding = _Binding()
        assert lookup.charge_batch(binding, []) == 0.0
        assert binding.cpu.cycles == 0.0
        assert lookup.lookups == 0

    def test_fifo_org_differs_from_lru_on_hit_refresh(self):
        """The trace that separates the policies: a hit on the oldest
        entry saves it under LRU but not under FIFO."""
        trace = [0, 2, 0, 4, 0]  # 2-way, entries=4 -> 2 sets; all even
        costs = {}
        for org in ("lru2", "fifo2"):
            lookup = FlowCacheSpec(entries=4, organization=org).build()
            for flow in trace:
                lookup.lookup(flow)
            costs[org] = lookup.stats.misses
        assert costs["lru2"] == 3  # flow 0 survives: 0, 2, 4 cold-miss
        assert costs["fifo2"] == 4  # 4 evicts 0; the last 0 misses again

    def test_describe_round_trip(self):
        lookup = FlowCacheSpec(entries=8, organization="lru2").build()
        lookup.lookup(1)
        description = lookup.describe()
        assert description["entries"] == 8
        assert description["organization"] == "lru2"
        assert description["lookups"] == 1
        assert description["misses"] == 1
        assert description["untagged"] == 0

    def test_charge_batch_untagged_walks_without_touching_cache(self):
        """The fixed accounting bug: untagged messages (``None``) each
        pay a full table walk, never dedup, and never touch the cache."""
        lookup = FlowCacheSpec(entries=16).build()
        binding = _Binding()
        cycles = lookup.charge_batch(binding, [3, None, 3, None])
        assert lookup.demand == 4
        assert lookup.lookups == 3  # flow 3 once + two walks
        assert lookup.untagged == 2
        assert lookup.stats.misses == 1  # only flow 3 touched the cache
        assert lookup.stats.hits == 0
        assert cycles == 3 * 120.0

    def test_untagged_does_not_alias_flow_zero(self):
        """Before the fix, untagged messages were coerced to flow 0 —
        warming flow 0's cache slot and deduplicating against it.  Now
        a walk leaves flow 0 cold, and a genuine flow 0 in the same
        batch still performs its own lookup."""
        lookup = FlowCacheSpec(entries=16).build()
        binding = _Binding()
        lookup.charge_batch(binding, [None])
        assert lookup.stats.misses == 0  # cache untouched
        cycles = lookup.charge_batch(binding, [0, None])
        assert lookup.stats.misses == 1  # flow 0 still cold-misses
        assert cycles == 2 * 120.0
        assert lookup.untagged == 2

    def test_scheduler_hook_passes_untagged_as_none(self):
        """End-to-end through ``charge_flow_lookups``: a message with no
        FLOW_KEY meta reaches the cache as ``None``, not flow 0."""
        from repro.core.layer import Message
        from repro.core.scheduler import charge_flow_lookups

        scheduler = build_scheduler(SimulationConfig(scheduler="ldlp"), 0)
        lookup = FlowCacheSpec(entries=16).build()
        scheduler.binding.flow_lookup = lookup
        tagged = Message(size=100, arrival_time=0.0)
        tagged.meta["dispatch.flow"] = 0
        untagged = Message(size=100, arrival_time=0.0)
        charge_flow_lookups(scheduler, [tagged, untagged, untagged])
        assert lookup.demand == 3
        assert lookup.lookups == 3
        assert lookup.untagged == 2
        assert lookup.stats.misses == 1  # only the tagged flow


# ----------------------------------------------------------------------
# Flow-charged runs (repro.flows.runner)


class TestFlowRuns:
    def config(self, scheduler, engine="vec"):
        return SimulationConfig(
            scheduler=scheduler, duration=0.05, engine=engine
        )

    def test_vec_envelope_accepts_flow_lookup(self):
        """Lookup charging runs inside the vec step, so attaching a
        lookup cache must not push a run off the vec engine."""
        for scheduler_name in ("conventional", "ilp", "ldlp", "grouped"):
            scheduler = build_scheduler(self.config(scheduler_name), 0)
            scheduler.binding.flow_lookup = FlowCacheSpec().build()
            assert vec_supported(scheduler), scheduler_name

    def test_conservation_exact(self):
        result = run_flow_simulation(
            zipf_source(), self.config("ldlp"), FlowCacheSpec(entries=16)
        )
        run = result.run
        assert run.offered == run.completed + run.dropped
        assert result.lookups <= result.demand
        assert result.hits + result.misses == result.lookups

    def test_batching_amortizes_lookups(self):
        """LDLP resolves each destination once per batch, so it performs
        strictly fewer lookups than Conventional on the same offered
        load — and never more misses per completed message."""
        cache = FlowCacheSpec(entries=16)
        conventional = run_flow_simulation(
            zipf_source(), self.config("conventional"), cache
        )
        ldlp = run_flow_simulation(zipf_source(), self.config("ldlp"), cache)
        assert conventional.demand == conventional.lookups  # no batches
        assert ldlp.lookups < ldlp.demand  # batches dedup
        assert ldlp.lookup_misses_per_message <= (
            conventional.lookup_misses_per_message + 1e-9
        )

    def test_plain_arrivals_map_to_flow_zero(self):
        """A non-flow source is the one-destination degenerate case:
        a single cold miss, then every lookup hits."""
        result = run_flow_simulation(
            PoissonSource(11000.0, size=552, rng=0),
            self.config("conventional"),
        )
        assert result.misses == 1
        assert result.hits == result.lookups - 1

    def test_point_identical_across_engines(self):
        base = dict(
            scheduler="ldlp",
            organization="lru4",
            entries=16,
            skew=1.1,
            rate=11000.0,
            seeds=[0, 1],
            duration=0.02,
        )
        vec = flows_point(**base, engine="vec")
        scalar = flows_point(**base, engine="scalar")
        assert json.dumps(vec, sort_keys=True) == json.dumps(
            scalar, sort_keys=True
        )

    def test_point_repeats_byte_identically(self):
        first = flows_point(
            "grouped", "fifo4", 16, 1.1, 11000.0, [0, 1], 0.02
        )
        second = flows_point(
            "grouped", "fifo4", 16, 1.1, 11000.0, [0, 1], 0.02
        )
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )

    def test_point_different_seeds_differ(self):
        first = flows_point("ldlp", "direct", 16, 1.1, 11000.0, [0], 0.02)
        second = flows_point("ldlp", "direct", 16, 1.1, 11000.0, [5], 0.02)
        assert first["result"] != second["result"]

    def test_make_flow_base_builds_and_validates(self):
        assert make_flow_base("poisson", 9000.0, 552, 0).rate == 9000.0
        bursty = make_flow_base("bellcore", 9000.0, 552, 0)
        assert bursty.mean_rate == pytest.approx(9000.0)
        with pytest.raises(ConfigurationError):
            make_flow_base("fractal", 9000.0, 552, 0)

    def test_bellcore_point_repeats_byte_identically(self):
        """The sweep's bursty companion grid is deterministic — the
        direct consequence of the ZipfFlowSource snapshot fix."""
        params = ("ldlp", "lru4", 16, 1.1, 9000.0, [0, 1], 0.02)
        first = flows_point(*params, base="bellcore")
        second = flows_point(*params, base="bellcore")
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["conservation_violations"] == 0

    def test_bellcore_differs_from_poisson(self):
        params = ("ldlp", "direct", 16, 1.1, 9000.0, [0], 0.02)
        assert (
            flows_point(*params, base="bellcore")["result"]
            != flows_point(*params, base="poisson")["result"]
        )

    def test_hit_ratio_grows_with_cache_size(self):
        ratios = []
        for entries in (4, 16, 64):
            result = run_flow_simulation(
                zipf_source(),
                self.config("conventional"),
                FlowCacheSpec(entries=entries),
            )
            ratios.append(result.hit_ratio)
        assert ratios[0] < ratios[1] < ratios[2]


# ----------------------------------------------------------------------
# Byte-identity across harness worker counts (acceptance pin)


class TestSweepDeterminism:
    def tiny_spec(self):
        """The real flows sweep shrunk to stay fast under pytest."""
        from repro.harness.points import SweepPoint, SweepSpec

        def points(scale):
            del scale
            return [
                SweepPoint(
                    experiment="tinyflows",
                    key=f"{scheduler}/{organization}",
                    func="repro.flows.runner:flows_point",
                    params={
                        "scheduler": scheduler,
                        "organization": organization,
                        "entries": 16,
                        "skew": 1.1,
                        "rate": 11000.0,
                        "seeds": [0, 1],
                        "duration": 0.02,
                    },
                )
                for scheduler in ("conventional", "ldlp")
                for organization in ("direct", "fifo2")
            ]

        return SweepSpec(
            name="tinyflows",
            points=points,
            quantities=lambda points, results: {},
            render=lambda points, results: "",
        )

    def test_identical_across_jobs(self, tmp_path):
        spec = self.tiny_spec()
        serial = run_experiment(spec, jobs=1, cache=ResultCache(tmp_path / "a"))
        parallel = run_experiment(
            spec, jobs=2, cache=ResultCache(tmp_path / "b")
        )
        assert result_digests(serial.results) == result_digests(parallel.results)


# ----------------------------------------------------------------------
# Experiment declaration and the HARN003 coverage rule


class TestExperimentSweep:
    def shrunk_results(self):
        points = experiment.sweep_points("ci")
        results = {
            point.key: flows_point(
                **{**point.params, "seeds": [0], "duration": 0.02}
            )
            for point in points
        }
        return points, results

    def test_scales_cover_every_organization(self):
        exercised = set()
        for scale in experiment.SWEEP_SCALES:
            for point in experiment.sweep_points(scale):
                exercised.add(point.params["organization"])
        assert exercised == set(FLOW_CACHE_ORGS)

    def test_ci_scale_includes_bellcore_grid(self):
        bases = {
            point.params.get("base", "poisson")
            for point in experiment.sweep_points("ci")
        }
        assert bases == {"poisson", "bellcore"}

    def test_golden_quantities_pin_the_jain_curves(self):
        """On a shorter run than any scale's, the Jain claims (monotone
        hit ratio, amortization, lookup reduction) still hold, and the
        quantities report both curve values of every point."""
        points, results = self.shrunk_results()
        assert check_claims(experiment.SWEEP, points, results) == []
        quantities = experiment.golden_quantities(points, results)
        assert len(quantities) == 2 * len(points)

    def test_assemble_and_render(self):
        points, results = self.shrunk_results()
        table = experiment.render(points, results)
        assert "scheduler" in table and "entries" in table

    def test_harn003_clean_on_shipped_registry(self):
        assert check_sweep_coverage() == []

    def test_harn003_flags_unexercised_organization(self, monkeypatch):
        import repro.flows.lookup as lookup_module

        monkeypatch.setitem(
            lookup_module.FLOW_CACHE_ORGS,
            "phantom",
            lambda entries: DirectMappedCache(entries, line_size=1),
        )
        findings = check_sweep_coverage()
        assert len(findings) == 1
        assert findings[0].rule_id == "HARN003"
        assert findings[0].details["organization"] == "phantom"
