"""Property tests of the simulation as a whole: conservation laws and
monotonicity that must hold for any configuration, and the one runtime
check that enforces conservation in every simulated run."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.vec as vec_module
from repro.core.scheduler import Scheduler
from repro.errors import SimulationError
from repro.faults.campaigns import campaign_plan, fault_point
from repro.faults.cli import _survives
from repro.flows.runner import flows_point
from repro.gossip.runner import gossip_point
from repro.sim import SimulationConfig, run_simulation
from repro.sim.multicore import multicore_point
from repro.traffic import DeterministicSource, PoissonSource


class TestConservation:
    @given(
        rate=st.integers(500, 9000),
        scheduler=st.sampled_from(["conventional", "ilp", "ldlp", "grouped"]),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=25, deadline=None)
    def test_messages_conserved(self, rate, scheduler, seed):
        """offered == completed + dropped, always."""
        config = SimulationConfig(scheduler=scheduler, duration=0.05)
        result = run_simulation(PoissonSource(rate, rng=seed), config, seed=seed)
        assert result.offered == result.completed + result.dropped
        assert result.latency.count == result.completed

    @given(seed=st.integers(0, 30))
    @settings(max_examples=15, deadline=None)
    def test_latency_at_least_service_time(self, seed):
        """No message completes faster than one cold pass through the
        stack could possibly run (compute cycles alone)."""
        config = SimulationConfig(scheduler="ldlp", duration=0.05)
        result = run_simulation(PoissonSource(1000, rng=seed), config, seed=seed)
        if result.completed == 0:
            return
        # 5 layers x 1652 compute cycles at 100 MHz = 82.6 us minimum.
        floor_seconds = 5 * 1652 / 100e6
        assert result.latency.median >= floor_seconds * 0.99

    def test_no_drops_below_capacity(self):
        config = SimulationConfig(scheduler="ldlp", duration=0.1)
        result = run_simulation(DeterministicSource(2000), config, seed=0)
        assert result.dropped == 0
        assert result.completed == result.offered


@pytest.fixture
def leaky_admission(monkeypatch):
    """Break conservation: every 7th offered message counts as an
    arrival but is neither queued nor dropped.  Patched on the one
    admission entry point of the base class, so every bulk and
    one-message admission leaks, :func:`repro.sim.vec.vec_supported`
    still accepts every scheduler and the vec engine still steps it."""
    admit = Scheduler.enqueue_arrivals
    offered = itertools.count(1)

    def enqueue_arrivals(self, messages):
        kept = [message for message in messages if next(offered) % 7]
        self.arrivals += len(messages) - len(kept)
        return admit(self, kept)

    monkeypatch.setattr(Scheduler, "enqueue_arrivals", enqueue_arrivals)


class TestConservationEnforced:
    """Every simulated run raises when a message is created or lost."""

    @pytest.mark.parametrize("engine", ["scalar", "vec"])
    def test_run_simulation_raises(self, leaky_admission, monkeypatch, engine):
        stepped_vec = []
        stepper = vec_module.vec_stepper

        def spy(*args):
            outcome = stepper(*args)
            stepped_vec.append(outcome is not None)
            return outcome

        monkeypatch.setattr(vec_module, "vec_stepper", spy)
        config = SimulationConfig(scheduler="ldlp", duration=0.02, engine=engine)
        with pytest.raises(SimulationError, match=r"core 0 broke message conservation"):
            run_simulation(PoissonSource(9000.0, rng=0), config, seed=0)
        assert stepped_vec == ([True] if engine == "vec" else [])

    def test_fault_point_propagates(self, leaky_admission):
        with pytest.raises(SimulationError, match="conservation"):
            fault_point(
                "ldlp", "head", 12000.0, [0], 0.02, campaign_plan().to_params()
            )

    def test_flows_point_propagates(self, leaky_admission):
        with pytest.raises(SimulationError, match="conservation"):
            flows_point("ldlp", "direct", 16, 1.1, 11000.0, [0], 0.02)

    def test_gossip_point_propagates(self, leaky_admission):
        with pytest.raises(SimulationError, match="conservation"):
            gossip_point(
                "session", 4, "ldlp", "tail", 9000.0, [0], 0.02, num_peers=500
            )

    def test_multicore_point_names_the_core(self, leaky_admission):
        with pytest.raises(SimulationError, match=r"core [01] broke"):
            multicore_point("ldlp", "rss", 2, 12000.0, [0], 0.02)

    def test_injector_survival_reports_the_error(self, leaky_admission):
        problem = _survives("duplicate", "ldlp", 0, 11000.0, 0.02)
        assert problem is not None
        assert problem.startswith("raised SimulationError")


class TestMonotonicity:
    def test_latency_monotone_in_load_conventional(self):
        """Mean latency never decreases as offered load rises (same
        placement seed, conventional scheduling)."""
        means = []
        for rate in (1000, 3000, 5000, 8000):
            config = SimulationConfig(scheduler="conventional", duration=0.1)
            result = run_simulation(
                PoissonSource(rate, rng=3), config, seed=3
            )
            means.append(result.latency.mean)
        assert means == sorted(means)

    def test_misses_monotone_in_batch_cap(self):
        """LDLP misses/message never increase with a larger batch cap."""
        source = PoissonSource(9000, rng=4)
        arrivals = source.arrival_columns(0.1)
        totals = []
        for cap in (1, 4, 16):
            config = SimulationConfig(
                scheduler="ldlp", duration=0.1, batch_limit=cap
            )
            result = run_simulation(source, config, seed=4, columns=arrivals)
            totals.append(result.misses.total)
        assert totals[0] > totals[1] > totals[2]

    def test_faster_clock_lowers_latency(self):
        from repro.cache.hierarchy import MachineSpec

        source = PoissonSource(3000, rng=5)
        arrivals = source.arrival_columns(0.1)
        means = []
        for mhz_value in (50e6, 100e6, 200e6):
            config = SimulationConfig(
                scheduler="conventional",
                duration=0.1,
                spec=MachineSpec(clock_hz=mhz_value),
            )
            result = run_simulation(source, config, seed=5, columns=arrivals)
            means.append(result.latency.mean)
        assert means[0] > means[1] > means[2]


class TestSchedulerRanking:
    def test_grouped_between_conventional_and_ldlp_small_layers(self):
        """With cache-fitting groups the grouped schedule sits between
        conventional and per-layer LDLP in cycles per message."""
        source = PoissonSource(6000, rng=6)
        arrivals = source.arrival_columns(0.1)
        costs = {}
        for name in ("conventional", "grouped", "ldlp"):
            config = SimulationConfig(
                scheduler=name, duration=0.1, layer_code_bytes=2048
            )
            costs[name] = run_simulation(
                source, config, seed=6, columns=arrivals
            ).cycles_per_message
        assert costs["ldlp"] <= costs["grouped"] * 1.05
        assert costs["grouped"] < costs["conventional"]

    def test_ilp_beats_conventional_slightly(self):
        """ILP saves data-loop work but not instruction locality."""
        source = PoissonSource(5000, rng=7)
        arrivals = source.arrival_columns(0.1)
        results = {}
        for name in ("conventional", "ilp"):
            config = SimulationConfig(scheduler=name, duration=0.1)
            results[name] = run_simulation(source, config, seed=7,
                                           columns=arrivals)
        assert (
            results["ilp"].cycles_per_message
            <= results["conventional"].cycles_per_message
        )
        # But the instruction-miss story is unchanged (the paper's point
        # about ILP not fixing the outer loop).
        assert results["ilp"].misses.instruction == pytest.approx(
            results["conventional"].misses.instruction, rel=0.02
        )
