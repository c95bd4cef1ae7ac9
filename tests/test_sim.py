"""Tests for repro.sim: stats and runner."""

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.sim import (
    LatencyRecorder,
    SimulationConfig,
    build_paper_stack,
    compare_schedulers,
    merge_results,
    run_simulation,
)
from repro.sim.stats import MissesPerMessage, RunResult
from repro.traffic import DeterministicSource, PoissonSource


class TestLatencyRecorder:
    def test_summary(self):
        recorder = LatencyRecorder()
        for value in (1.0, 2.0, 3.0, 4.0):
            recorder.record(value)
        summary = recorder.summary()
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.median == pytest.approx(2.5)
        assert summary.maximum == 4.0

    def test_empty_summary(self):
        summary = LatencyRecorder().summary()
        assert summary.count == 0
        assert summary.format() == "no completed messages"

    def test_negative_rejected(self):
        with pytest.raises(SimulationError):
            LatencyRecorder().record(-1.0)


class TestRunner:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(scheduler="bogus")
        with pytest.raises(ConfigurationError):
            SimulationConfig(duration=0)

    def test_paper_stack_shape(self):
        layers = build_paper_stack()
        assert len(layers) == 5
        assert all(layer.footprint.code_bytes == 6144 for layer in layers)
        # 1652 cycles for the paper's 552-byte message.
        assert layers[0].footprint.base_cycles + 0.5 * 552 == pytest.approx(1652)

    def test_all_messages_accounted(self):
        config = SimulationConfig(scheduler="ldlp", duration=0.05)
        result = run_simulation(PoissonSource(2000, rng=1), config, seed=1)
        assert result.completed + result.dropped == result.offered
        assert result.offered > 0

    def test_deterministic_with_seed(self):
        config = SimulationConfig(scheduler="ldlp", duration=0.05)
        a = run_simulation(PoissonSource(3000, rng=7), config, seed=7)
        b = run_simulation(PoissonSource(3000, rng=7), config, seed=7)
        assert a.latency.mean == b.latency.mean
        assert a.misses == b.misses

    def test_low_load_no_batching(self):
        config = SimulationConfig(scheduler="ldlp", duration=0.05)
        result = run_simulation(DeterministicSource(100), config, seed=0)
        assert result.mean_batch_size == pytest.approx(1.0)

    def test_overload_drops(self):
        config = SimulationConfig(scheduler="conventional", duration=0.2)
        result = run_simulation(PoissonSource(9000, rng=2), config, seed=2)
        assert result.dropped > 0
        assert result.drop_fraction > 0

    def test_ldlp_beats_conventional_at_high_rate(self):
        comparison = compare_schedulers(
            arrival_rate=8000, duration=0.1, seed=3
        )
        assert comparison.speedup() > 1.5
        ldlp = comparison["ldlp"]
        conv = comparison["conventional"]
        assert ldlp.latency.mean < conv.latency.mean
        assert ldlp.misses.total < conv.misses.total

    def test_low_rate_latencies_comparable(self):
        comparison = compare_schedulers(arrival_rate=500, duration=0.1, seed=4)
        ratio = (
            comparison["ldlp"].latency.mean
            / comparison["conventional"].latency.mean
        )
        assert 0.5 < ratio < 2.0

    def test_summary_strings(self):
        comparison = compare_schedulers(arrival_rate=2000, duration=0.05, seed=5)
        text = comparison.summary()
        assert "ldlp" in text
        assert "speedup" in text


class TestMergeResults:
    def make(self, mean, count=10, completed=10):
        from repro.sim.stats import LatencySummary

        return RunResult(
            scheduler="ldlp",
            arrival_rate=1000,
            offered=completed,
            completed=completed,
            dropped=0,
            duration=1.0,
            latency=LatencySummary(count, mean, mean, mean, mean, mean),
            misses=MissesPerMessage(instruction=100, data=10),
            cycles_per_message=5000,
            mean_batch_size=2.0,
        )

    def test_weighted_average(self):
        merged = merge_results([self.make(1.0, count=10), self.make(3.0, count=30)])
        assert merged.latency.mean == pytest.approx(2.5)
        assert merged.completed == 20

    def test_empty_rejected(self):
        with pytest.raises(SimulationError):
            merge_results([])

    def test_single_identity(self):
        one = self.make(2.0)
        merged = merge_results([one])
        assert merged.latency.mean == pytest.approx(2.0)
        assert merged.misses.total == pytest.approx(110)
