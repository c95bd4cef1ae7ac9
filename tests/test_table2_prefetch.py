"""Tests for the Table 2 narrative harness and the prefetch model/ablation."""

import pytest

from repro.cache.hierarchy import MachineSpec
from repro.errors import ConfigurationError
from repro.experiments import table2
from repro.machine import CPU
from repro.sim import SimulationConfig, run_simulation
from repro.traffic import PoissonSource


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        return table2.run(seed=0)

    def test_narrative_orderings_hold(self, result):
        assert result.narrative_holds()

    def test_entry_ends_asleep(self, result):
        functions = result.phase_functions("entry")
        assert functions[-1] in ("cpu_switch", "mi_switch")

    def test_interrupt_starts_at_the_device(self, result):
        functions = result.phase_functions("pkt intr")
        assert functions[0] == "XentInt"

    def test_render_mentions_fastpath(self, result):
        assert "fastpath" in result.render()

    def test_other_seeds_hold_too(self):
        assert table2.run(seed=3).narrative_holds()


class TestPrefetchModel:
    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            MachineSpec(iprefetch_efficiency=1.0)
        with pytest.raises(ConfigurationError):
            MachineSpec(iprefetch_efficiency=-0.1)

    def test_instruction_stall_scaled(self):
        plain = CPU(MachineSpec())
        prefetching = CPU(MachineSpec(iprefetch_efficiency=0.5))
        plain.fetch_code_span(0, 6144)
        prefetching.fetch_code_span(0, 6144)
        assert prefetching.stall_cycles == pytest.approx(
            plain.stall_cycles * 0.5
        )

    def test_data_stall_unaffected(self):
        plain = CPU(MachineSpec())
        prefetching = CPU(MachineSpec(iprefetch_efficiency=0.5))
        plain.read_data_span(0, 552)
        prefetching.read_data_span(0, 552)
        assert prefetching.stall_cycles == plain.stall_cycles

    def test_with_clock_preserves_prefetch(self):
        spec = MachineSpec(iprefetch_efficiency=0.25).with_clock(50e6)
        assert spec.iprefetch_efficiency == 0.25


class TestPrefetchAblation:
    def test_prefetch_narrows_but_keeps_advantage(self, ablation_sweep):
        # 8000 msgs/s: past conventional saturation even with prefetch,
        # so batching is actually exercised.
        sweep = ablation_sweep("prefetch", (0.0, 0.75), rate=8000, duration=0.08)
        advantages = [
            conv.cycles_per_message / ldlp.cycles_per_message
            for conv, ldlp in zip(sweep.conventional, sweep.ldlp)
        ]
        assert advantages[0] > advantages[1]  # prefetch narrows the gap
        assert advantages[1] > 1.05  # but cannot erase it

    def test_prefetch_lowers_conventional_latency(self):
        source = PoissonSource(5000, rng=8)
        arrivals = source.arrival_list(0.1)
        means = []
        for efficiency in (0.0, 0.6):
            config = SimulationConfig(
                scheduler="conventional",
                duration=0.1,
                spec=MachineSpec(iprefetch_efficiency=efficiency),
            )
            means.append(
                run_simulation(source, config, seed=8,
                               arrivals=arrivals).latency.mean
            )
        assert means[1] < means[0]
