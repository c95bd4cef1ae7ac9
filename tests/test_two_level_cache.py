"""Tests for the optional second-level cache (Section 1.2 / 4 remarks)."""

import numpy as np
import pytest

from repro.cache import CacheGeometry, MachineSpec
from repro.errors import ConfigurationError
from repro.machine import CPU
from repro.sim import SimulationConfig, run_simulation
from repro.traffic import PoissonSource
from repro.units import kb

L2_SPEC = MachineSpec(
    l2=CacheGeometry(size=kb(512)),
    miss_penalty=20,
    memory_penalty=100,
)


class TestSpecValidation:
    def test_l2_must_match_line_size(self):
        with pytest.raises(ConfigurationError):
            MachineSpec(l2=CacheGeometry(size=kb(512), line_size=64))

    def test_l2_must_be_larger(self):
        with pytest.raises(ConfigurationError):
            MachineSpec(l2=CacheGeometry(size=kb(4)))

    def test_memory_penalty_floor(self):
        with pytest.raises(ConfigurationError):
            MachineSpec(miss_penalty=50, memory_penalty=20)

    def test_with_clock_preserves_l2(self):
        scaled = L2_SPEC.with_clock(50e6)
        assert scaled.l2 == L2_SPEC.l2
        assert scaled.memory_penalty == 100


#: The first line of memory, and a 6 KB layer's 192 lines from it.
FIRST_LINE = np.arange(1, dtype=np.int64)
LAYER_LINES = np.arange(192, dtype=np.int64)


def stall(cpu, access, lines) -> float:
    """Stall cycles one ``CPU.fetch_code_lines``/``read_data_lines``
    call charges."""
    before = cpu.stall_cycles
    access(lines)
    return cpu.stall_cycles - before


class TestHierarchy:
    def test_flat_model_unchanged(self):
        """Without an L2, every primary miss costs miss_penalty."""
        cpu = CPU(MachineSpec())
        assert stall(cpu, cpu.fetch_code_lines, LAYER_LINES) == 192 * 20
        assert stall(cpu, cpu.fetch_code_lines, LAYER_LINES) == 0

    def test_cold_miss_costs_memory_penalty(self):
        cpu = CPU(L2_SPEC)
        # First touch misses both levels.
        assert stall(cpu, cpu.fetch_code_lines, FIRST_LINE) == 100

    def test_l2_hit_costs_miss_penalty(self):
        cpu = CPU(L2_SPEC)
        cpu.fetch_code_lines(FIRST_LINE)
        cpu.hierarchy.icache.flush()  # evict from L1 only
        assert stall(cpu, cpu.fetch_code_lines, FIRST_LINE) == 20

    def test_l1_hit_costs_nothing(self):
        cpu = CPU(L2_SPEC)
        cpu.fetch_code_lines(FIRST_LINE)
        assert stall(cpu, cpu.fetch_code_lines, FIRST_LINE) == 0

    def test_l2_shared_between_i_and_d(self):
        """The L2 is unified: data fetches warm it for code too."""
        cpu = CPU(L2_SPEC)
        cpu.read_data_lines(FIRST_LINE)
        assert stall(cpu, cpu.fetch_code_lines, FIRST_LINE) == 20  # L2 hit

    def test_flush_clears_l2(self):
        cpu = CPU(L2_SPEC)
        cpu.fetch_code_lines(FIRST_LINE)
        cpu.hierarchy.flush()
        assert stall(cpu, cpu.fetch_code_lines, FIRST_LINE) == 100


class TestCpuWithL2:
    def test_line_array_path(self):
        cpu = CPU(L2_SPEC)
        cpu.fetch_code_lines(LAYER_LINES)
        assert cpu.stall_cycles == 192 * 100
        cpu.hierarchy.icache.flush()
        before = cpu.stall_cycles
        cpu.fetch_code_lines(LAYER_LINES)
        assert cpu.stall_cycles - before == 192 * 20

    def test_span_path(self):
        """A 552-byte message at address 0 spans 18 lines."""
        cpu = CPU(L2_SPEC)
        cpu.read_data_lines(np.arange(18, dtype=np.int64))
        assert cpu.stall_cycles == 18 * 100


class TestEndToEnd:
    def test_l2_narrows_but_preserves_ldlp_win(self):
        """With a big L2 the penalty gap shrinks but the working set
        still exceeds L1, so LDLP still wins at high load."""
        source = PoissonSource(8000, rng=0)
        arrivals = source.arrival_columns(0.1)
        results = {}
        for name in ("conventional", "ldlp"):
            config = SimulationConfig(
                scheduler=name, duration=0.1, spec=L2_SPEC
            )
            results[name] = run_simulation(source, config, seed=0,
                                           columns=arrivals)
        assert (
            results["ldlp"].cycles_per_message
            < results["conventional"].cycles_per_message
        )

    def test_l2_reduces_conventional_cost_vs_memory(self):
        """An L2 should be strictly cheaper than paying memory penalty
        on every primary miss."""
        source = PoissonSource(4000, rng=1)
        arrivals = source.arrival_columns(0.1)
        flat_expensive = MachineSpec(miss_penalty=100, memory_penalty=100)
        with_l2 = L2_SPEC
        costs = {}
        for label, spec in (("flat100", flat_expensive), ("l2", with_l2)):
            config = SimulationConfig(
                scheduler="conventional", duration=0.1, spec=spec
            )
            costs[label] = run_simulation(
                source, config, seed=1, columns=arrivals
            ).cycles_per_message
        assert costs["l2"] < costs["flat100"]
