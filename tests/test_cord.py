"""Tests for Cord-style layout compaction and the CISC-density ablation
(paper Sections 5.2 and 5.4)."""

import pytest

from repro.cache.workingset import Category, WorkingSetAnalyzer
from repro.netbsd import (
    ReceivePathModel,
    compact_trace,
    measure_dilution,
    run_cord_experiment,
)
from repro.trace import LayerClassifier, code_ref


class TestMeasureDilution:
    def test_fully_dense_code_has_zero_dilution(self):
        ws = WorkingSetAnalyzer(LayerClassifier({"f": "L"}))
        ws.consume([code_ref(i, 4, "f") for i in range(0, 320, 4)])
        report = measure_dilution(ws)
        assert report.dilution == pytest.approx(0.0)
        assert report.lines_before == report.lines_after

    def test_half_dense_code(self):
        # Touch 4 of every 8 words: 50% dilution.
        ws = WorkingSetAnalyzer(LayerClassifier({"f": "L"}))
        refs = []
        for line in range(10):
            for word in range(4):
                refs.append(code_ref(line * 32 + word * 4, 4, "f"))
        ws.consume(refs)
        report = measure_dilution(ws)
        assert report.dilution == pytest.approx(0.5)
        assert report.lines_after == 5
        assert report.line_savings == pytest.approx(0.5)

    def test_empty_analyzer(self):
        report = measure_dilution(WorkingSetAnalyzer())
        assert report.dilution == 0.0
        assert report.line_savings == 0.0


class TestReceivePathDilution:
    @pytest.fixture(scope="class")
    def result(self):
        return run_cord_experiment(seed=0)

    def test_dilution_near_paper_quarter(self, result):
        # "about 25% of instructions fetched into the cache are not
        # executed" — we calibrate Table 3, and this falls out.
        assert 0.20 < result.before.dilution < 0.33

    def test_compaction_saves_near_quarter(self, result):
        savings = 1 - result.lines_measured_after / result.before.lines_before
        assert 0.18 < savings < 0.33

    def test_measured_close_to_ideal(self, result):
        # Per-function packing cannot beat the global ideal but should
        # come close (fragmentation only at function tails).
        assert result.lines_measured_after >= result.before.lines_after
        assert result.lines_measured_after <= 1.1 * result.before.lines_after

    def test_render(self, result):
        assert "dilution" in result.render()


class TestCompactTrace:
    def test_structure_preserved(self):
        model = ReceivePathModel(seed=0)
        trace = model.build_trace()
        compacted = compact_trace(model, trace)
        assert len(compacted.refs) == len(trace.refs)
        assert compacted.phase_marks == trace.phase_marks
        assert compacted.call_events == trace.call_events

    def test_data_refs_untouched(self):
        model = ReceivePathModel(seed=0)
        trace = model.build_trace()
        compacted = compact_trace(model, trace)
        for original, packed in zip(trace.refs, compacted.refs):
            if not original.is_code():
                assert original == packed

    def test_code_stays_within_function(self):
        model = ReceivePathModel(seed=0)
        trace = model.build_trace()
        compacted = compact_trace(model, trace)
        functions = model._functions
        for ref in compacted.refs[:5000]:
            if ref.is_code() and ref.fn in functions:
                placed = functions[ref.fn]
                assert placed.base <= ref.addr < placed.base + placed.spec.size

    def test_table1_totals_preserved_at_word_granularity(self):
        """Compaction moves code but never changes how much executes."""
        model = ReceivePathModel(seed=0)
        trace = model.build_trace()
        before = model.analyze(trace)
        after = WorkingSetAnalyzer(model.classifier())
        after.consume(model.table1_refs(compact_trace(model, trace)))
        assert (
            before.totals_at(4)[Category.CODE].bytes
            == after.totals_at(4)[Category.CODE].bytes
        )


class TestCiscDensity:
    def test_i386_shrinks_the_gap(self, ablation_sweep):
        conventional, ldlp = ablation_sweep("cisc_density", (1.0, 0.45), rate=5000,
                                            duration=0.08)
        alpha_adv = (
            conventional[0].cycles_per_message
            / ldlp[0].cycles_per_message
        )
        i386_adv = (
            conventional[1].cycles_per_message
            / ldlp[1].cycles_per_message
        )
        assert alpha_adv > i386_adv
        # i386: the 5-layer stack is ~13.8 KB, still above 8 KB, so some
        # advantage remains — but far less.
        assert i386_adv > 0.95

    def test_i386_conventional_misses_lower(self, ablation_sweep):
        conventional, _ = ablation_sweep("cisc_density", (1.0, 0.45), rate=3000,
                                         duration=0.08)
        assert conventional[1].misses.total < 0.6 * conventional[0].misses.total
