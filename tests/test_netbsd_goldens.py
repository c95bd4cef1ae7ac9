"""Golden pins of Table 1 — the NetBSD receive-path working sets.

The paper's Table 1 ("Breakdown of Working Set Sizes in NetBSD TCP
Receive & Acknowledge Path") is the anchor the whole receive-path model
is calibrated against.  These tests hard-code every published cell so
that neither the transcription in :mod:`repro.netbsd.layers` nor the
measured model in :mod:`repro.experiments.table1` can drift silently:
each group is pinned by name, so a failure names exactly the layer and
category that moved.
"""

from __future__ import annotations

import pytest

from repro.cache.workingset import Category
from repro.experiments import table1
from repro.harness import check_claims
from repro.netbsd.layers import (
    PAPER_TABLE1,
    PAPER_TABLE1_TOTAL,
    table1_row_sum,
)

#: Table 1 as printed in the paper: layer -> (code, read-only, mutable)
#: bytes at 32-byte cache lines.  Kept as an independent copy so a typo
#: in repro.netbsd.layers cannot self-certify.
EXPECTED_TABLE1 = {
    "Ethernet": (4480, 864, 672),
    "IP": (2784, 480, 128),
    "TCP": (3168, 448, 160),
    "Socket low": (5536, 544, 448),
    "Socket high": (608, 32, 160),
    "Kernel entry/exit": (1184, 256, 64),
    "Process control": (2208, 1280, 640),
    "Buffer mgmt": (5472, 544, 736),
    "Common": (1632, 192, 512),
    "Copy, checksum": (3232, 448, 128),
}

#: Sum of the published rows.  The paper's printed code total (30592)
#: exceeds this by 288 — a discrepancy in the source text itself; the
#: row sum is what the model reproduces.
EXPECTED_ROW_SUM = (30304, 5088, 3648)


@pytest.fixture(scope="module")
def measured():
    return table1.run(seed=0)


class TestPublishedConstants:
    def test_layer_set_matches(self):
        assert set(PAPER_TABLE1) == set(EXPECTED_TABLE1)

    @pytest.mark.parametrize("layer", sorted(EXPECTED_TABLE1))
    def test_published_row(self, layer):
        code, readonly, mutable = EXPECTED_TABLE1[layer]
        row = PAPER_TABLE1[layer]
        assert row.code == code
        assert row.readonly == readonly
        assert row.mutable == mutable
        assert row.total == code + readonly + mutable

    def test_row_sum(self):
        row_sum = table1_row_sum()
        assert (row_sum.code, row_sum.readonly, row_sum.mutable) == (
            EXPECTED_ROW_SUM
        )

    def test_printed_total_discrepancy_is_288_code_bytes(self):
        """The paper's own totals row: ro/mut columns sum exactly, the
        code column is 288 bytes over the row sum."""
        assert PAPER_TABLE1_TOTAL.code - table1_row_sum().code == 288
        assert PAPER_TABLE1_TOTAL.readonly == EXPECTED_ROW_SUM[1]
        assert PAPER_TABLE1_TOTAL.mutable == EXPECTED_ROW_SUM[2]


class TestMeasuredModel:
    @pytest.mark.parametrize("layer", sorted(EXPECTED_TABLE1))
    def test_measured_row(self, measured, layer):
        code, readonly, mutable = EXPECTED_TABLE1[layer]
        assert measured.measured(layer, Category.CODE) == code
        assert measured.measured(layer, Category.READONLY) == readonly
        assert measured.measured(layer, Category.MUTABLE) == mutable

    def test_measured_totals_equal_row_sum(self, measured):
        totals = tuple(
            measured.report.total(category).bytes for category in Category
        )
        assert totals == EXPECTED_ROW_SUM

    def test_matches_paper_flag(self, measured):
        assert measured.matches_paper()

    def test_placement_seed_does_not_change_sizes(self):
        """Working-set *sizes* are layout-independent: a different
        placement seed moves addresses, not byte counts."""
        other = table1.run(seed=7)
        for layer, (code, readonly, mutable) in EXPECTED_TABLE1.items():
            assert other.measured(layer, Category.CODE) == code
            assert other.measured(layer, Category.READONLY) == readonly
            assert other.measured(layer, Category.MUTABLE) == mutable


class TestSweepQuantities:
    def test_sweep_quantities_pin_every_cell(self):
        """The harness golden for table1 carries one named quantity per
        cell, matching this file's expectations."""
        points = table1.SWEEP.points_for("ci")
        results = {points[0].key: table1.compute_point(seed=0)}
        quantities = table1.SWEEP.quantities(points, results)
        for layer, (code, readonly, mutable) in EXPECTED_TABLE1.items():
            prefix = table1.slug(layer)
            assert quantities[f"{prefix}_code"] == code
            assert quantities[f"{prefix}_readonly"] == readonly
            assert quantities[f"{prefix}_mutable"] == mutable
        assert quantities["total_code"] == EXPECTED_ROW_SUM[0]
        assert quantities["total_readonly"] == EXPECTED_ROW_SUM[1]
        assert quantities["total_mutable"] == EXPECTED_ROW_SUM[2]
        assert check_claims(table1.SWEEP, points, results) == []
