"""Tests for the Figure 2/3 schedule rendering — the implemented
schedulers must realize exactly the orders the paper draws."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConventionalScheduler,
    GroupedLDLPScheduler,
    ILPScheduler,
    LDLPScheduler,
)
from repro.core.blocking import blocked_schedule, conventional_schedule
from repro.experiments import schedules
from repro.experiments.schedules import observed_order, render_order
from repro.harness import run_assembled


class TestObservedOrders:
    def test_conventional_matches_figure(self):
        # Figure 3 left column: each layer applied to P0, then P1.
        order = observed_order(ConventionalScheduler, 4, 2)
        assert order == conventional_schedule(4, 2)

    def test_ilp_outer_order_equals_conventional(self):
        # "ILP: ... Outer loop has poor locality" — same visit order.
        assert observed_order(ILPScheduler, 4, 2) == observed_order(
            ConventionalScheduler, 4, 2
        )

    def test_ldlp_matches_blocked_figure(self):
        # Figure 3 right column: each layer over the whole batch.
        order = observed_order(LDLPScheduler, 4, 2, batch=2)
        assert order == blocked_schedule(4, 2, block=2)

    def test_ldlp_partial_batches(self):
        order = observed_order(LDLPScheduler, 2, 5, batch=2)
        assert order == blocked_schedule(2, 5, block=2)

    @given(
        num_layers=st.integers(1, 5),
        num_messages=st.integers(1, 8),
        batch=st.integers(1, 8),
    )
    @settings(max_examples=40, deadline=None)
    def test_ldlp_always_equals_blocked_schedule(self, num_layers,
                                                 num_messages, batch):
        """Property: the on-line LDLP scheduler run offline produces
        exactly the off-line blocked schedule — Section 3.1's claim that
        LDLP is the on-line realization of blocking."""
        order = observed_order(LDLPScheduler, num_layers, num_messages, batch)
        assert order == blocked_schedule(num_layers, num_messages, batch)

    def test_grouped_blocks_within_groups(self):
        def grouped_factory(layers, **kwargs):
            return GroupedLDLPScheduler(layers, groups=[[0, 1], [2, 3]], **kwargs)

        order = observed_order(grouped_factory, 4, 2, batch=2)
        # Group {L0,L1} runs depth-first per message over the batch,
        # then group {L2,L3}.
        assert order == [
            (0, 0), (1, 0), (0, 1), (1, 1),
            (2, 0), (3, 0), (2, 1), (3, 1),
        ]


class TestRendering:
    def test_figure23_text_mentions_all(self):
        text = run_assembled(schedules.SWEEP, "ci")
        assert "Conventional" in text
        assert "Blocked / LDLP" in text
        assert "(L0,P0)" in text

    def test_render_order_shape(self):
        order = blocked_schedule(2, 2, 2)
        text = render_order(order, 2, 2)
        lines = text.splitlines()
        assert len(lines) == 1 + len(order)
        assert lines[1].endswith("P0")
