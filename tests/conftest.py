"""Shared fixtures."""

import pytest

from repro.experiments import ablations
from repro.experiments.report import point_rows
from repro.harness.points import SweepPoint
from repro.sim import vec


@pytest.fixture(autouse=True)
def fresh_vec_tables():
    """Empty the vec engine's table store before each test, so a test
    that reads an engine's table sees only what its own runs compiled."""
    vec.clear_tables()


@pytest.fixture(scope="session")
def ablation_sweep():
    """Run one ablation at hand-picked values, as its sweep points would.

    Returns ``run(sweep, values, rate, duration)``: each value goes
    through ``ablations.compute_point`` and is decoded by
    ``ablations.decode_pair``, giving ``(conventional, ldlp)``: each
    scheduler's run results in value order.
    """
    def run(sweep, values, rate, duration):
        points = [
            SweepPoint(
                experiment="ablations",
                key=f"{sweep}={value:g}",
                func="repro.experiments.ablations:compute_point",
                params={
                    "sweep": sweep, "value": value, "rate": rate,
                    "duration": duration,
                },
            )
            for value in values
        ]
        results = {point.key: point.execute() for point in points}
        pairs = [pair for _, pair in point_rows(points, results, ablations.decode_pair)]
        conventional, ldlp = zip(*pairs)
        return conventional, ldlp

    return run
