"""Shared fixtures."""

import pytest

from repro.experiments import ablations
from repro.harness.points import SweepPoint


@pytest.fixture(scope="session")
def ablation_sweep():
    """Run one ablation at hand-picked values, as its sweep points would.

    Returns ``run(sweep, values, rate, duration)``: each value goes
    through ``ablations.compute_point`` and the results through
    ``ablations.assemble``, giving one :class:`ablations.SweepResult`.
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
        (sweep_result,) = ablations.assemble(points, results).sweeps
        return sweep_result

    return run
