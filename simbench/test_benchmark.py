"""Self-test of the benchmark: ``pytest simbench/test_benchmark.py``.

Runs the suite API on truncated run lists (one pass of one or two
points per workload), so it takes seconds rather than minutes.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.harness.points import SweepPoint
from repro.sim.runner import poisson_point
from simbench import ROOT, compare, suite
from simbench.tracing import LAYER_NAMES, Tracer, self_times
from simbench.workloads import WORKLOADS

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def names(section: str) -> list[str]:
    return [metric["name"] for metric in SPEC[section]]


def corrupted_point(**params) -> dict:
    """A Poisson point whose result claims one completion too many."""
    result = poisson_point(**params)
    result["completed"] += 1
    return result


@pytest.fixture(scope="module")
def traced(tmp_path_factory) -> dict[str, suite.TraceResult]:
    out = tmp_path_factory.mktemp("trace")
    return {
        workload: suite.trace(workload, points[:1], 0, 0.0, out / workload)
        for workload, points in WORKLOADS.items()
    }


def test_workload_names_match_benchmark_json():
    assert [workload["name"] for workload in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metric_names_match_benchmark_json():
    measured = suite.measure("poisson", WORKLOADS["poisson"][:2], 0, 0.0, spawns=1)
    assert measured.failed == 0
    assert list(measured.metrics()) == names("end_to_end")
    assert all(value > 0 for value, *_ in measured.metrics().values())


def test_per_layer_metric_names_match_benchmark_json(traced):
    for result in traced.values():
        assert result.missing == []
        assert list(result.metrics) == names("per_layer")


def test_traced_digests_equal_untraced(traced):
    expected = suite.load_expected()
    for workload, result in traced.items():
        assert result.failed == 0
        for run in result.runs:
            assert run.digest == expected[workload][run.key][run.seed]


def test_layer_separation(traced):
    def value(workload: str, metric: str) -> float:
        return traced[workload].metrics[metric][0]

    for workload in ("poisson", "bellcore"):
        assert value(workload, "vec.fallback_frac") == 0
        assert value(workload, "binding.charge.calls_per_msg") == 0
    for workload in ("lookup", "multicore"):
        assert value(workload, "vec.fallback_frac") == 1
    for metric in ("flows.charge.self_share", "flows.lookups_per_msg"):
        assert [w for w in WORKLOADS if value(w, metric) > 0] == ["lookup"]
    assert [w for w in WORKLOADS if value(w, "dispatch.select.self_share") > 0] == ["multicore"]


def test_child_spans_nest_inside_their_parent():
    tracer = Tracer()
    point = suite.with_seed(WORKLOADS["lookup"][0], 0)
    with tracer.installed():
        suite.execute(point)
    spans = tracer.spans()
    nested = spans["parent"] >= 0
    parents = spans["parent"][nested]
    assert nested.sum() > 1000
    assert (spans["start"][nested] >= spans["start"][parents]).all()
    assert (spans["end"][nested] <= spans["end"][parents]).all()
    assert (self_times(spans) >= 0).all()
    roots = spans["layer"][~nested]
    assert set(roots.tolist()) == {LAYER_NAMES.index("harness.point")}
    assert np.isclose(self_times(spans).sum(), (spans["end"] - spans["start"])[~nested].sum())


def test_wrappers_are_removed_after_a_traced_run():
    from repro.core.binding import MachineBinding
    from repro.sim import runner

    before = (MachineBinding.charge, runner.drive)
    with Tracer().installed():
        assert MachineBinding.charge is not before[0]
    assert (MachineBinding.charge, runner.drive) == before


def test_corrupted_result_counts_as_failed():
    good = WORKLOADS["poisson"][0]
    bad = SweepPoint("poisson", "corrupt", f"{__name__}:corrupted_point", good.params)
    measured = suite.measure("poisson", [good, bad], 0, 0.0, spawns=1)
    assert [run.failure is not None for run in measured.runs] == [False, True]
    assert measured.failed / len(measured.runs) == 0.5


def test_compare_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert compare.verdict(parent, parent, "higher", 0.1)[0] == "unchanged"
    assert compare.verdict(parent, [v * 1.3 for v in parent], "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1)[0] == "regressed"
    noisy = [50.0, 150.0] * 5
    assert compare.verdict(parent, noisy, "higher", 0.1)[0] == "unresolved"
