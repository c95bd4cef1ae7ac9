"""Arrival columns against arrival records, source by source.

The simulator builds its messages from
:meth:`~repro.traffic.base.TrafficSource.arrival_columns`; experiments,
fault plans and replays read :meth:`arrival_list`.  Both come from one
draw path per source, so a fresh source's columns must equal a fresh
source's records field by field, empty horizons included.
"""

from __future__ import annotations

from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gossip import FRAMING_MODES, GossipArrival, GossipFleetSource, GossipFleetSpec
from repro.traffic.base import Arrival, record_columns
from repro.traffic.onoff import ParetoOnOffSource
from repro.traffic.poisson import DeterministicSource, PoissonSource
from repro.traffic.zipf import FlowArrival, ZipfFlowSource

#: Horizons: none (0 s and 0.1 µs draw no arrival), short and long.
HORIZONS = (0.0, 1e-7, 0.004, 0.03)


def _base(kind: str, seed: int):
    if kind == "poisson":
        return PoissonSource(11000.0, rng=seed)
    if kind == "onoff":
        return ParetoOnOffSource(num_sources=8, packet_rate_on=4000.0, rng=seed)
    return DeterministicSource(9000.0, size=64)


def assert_columns_match(make, record_type: type, duration: float) -> None:
    """A fresh source's columns are its records' fields, in field order."""
    columns = make().arrival_columns(duration)
    records = make().arrival_list(duration)
    assert {type(record) for record in records} <= {record_type}
    assert list(columns) == [field.name for field in fields(record_type)]
    for name, column in columns.items():
        assert column == [getattr(record, name) for record in records]
        assert [type(value) for value in column] == [
            type(getattr(record, name)) for record in records
        ]


@settings(max_examples=30, deadline=None)
@given(
    base=st.sampled_from(["poisson", "onoff", "deterministic"]),
    skew=st.sampled_from([0.0, 1.1]),
    duration=st.sampled_from(HORIZONS),
    seed=st.integers(0, 2**10),
)
def test_zipf_columns_equal_records(base, skew, duration, seed):
    """Zipf flows over Poisson, Pareto ON/OFF and deterministic bases."""
    assert_columns_match(
        lambda: ZipfFlowSource(_base(base, seed), num_flows=64, skew=skew, seed=seed),
        FlowArrival,
        duration,
    )


@settings(max_examples=30, deadline=None)
@given(
    framing=st.sampled_from(sorted(FRAMING_MODES)),
    collection_size=st.sampled_from([1, 8]),
    data_fraction=st.sampled_from([0.0, 0.75, 1.0]),
    duration=st.sampled_from(HORIZONS),
    seed=st.integers(0, 2**10),
)
def test_gossip_columns_equal_records(
    framing, collection_size, data_fraction, duration, seed
):
    """Gossip fleets under both framings, collections of 1 and 8, and
    all-control, mixed and all-data streams."""
    spec = GossipFleetSpec(
        num_peers=500, framing=framing, collection_size=collection_size,
        data_fraction=data_fraction, rate=12000.0, seed=seed,
    )
    assert_columns_match(lambda: GossipFleetSource(spec), GossipArrival, duration)


@pytest.mark.parametrize("duration", HORIZONS)
def test_base_columns_equal_records(duration):
    """The plain sources the Zipf tests wrap."""
    for kind in ("poisson", "onoff", "deterministic"):
        assert_columns_match(lambda: _base(kind, 3), Arrival, duration)


def test_empty_horizons_draw_nothing():
    """The two shortest horizons really are empty for every source."""
    sources = [
        ZipfFlowSource(_base(kind, 3), seed=3)
        for kind in ("poisson", "onoff", "deterministic")
    ] + [GossipFleetSource(GossipFleetSpec(rate=12000.0, seed=3))]
    for source in sources:
        for duration in HORIZONS[:2]:
            assert source.arrival_columns(duration)["time"] == []


@pytest.mark.parametrize("columns_first", [True, False])
def test_zipf_snapshot_shared_by_columns_and_records(columns_first):
    """Columns and records of one wrapper see one base stream, in either
    order: a Pareto ON/OFF base advances its RNG on every draw, so a
    second draw would tag a different stream with the same flow ids."""
    source = ZipfFlowSource(_base("onoff", 5), num_flows=64, skew=1.1, seed=5)
    if columns_first:
        columns = source.arrival_columns(0.03)
        records = source.arrival_list(0.03)
    else:
        records = source.arrival_list(0.03)
        columns = source.arrival_columns(0.03)
    assert records
    assert columns == record_columns(records)
    fresh = ZipfFlowSource(_base("onoff", 5), num_flows=64, skew=1.1, seed=5)
    assert fresh.arrival_list(0.03) == records


def test_record_columns_of_mixed_records():
    """A plain arrival among flow-tagged ones contributes flow 0."""
    records = [FlowArrival(0.1, 100, 7), Arrival(0.2, 200), FlowArrival(0.3, 300, 2)]
    assert record_columns(records) == {
        "time": [0.1, 0.2, 0.3], "size": [100, 200, 300], "flow": [7, 0, 2],
    }
    assert record_columns([]) == {"time": [], "size": []}


def test_onoff_columns_check_sizes():
    """The column path raises Arrival's own error for a bad size."""
    source = ParetoOnOffSource(num_sources=4, packet_rate_on=4000.0, size=0, rng=1)
    with pytest.raises(ConfigurationError, match="arrival size must be positive: 0"):
        source.arrival_columns(0.05)
