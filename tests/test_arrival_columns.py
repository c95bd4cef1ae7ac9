"""Arrival columns, source by source.

Columns are the one arrival format: the simulator builds its messages
from :meth:`~repro.traffic.base.TrafficSource.arrival_columns`, fault
plans transform them and trace files read into them.  Each source's
columns must have its fixed names in order, one length, built-in
Python values (the JSON digests and message metas see them as they
are) and be a pure function of the source's seed, empty horizons
included.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gossip import FRAMING_MODES, GossipFleetSource, GossipFleetSpec
from repro.gossip.wire import CONTROL_PAYLOAD_BYTES, datagram_accounting
from repro.sim.runner import SimulationConfig, run_simulation
from repro.traffic.onoff import ParetoOnOffSource
from repro.traffic.poisson import DeterministicSource, PoissonSource
from repro.traffic.zipf import ZipfFlowSource, zipf_flow_ids

#: Horizons: none (0 s and 0.1 µs draw no arrival), short and long.
HORIZONS = (0.0, 1e-7, 0.004, 0.03)

#: Each column's value type.
TYPES = {
    "time": float, "size": int, "flow": int, "kind": str,
    "community": int, "messages": int, "header_bytes": int,
}


def _base(kind: str, seed: int):
    if kind == "poisson":
        return PoissonSource(11000.0, rng=seed)
    if kind == "onoff":
        return ParetoOnOffSource(num_sources=8, packet_rate_on=4000.0, rng=seed)
    return DeterministicSource(9000.0, size=64)


def assert_columns_schema(make, names: list[str], duration: float) -> dict:
    """A fresh source's columns: ``names`` in order, one length, values of
    the built-in types, and equal to a second fresh source's columns."""
    columns = make().arrival_columns(duration)
    assert list(columns) == names
    assert len({len(column) for column in columns.values()}) == 1
    for name, column in columns.items():
        assert {type(value) for value in column} <= {TYPES[name]}
    assert make().arrival_columns(duration) == columns
    return columns


@settings(max_examples=30, deadline=None)
@given(
    base=st.sampled_from(["poisson", "onoff", "deterministic"]),
    skew=st.sampled_from([0.0, 1.1]),
    duration=st.sampled_from(HORIZONS),
    seed=st.integers(0, 2**10),
)
def test_zipf_columns_schema(base, skew, duration, seed):
    """Zipf flows over Poisson, Pareto ON/OFF and deterministic bases:
    the base's columns, plus one block of Zipf flow ids."""
    columns = assert_columns_schema(
        lambda: ZipfFlowSource(_base(base, seed), num_flows=64, skew=skew, seed=seed),
        ["time", "size", "flow"],
        duration,
    )
    base_columns = _base(base, seed).arrival_columns(duration)
    assert {"time": columns["time"], "size": columns["size"]} == base_columns
    flows = zipf_flow_ids(len(columns["time"]), 64, skew, seed).tolist()
    assert columns["flow"] == flows


@settings(max_examples=30, deadline=None)
@given(
    framing=st.sampled_from(sorted(FRAMING_MODES)),
    collection_size=st.sampled_from([1, 8]),
    data_fraction=st.sampled_from([0.0, 0.75, 1.0]),
    duration=st.sampled_from(HORIZONS),
    seed=st.integers(0, 2**10),
)
def test_gossip_columns_schema(
    framing, collection_size, data_fraction, duration, seed
):
    """Gossip fleets under both framings, collections of 1 and 8, and
    all-control, mixed and all-data streams: each datagram's size,
    header bytes and message count are its kind's wire accounting, and
    its community is its peer's."""
    spec = GossipFleetSpec(
        num_peers=500, framing=framing, collection_size=collection_size,
        data_fraction=data_fraction, rate=12000.0, seed=seed,
    )
    columns = assert_columns_schema(
        lambda: GossipFleetSource(spec),
        ["time", "size", "flow", "kind", "community", "messages", "header_bytes"],
        duration,
    )
    for kind, size, header, messages in zip(
        columns["kind"], columns["size"], columns["header_bytes"], columns["messages"]
    ):
        payloads = (
            [spec.data_payload_bytes] * collection_size
            if kind == "data"
            else [CONTROL_PAYLOAD_BYTES[kind]]
        )
        assert (size, header, messages) == datagram_accounting(framing, kind, payloads)
    assert columns["community"] == [spec.community_of(peer) for peer in columns["flow"]]


@pytest.mark.parametrize("duration", HORIZONS)
def test_base_columns_schema(duration):
    """The plain sources the Zipf tests wrap."""
    for kind in ("poisson", "onoff", "deterministic"):
        assert_columns_schema(lambda: _base(kind, 3), ["time", "size"], duration)


def test_empty_horizons_draw_nothing():
    """The two shortest horizons really are empty for every source."""
    sources = [
        ZipfFlowSource(_base(kind, 3), seed=3)
        for kind in ("poisson", "onoff", "deterministic")
    ] + [GossipFleetSource(GossipFleetSpec(rate=12000.0, seed=3))]
    for source in sources:
        for duration in HORIZONS[:2]:
            assert source.arrival_columns(duration)["time"] == []


@pytest.mark.parametrize("clear_first", [True, False])
def test_zipf_snapshot_shared_by_repeat_draws(clear_first):
    """Repeated draws from one wrapper see one base stream: a Pareto
    ON/OFF base advances its RNG on every draw, so a second draw would
    tag a different stream with the same flow ids.  With
    ``clear_first`` the caller empties the first copy it was handed,
    which must leave the snapshot as it was."""
    source = ZipfFlowSource(_base("onoff", 5), num_flows=64, skew=1.1, seed=5)
    first = source.arrival_columns(0.03)
    assert first["time"]
    if clear_first:
        for column in first.values():
            column.clear()
    second = source.arrival_columns(0.03)
    fresh = ZipfFlowSource(_base("onoff", 5), num_flows=64, skew=1.1, seed=5)
    assert second == fresh.arrival_columns(0.03)
    assert second["time"]
    if not clear_first:
        assert second == first


def test_onoff_columns_check_sizes():
    """A run rejects the stream of a sampler that draws a bad size."""
    source = ParetoOnOffSource(num_sources=4, packet_rate_on=4000.0, size=0, rng=1)
    with pytest.raises(ConfigurationError, match="arrival size must be positive: 0"):
        run_simulation(source, SimulationConfig(duration=0.05))
