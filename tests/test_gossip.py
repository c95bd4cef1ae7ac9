"""Tests of the gossip workload: wire formats, fleet generation, the
flow-charged gossip runner, and the ``gossip`` experiment.

The acceptance pins live here: (1) the byte-accurate wire model —
``datagram_accounting`` arithmetic equals the length of the real
encoders for every framing mode, (2) fleet streams are pure functions
of the spec (re-materializing a source yields identical arrivals),
(3) mixed tagged/untagged gossip batches exercise the untagged-walk
accounting end to end, (4) session framing strictly beats sessionless
on header bytes per message at every collection size with exact
conservation, and (5) the HARN004 rule keeps every registered framing
mode exercised by the sweep.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.harnesscheck import check_sweep_coverage
import repro.gossip.fleet as fleet_module
from repro.errors import ConfigurationError, WireError
from repro.experiments import gossip as experiment
from repro.flows import FlowCacheSpec
from repro.gossip import (
    CONTROL_KINDS,
    CONTROL_PAYLOAD_BYTES,
    DATAGRAM_OVERHEAD_BYTES,
    FRAMING_MODES,
    GossipFleetSource,
    GossipFleetSpec,
    WireIdentity,
    community_identifier,
    datagram_accounting,
    decode_collection,
    decode_message,
    encode_collection,
    encode_message,
    framing,
    message_wire_bytes,
)
from repro.gossip.runner import gossip_point, run_gossip_simulation
from repro.harness import check_claims
from repro.sim import SimulationConfig


IDENTITY = WireIdentity(
    session_id=0xDEADBEEF, community_id=community_identifier(3)
)


# ----------------------------------------------------------------------
# Wire formats (repro.gossip.wire)


class TestWireFormats:
    def test_header_sizes_match_the_document(self):
        # session id (4) + message id (1) + global time (8)
        assert framing("session").header_bytes == 13
        # versions (2) + community id (20) + message id (1) + time (8)
        assert framing("sessionless").header_bytes == 31

    @pytest.mark.parametrize("mode", sorted(FRAMING_MODES))
    def test_message_round_trip(self, mode):
        payload = b"\x01" * 67
        wire = encode_message(mode, "data", IDENTITY, 12345, payload)
        assert len(wire) == message_wire_bytes(mode, len(payload))
        kind, identity, global_time, decoded = decode_message(mode, wire)
        assert kind == "data"
        assert global_time == 12345
        assert decoded == payload
        if mode == "session":
            assert identity.session_id == IDENTITY.session_id
        else:
            assert identity.community_id == IDENTITY.community_id
            assert identity.dispersy_version == IDENTITY.dispersy_version

    @pytest.mark.parametrize("mode", sorted(FRAMING_MODES))
    def test_collection_round_trip(self, mode):
        elements = [
            encode_message(mode, "data", IDENTITY, t, bytes([t]) * 30)
            for t in (1, 2, 3)
        ]
        wire = encode_collection(mode, IDENTITY, 99, elements)
        assert decode_collection(mode, wire) == elements

    def test_unknown_mode_and_kind_rejected(self):
        with pytest.raises(WireError):
            framing("telepathy")
        with pytest.raises(WireError):
            encode_message("session", "gossip-rumor", IDENTITY, 0, b"")

    def test_identity_validation(self):
        with pytest.raises(WireError):
            WireIdentity(session_id=-1)
        with pytest.raises(WireError):
            WireIdentity(session_id=1 << 32)
        with pytest.raises(WireError):
            WireIdentity(dispersy_version=256)
        with pytest.raises(WireError):
            WireIdentity(community_id=b"short")

    def test_header_decode_validation(self):
        with pytest.raises(WireError):
            decode_message("session", b"\x00" * 5)  # truncated header
        bogus = bytearray(
            encode_message("session", "data", IDENTITY, 0, b"")
        )
        bogus[4] = 0xFF  # unassigned message identifier
        with pytest.raises(WireError):
            decode_message("session", bytes(bogus))
        with pytest.raises(WireError):
            encode_message("session", "data", IDENTITY, 1 << 64, b"")

    def test_collection_validation(self):
        with pytest.raises(WireError):
            encode_collection("session", IDENTITY, 0, [])
        with pytest.raises(WireError):
            encode_collection("session", IDENTITY, 0, [b"\x00" * 70_000])
        inner = encode_message("session", "data", IDENTITY, 0, b"x" * 10)
        wire = encode_collection("session", IDENTITY, 0, [inner])
        with pytest.raises(WireError):
            decode_collection("session", wire[:-3])  # truncated element
        with pytest.raises(WireError):
            decode_collection("session", inner)  # not a collection

    def test_community_identifier_is_stable_sha1(self):
        assert len(community_identifier(0)) == 20
        assert community_identifier(5) == community_identifier(5)
        assert community_identifier(5) != community_identifier(6)

    @pytest.mark.parametrize("mode", sorted(FRAMING_MODES))
    @pytest.mark.parametrize("count", [1, 2, 8])
    def test_accounting_matches_real_encoders(self, mode, count):
        """The arithmetic the fleet generator uses must equal the byte
        length of actually encoding the datagram."""
        payloads = [b"\x07" * 67] * count
        wire_bytes, header_bytes, messages = datagram_accounting(
            mode, "data", [len(p) for p in payloads]
        )
        if count == 1:
            encoded = encode_message(mode, "data", IDENTITY, 1, payloads[0])
        else:
            elements = [
                encode_message(mode, "data", IDENTITY, 1, payload)
                for payload in payloads
            ]
            encoded = encode_collection(mode, IDENTITY, 1, elements)
        assert wire_bytes == DATAGRAM_OVERHEAD_BYTES + len(encoded)
        assert messages == count
        assert header_bytes == wire_bytes - sum(len(p) for p in payloads)

    def test_accounting_control_kinds_travel_alone(self):
        for kind in CONTROL_KINDS:
            payload = CONTROL_PAYLOAD_BYTES[kind]
            wire_bytes, header_bytes, messages = datagram_accounting(
                "session", kind, [payload]
            )
            assert messages == 1
            assert wire_bytes == header_bytes + payload
            with pytest.raises(WireError):
                datagram_accounting("session", kind, [payload, payload])

    def test_accounting_validation(self):
        with pytest.raises(WireError):
            datagram_accounting("session", "data", [])
        with pytest.raises(WireError):
            datagram_accounting("session", "data", [-1])
        with pytest.raises(WireError):
            message_wire_bytes("session", -1)

    def test_session_headers_smaller_at_every_size(self):
        for count in (1, 2, 8, 32):
            _, session_hdr, _ = datagram_accounting(
                "session", "data", [67] * count
            )
            _, sessionless_hdr, _ = datagram_accounting(
                "sessionless", "data", [67] * count
            )
            assert session_hdr < sessionless_hdr

    def test_packing_amortizes_header_bytes_per_message(self):
        per_message = []
        for count in (1, 2, 4, 8):
            _, header, messages = datagram_accounting(
                "session", "data", [67] * count
            )
            per_message.append(header / messages)
        assert per_message == sorted(per_message, reverse=True)
        assert per_message[0] > per_message[-1]


# ----------------------------------------------------------------------
# Fleet generation (repro.gossip.fleet)


def _accounting(spec, kind):
    """One datagram of ``kind``'s (wire, header, messages) under ``spec``."""
    if kind == "data":
        sizes = [spec.data_payload_bytes] * spec.collection_size
    else:
        sizes = [CONTROL_PAYLOAD_BYTES[kind]]
    return datagram_accounting(spec.framing, kind, sizes)


class TestFleet:
    def spec(self, **overrides):
        defaults = dict(num_peers=500, rate=6000.0, seed=3)
        defaults.update(overrides)
        return GossipFleetSpec(**defaults)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            self.spec(num_peers=0)
        with pytest.raises(ConfigurationError):
            self.spec(num_communities=0)
        with pytest.raises(ConfigurationError):
            self.spec(framing="telepathy")
        with pytest.raises(ConfigurationError):
            self.spec(collection_size=0)
        with pytest.raises(ConfigurationError):
            self.spec(data_fraction=1.5)
        with pytest.raises(ConfigurationError):
            self.spec(data_payload_bytes=0)
        for rate in (0.0, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                self.spec(rate=rate)
        with pytest.raises(ConfigurationError):
            self.spec(peer_skew=-1.0)

    def test_arrival_validation(self, monkeypatch):
        """Each datagram shape's wire accounting is checked once, before
        any datagram of that shape is emitted."""
        import repro.gossip.fleet as fleet

        for shape, match in (
            ((100, 20, 0), ">= 1 message and 0..100 header bytes, got 0 and 20"),
            ((100, 101, 1), "got 1 and 101"),
            ((100, -1, 1), "got 1 and -1"),
        ):
            monkeypatch.setattr(fleet, "datagram_accounting", lambda *args: shape)
            with pytest.raises(ConfigurationError, match=match):
                GossipFleetSource(self.spec()).arrival_columns(0.01)

    def test_rematerialization_is_byte_identical(self):
        source = GossipFleetSource(self.spec())
        assert source.arrival_columns(0.03) == source.arrival_columns(0.03)

    def test_seeds_differ_and_specs_agree(self):
        first = GossipFleetSource(self.spec(seed=0)).arrival_columns(0.03)
        second = GossipFleetSource(self.spec(seed=0)).arrival_columns(0.03)
        other = GossipFleetSource(self.spec(seed=9)).arrival_columns(0.03)
        assert first == second
        assert first != other

    def test_arrival_sizes_match_wire_accounting(self):
        spec = self.spec(collection_size=4)
        columns = GossipFleetSource(spec).arrival_columns(0.02)
        assert columns["kind"]
        for kind, size, header, messages in zip(
            columns["kind"], columns["size"], columns["header_bytes"],
            columns["messages"],
        ):
            assert (size, header, messages) == _accounting(spec, kind)

    def test_communities_stable_and_in_range(self):
        spec = self.spec(num_communities=3)
        columns = GossipFleetSource(spec).arrival_columns(0.02)
        assert columns["community"]
        for community, peer in zip(columns["community"], columns["flow"]):
            assert 0 <= community < 3
            assert community == spec.community_of(peer)

    def test_data_fraction_extremes(self):
        all_data = GossipFleetSource(
            self.spec(data_fraction=1.0)
        ).arrival_columns(0.02)["kind"]
        assert all_data and all(kind == "data" for kind in all_data)
        all_control = GossipFleetSource(
            self.spec(data_fraction=0.0)
        ).arrival_columns(0.02)["kind"]
        assert all_control
        assert all(kind in CONTROL_KINDS for kind in all_control)

    @pytest.mark.parametrize("peer_skew", [0.0, 0.6, 1.1, 2.5])
    @pytest.mark.parametrize("num_peers", [1, 7, 10_000])
    def test_peer_draws_equal_choice(self, num_peers, peer_skew):
        """Peers drawn from the cached CDF are the ones
        ``Generator.choice(p=...)`` draws over the popularity vector,
        value for value and in dtype, and the CDF is shared read-only."""
        spec = self.spec(num_peers=num_peers, peer_skew=peer_skew)
        for seed in range(4):
            for count in (0, 1, 17, 600):
                expected = np.random.default_rng(seed).choice(
                    num_peers, size=count, p=spec.peer_popularity()
                )
                drawn = spec.draw_peers(np.random.default_rng(seed), count)
                assert drawn.dtype == expected.dtype
                assert drawn.tolist() == expected.tolist(), (seed, count)
        cdf = fleet_module._peer_cdf(num_peers, peer_skew)
        assert cdf is fleet_module._peer_cdf(num_peers, peer_skew)
        assert not cdf.flags.writeable

    def test_rate_property_and_describe(self):
        source = GossipFleetSource(self.spec(rate=7777.0))
        assert source.rate == 7777.0
        description = source.describe()
        assert description["source"] == "GossipFleetSource"
        assert description["rate"] == 7777.0


# ----------------------------------------------------------------------
# The gossip runner (repro.gossip.runner)


class TestGossipRuns:
    def spec(self, **overrides):
        return GossipFleetSpec(**{"num_peers": 500, "rate": 6000.0, "seed": 3, **overrides})

    def run(self, scheduler="ldlp", **spec_overrides):
        return run_gossip_simulation(
            GossipFleetSource(self.spec(**spec_overrides)),
            SimulationConfig(scheduler=scheduler, duration=0.03),
            FlowCacheSpec(entries=16),
        )

    def test_conservation_and_lookup_accounting(self):
        result = self.run()
        run = result.run
        assert run.offered == run.completed + run.dropped
        assert run.offered == result.datagrams
        assert result.lookups <= result.demand
        assert result.hits + result.misses == result.lookups - result.untagged

    def test_control_traffic_walks_untagged(self):
        """Control datagrams carry no flow tag, so the run must report
        untagged walks — and an all-data fleet must report none."""
        mixed = self.run(data_fraction=0.5)
        assert mixed.untagged > 0
        pure = self.run(data_fraction=1.0)
        assert pure.untagged == 0

    def test_offered_totals_independent_of_scheduler(self):
        """Wire totals are over the offered stream, so both schedulers
        see identical bytes for the same spec."""
        a = self.run(scheduler="conventional")
        b = self.run(scheduler="ldlp")
        assert (a.messages, a.header_bytes, a.wire_bytes) == (
            b.messages,
            b.header_bytes,
            b.wire_bytes,
        )

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"framing": "sessionless", "collection_size": 1},
            {"data_fraction": 0.0},
            {"data_fraction": 1.0, "collection_size": 8},
        ],
        ids=["default", "sessionless-k1", "all-control", "all-data"],
    )
    def test_wire_totals_equal_record_sums(self, overrides):
        """The run's wire totals, summed over the fleet's columns, equal
        the sums over its datagrams, each accounted from its kind."""
        result = self.run(**overrides)
        spec = self.spec(**overrides)
        kinds = GossipFleetSource(spec).arrival_columns(0.03)["kind"]
        assert kinds
        wire, header, messages = (
            sum(column) for column in zip(*(_accounting(spec, kind) for kind in kinds))
        )
        assert (
            result.datagrams, result.messages, result.header_bytes, result.wire_bytes
        ) == (len(kinds), messages, header, wire)

    def test_result_dict_round_trip(self):
        result = self.run()
        from repro.gossip.runner import GossipRunResult

        restored = GossipRunResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert restored == result

    def test_point_repeats_byte_identically(self):
        params = dict(
            framing="session",
            collection_size=4,
            scheduler="ldlp",
            policy="tail",
            rate=9000.0,
            seeds=[0, 1],
            duration=0.02,
            num_peers=500,
        )
        first = gossip_point(**params)
        second = gossip_point(**params)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )
        assert first["conservation_violations"] == 0

    def test_point_identical_across_engines(self):
        params = dict(
            framing="sessionless",
            collection_size=4,
            scheduler="ldlp",
            policy="tail",
            rate=9000.0,
            seeds=[0],
            duration=0.02,
            num_peers=500,
        )
        vec = gossip_point(**params, engine="vec")
        scalar = gossip_point(**params, engine="scalar")
        assert json.dumps(vec, sort_keys=True) == json.dumps(
            scalar, sort_keys=True
        )

    def test_session_saves_header_bytes_end_to_end(self):
        session = self.run(framing="session")
        sessionless = self.run(framing="sessionless")
        assert (
            session.header_bytes_per_message
            < sessionless.header_bytes_per_message
        )
        assert session.wire_bytes_per_message < (
            sessionless.wire_bytes_per_message
        )


# ----------------------------------------------------------------------
# Experiment declaration and the HARN004 coverage rule


class TestExperimentSweep:
    def shrunk_results(self):
        points = experiment.sweep_points("ci")
        results = {
            point.key: gossip_point(
                **{
                    **point.params,
                    "seeds": [0],
                    "duration": 0.02,
                    "num_peers": 500,
                }
            )
            for point in points
        }
        return points, results

    def test_scales_cover_every_framing_mode(self):
        for scale in experiment.SWEEP_SCALES:
            exercised = {
                point.params["framing"]
                for point in experiment.sweep_points(scale)
            }
            assert exercised == set(FRAMING_MODES)

    def test_golden_quantities_pin_the_wire_story(self):
        """On a shorter, smaller fleet than any scale's, the session and
        collection claims still hold, and the quantities report the
        three per-point curves."""
        points, results = self.shrunk_results()
        assert check_claims(experiment.SWEEP, points, results) == []
        quantities = experiment.golden_quantities(points, results)
        assert len(quantities) == 3 * len(points)

    def test_assemble_and_render(self):
        points, results = self.shrunk_results()
        table = experiment.render(points, results)
        assert "framing" in table and "hdrB/msg" in table

    def test_harn004_clean_on_shipped_registry(self):
        assert check_sweep_coverage() == []

    def test_harn004_flags_unexercised_mode(self, monkeypatch):
        import repro.gossip.wire as wire_module

        monkeypatch.setitem(
            wire_module.FRAMING_MODES,
            "phantom",
            wire_module.FramingSpec("phantom", 9),
        )
        findings = check_sweep_coverage()
        assert len(findings) == 1
        assert findings[0].rule_id == "HARN004"
        assert findings[0].details["framing"] == "phantom"
