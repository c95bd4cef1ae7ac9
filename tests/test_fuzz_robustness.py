"""Failure injection: corrupted and adversarial input never crashes the
stack — it is counted and dropped.

A receive path's first job is to survive garbage; these tests throw
random bytes, bit-flipped valid frames, truncations, and mutated
signalling messages at the full stacks and assert the only observable
effects are drop counters.

The input decoders get the same treatment one level down: on arbitrary
bytes or text each may raise only its own typed error (gossip wire
decoders :class:`WireError`, DNS :class:`ProtocolError`, trace readers
:class:`TraceError`, golden files :class:`ConfigurationError`), and
every valid encoding round-trips.  A result-cache entry that cannot be
read back is a miss, never an error.
"""

import io
import json
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ConventionalScheduler, LDLPScheduler, Message
from repro.errors import ConfigurationError, ProtocolError, TraceError, WireError
from repro.faults import FaultPlan
from repro.gossip.wire import (
    FRAMING_MODES,
    MESSAGE_IDS,
    WireIdentity,
    decode_collection,
    decode_message,
    encode_collection,
    encode_message,
)
from repro.harness import ResultCache, SweepPoint, load_golden
from repro.protocols import TcpSender, build_tcp_receive_stack
from repro.protocols.dns import DnsMessage, Question, ResourceRecord
from repro.signalling import build_switch, saal_frame, setup
from repro.trace.buffer import TraceBuffer
from repro.trace.io import dump_trace, load_trace, parse_trace
from repro.trace.record import MemRef, RefKind
from repro.traffic.base import Arrival
from repro.traffic.bellcore import read_bellcore_trace, write_bellcore_trace

#: Function-scoped ``tmp_path`` is safe here: every example overwrites
#: the same file before reading it.
FILE_SETTINGS = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def total_drops(stats) -> int:
    return (
        stats.bad_frames
        + stats.non_ip
        + stats.bad_ip
        + stats.fragments
        + stats.bad_transport
        + stats.sobuf_full
    )


class TestTcpStackFuzz:
    @given(garbage=st.binary(min_size=0, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_crash(self, garbage):
        stack = build_tcp_receive_stack()
        scheduler = ConventionalScheduler(stack.layers)
        scheduler.run_to_completion([Message(payload=garbage)])
        assert stack.stats.delivered == 0
        assert total_drops(stack.stats) >= 1 or len(garbage) == 0

    @given(
        flips=st.lists(st.integers(0, 599), min_size=1, max_size=8),
        data=st.binary(min_size=1, max_size=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_bitflipped_valid_frame_is_dropped_or_delivered_intact(
        self, flips, data
    ):
        """Flipping bits in a valid frame either gets caught by some
        validation layer (drop counted) or — if the flips only hit
        padding or compensate — never corrupts *delivered* bytes
        silently beyond what checksums can catch.  We assert no crash
        and bookkeeping consistency."""
        stack = build_tcp_receive_stack()
        scheduler = ConventionalScheduler(stack.layers)
        sender = TcpSender(
            src="10.0.0.9", dst="10.0.0.1", src_port=7777, dst_port=4000
        )
        scheduler.run_to_completion([Message(payload=sender.syn())])
        scheduler.run_to_completion(
            [Message(payload=sender.complete_handshake(stack.transmitted[-1]))]
        )
        frame = bytearray(sender.data(data))
        for flip in flips:
            frame[flip % len(frame)] ^= 1 << (flip % 8)
        scheduler.run_to_completion([Message(payload=bytes(frame))])
        delivered = stack.stats.delivered
        dropped = total_drops(stack.stats)
        assert delivered + dropped >= 1 or delivered == 0
        # The receive buffer holds either nothing or a prefix-consistent
        # payload (never more bytes than were sent).
        assert len(stack.socket.receive_buffer.read()) <= len(data)

    @given(cut=st.integers(0, 100))
    @settings(max_examples=50, deadline=None)
    def test_truncated_frames(self, cut):
        stack = build_tcp_receive_stack()
        scheduler = ConventionalScheduler(stack.layers)
        sender = TcpSender(
            src="10.0.0.9", dst="10.0.0.1", src_port=7777, dst_port=4000
        )
        frame = sender.syn()[: max(0, len(sender.syn()) - cut)]
        scheduler.run_to_completion([Message(payload=frame)])
        assert stack.stats.delivered == 0


class TestSignallingFuzz:
    @given(garbage=st.binary(min_size=0, max_size=120))
    @settings(max_examples=100, deadline=None)
    def test_random_bytes_never_crash(self, garbage):
        switch = build_switch()
        scheduler = ConventionalScheduler(switch.layers)
        scheduler.run_to_completion([Message(payload=garbage)])
        assert switch.stats.setups == 0
        assert switch.stats.bad_frames >= 1 or not garbage

    @given(
        flips=st.lists(st.integers(0, 300), min_size=1, max_size=6),
        call_ref=st.integers(0, 1000),
    )
    @settings(max_examples=100, deadline=None)
    def test_bitflipped_setup(self, flips, call_ref):
        """The SAAL CRC catches any corruption of a framed message."""
        switch = build_switch()
        scheduler = ConventionalScheduler(switch.layers)
        frame = bytearray(saal_frame(setup(call_ref, "dest").serialize(), 0))
        for flip in flips:
            frame[flip % len(frame)] ^= 1 << (flip % 8)
        scheduler.run_to_completion([Message(payload=bytes(frame))])
        # Either the CRC caught it (overwhelmingly likely) or the flips
        # cancelled out and the setup processed normally; never both.
        assert switch.stats.bad_frames + switch.stats.setups == 1

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=20, deadline=None)
    def test_mixed_garbage_and_valid_under_ldlp(self, seed):
        """Batched processing isolates bad messages: valid neighbours in
        the same LDLP batch still complete."""
        rng = np.random.default_rng(seed)
        switch = build_switch()
        scheduler = LDLPScheduler(switch.layers)
        messages = []
        valid = 0
        for index in range(20):
            if rng.random() < 0.5:
                messages.append(
                    Message(payload=saal_frame(
                        setup(index, "dest").serialize(), valid))
                )
                valid += 1
            else:
                messages.append(
                    Message(payload=bytes(rng.integers(0, 256, size=40,
                                                       dtype=np.uint8)))
                )
        scheduler.run_to_completion(messages)
        assert switch.stats.setups == valid


# ----------------------------------------------------------------------
# Input decoders: only typed errors on garbage, exact round-trips


MODES = st.sampled_from(sorted(FRAMING_MODES))

IDENTITIES = st.builds(
    WireIdentity,
    session_id=st.integers(0, 0xFFFFFFFF),
    dispersy_version=st.integers(0, 0xFF),
    community_version=st.integers(0, 0xFF),
    community_id=st.binary(min_size=20, max_size=20),
)

GLOBAL_TIMES = st.integers(0, 0xFFFFFFFFFFFFFFFF)


def _wire_view(mode, identity):
    """The identity fields one framing mode actually carries."""
    if mode == "session":
        return WireIdentity(session_id=identity.session_id)
    return replace(identity, session_id=0)


class TestGossipWireFuzz:
    @given(mode=MODES, data=st.binary(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_decode_message_raises_only_wire_error(self, mode, data):
        try:
            decode_message(mode, data)
        except WireError:
            pass

    @given(mode=MODES, data=st.binary(max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_decode_collection_raises_only_wire_error(self, mode, data):
        try:
            decode_collection(mode, data)
        except WireError:
            pass

    @given(
        mode=MODES,
        kind=st.sampled_from(sorted(MESSAGE_IDS)),
        identity=IDENTITIES,
        global_time=GLOBAL_TIMES,
        payload=st.binary(max_size=80),
    )
    @settings(max_examples=100, deadline=None)
    def test_message_round_trips(self, mode, kind, identity, global_time, payload):
        data = encode_message(mode, kind, identity, global_time, payload)
        assert decode_message(mode, data) == (
            kind, _wire_view(mode, identity), global_time, payload
        )

    @given(
        mode=MODES,
        identity=IDENTITIES,
        global_time=GLOBAL_TIMES,
        elements=st.lists(st.binary(max_size=60), min_size=1, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_collection_round_trips(self, mode, identity, global_time, elements):
        data = encode_collection(mode, identity, global_time, elements)
        assert decode_collection(mode, data) == elements


LABELS = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-", min_size=1, max_size=12
)
NAMES = st.lists(LABELS, min_size=1, max_size=4).map(".".join)
DNS_HEADERS = st.tuples(*[st.integers(0, 3)] * 4).map(
    lambda counts: struct.pack("!6H", 1, 0, *counts)
)


class TestDnsFuzz:
    @given(data=st.binary(max_size=120))
    @settings(max_examples=300, deadline=None)
    def test_parse_raises_only_protocol_error(self, data):
        try:
            DnsMessage.parse(data)
        except ProtocolError:
            pass

    @given(header=DNS_HEADERS, body=st.binary(max_size=100))
    @settings(max_examples=300, deadline=None)
    def test_parse_past_a_plausible_header(self, header, body):
        """Small section counts reach the name and record decoders."""
        try:
            DnsMessage.parse(header + body)
        except ProtocolError:
            pass

    def test_non_ascii_label_is_a_protocol_error(self):
        data = struct.pack("!6H", 1, 0, 1, 0, 0, 0) + b"\x01\x80\x00\x00\x01\x00\x01"
        with pytest.raises(ProtocolError, match="non-ASCII"):
            DnsMessage.parse(data)

    @given(
        ident=st.integers(0, 0xFFFF),
        flags=st.integers(0, 0xFFFF),
        questions=st.lists(NAMES, max_size=3),
        answers=st.lists(
            st.tuples(NAMES, st.integers(0, 0xFFFFFFFF), st.binary(max_size=16)),
            max_size=3,
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trips(self, ident, flags, questions, answers):
        message = DnsMessage(
            ident=ident,
            flags=flags,
            questions=tuple(Question(name) for name in questions),
            answers=tuple(
                ResourceRecord(name, 16, ttl, rdata) for name, ttl, rdata in answers
            ),
        )
        assert DnsMessage.parse(message.serialize()) == message


REFS = st.builds(
    MemRef,
    kind=st.sampled_from(list(RefKind)),
    addr=st.integers(0, 2**48),
    size=st.integers(1, 4096),
    fn=st.none() | st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True),
)


class TestTraceFuzz:
    @given(lines=st.lists(st.text(max_size=40), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_parse_trace_raises_only_trace_error(self, lines):
        try:
            parse_trace(lines)
        except TraceError:
            pass

    @given(data=st.binary(max_size=200))
    @FILE_SETTINGS
    def test_load_trace_raises_only_trace_error(self, tmp_path, data):
        path = tmp_path / "trace.txt"
        path.write_bytes(data)
        try:
            load_trace(path)
        except TraceError:
            pass

    def test_non_ascii_trace_file_is_a_trace_error(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"R 0x10 4 f\xc3\xa9\n")
        with pytest.raises(TraceError, match="trace.txt"):
            load_trace(path)

    @given(refs=st.lists(REFS, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_round_trips(self, refs):
        trace = TraceBuffer()
        trace.refs.extend(refs)
        stream = io.StringIO()
        dump_trace(trace, stream)
        stream.seek(0)
        assert parse_trace(stream).refs == refs


class TestBellcoreFuzz:
    @given(data=st.binary(max_size=200), clamp=st.booleans())
    @FILE_SETTINGS
    def test_read_raises_only_trace_error(self, tmp_path, data, clamp):
        path = tmp_path / "trace.txt"
        path.write_bytes(data)
        try:
            read_bellcore_trace(path, clamp=clamp)
        except TraceError:
            pass

    @given(
        lines=st.lists(
            st.tuples(
                st.floats(allow_nan=True, allow_infinity=True) | st.integers(),
                st.integers(-10, 2000),
            ),
            max_size=8,
        ),
        clamp=st.booleans(),
    )
    @FILE_SETTINGS
    def test_loaded_times_are_finite_and_monotone(self, tmp_path, lines, clamp):
        path = tmp_path / "trace.txt"
        path.write_text("".join(f"{time} {size}\n" for time, size in lines))
        try:
            arrivals = read_bellcore_trace(path, clamp=clamp)
        except TraceError:
            return
        times = [arrival.time for arrival in arrivals]
        assert all(np.isfinite(times))
        assert times == sorted(times)

    @pytest.mark.parametrize("clamp", [False, True])
    def test_nan_timestamp_is_a_trace_error(self, tmp_path, clamp):
        path = tmp_path / "trace.txt"
        path.write_text("0.5 100\nnan 200\n0.1 300\n")
        with pytest.raises(TraceError, match="trace.txt:2: non-finite"):
            read_bellcore_trace(path, clamp=clamp)

    def test_non_ascii_trace_file_is_a_trace_error(self, tmp_path):
        path = tmp_path / "trace.txt"
        path.write_bytes(b"0.5 100\n0.6 2\xff0\n")
        with pytest.raises(TraceError, match="trace.txt:2: non-ASCII"):
            read_bellcore_trace(path)

    @given(
        micros=st.lists(st.integers(0, 10**9), max_size=20),
        sizes=st.lists(st.integers(1, 1518), min_size=20, max_size=20),
    )
    @FILE_SETTINGS
    def test_round_trips(self, tmp_path, micros, sizes):
        arrivals = [
            Arrival(tick / 1e6, size) for tick, size in zip(sorted(micros), sizes)
        ]
        path = tmp_path / "trace.txt"
        write_bellcore_trace(arrivals, path)
        assert read_bellcore_trace(path) == arrivals


#: Any JSON document, so the readers' checks past the parser get
#: exercised too.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(
        st.sampled_from([
            "quantities", "value", "rel", "abs", "digests", "numpy",
            "key", "result", "q",
        ]),
        children,
        max_size=4,
    ),
    max_leaves=12,
)

#: The malformed goldens that once escaped as untyped errors, then
#: malformed digest maps: missing, a list, non-string digests or numpy,
#: then quantities that are not plain numbers: a string, and the
#: retired ``{"value", "rel", "abs"}`` entry in an otherwise valid file.
BAD_GOLDENS = [
    b"{not json",
    b"[]",
    b'{"quantities": {"q": {"value": "x", "rel": 0, "abs": 0}}}',
    b'{"experiment": "e"}',
    b'{"quantities": []}',
    b'{"quantities": {"q": {"value": 1, "rel": 0, "abs": 0}}}\xff',
    b'{"quantities": {}, "numpy": "2.0"}',
    b'{"quantities": {}, "digests": ["p"], "numpy": "2.0"}',
    b'{"quantities": {}, "digests": {"p": 1}, "numpy": "2.0"}',
    b'{"quantities": {}, "digests": {"p": null}, "numpy": "2.0"}',
    b'{"quantities": {}, "digests": {}, "numpy": 2}',
    b'{"quantities": {"q": "1.5"}, "digests": {}, "numpy": "2.0"}',
    b'{"quantities": {"q": {"value": 1, "rel": 0, "abs": 0}}, "digests": {}, "numpy": "2.0"}',
]


class TestGoldenFuzz:
    @pytest.mark.parametrize("data", BAD_GOLDENS)
    def test_malformed_golden_names_its_path(self, tmp_path, data):
        (tmp_path / "e.ci.json").write_bytes(data)
        with pytest.raises(ConfigurationError, match="e.ci.json"):
            load_golden("e", "ci", root=tmp_path)

    @given(data=st.binary(max_size=200))
    @FILE_SETTINGS
    def test_load_golden_raises_only_configuration_error(self, tmp_path, data):
        (tmp_path / "e.ci.json").write_bytes(data)
        try:
            load_golden("e", "ci", root=tmp_path)
        except ConfigurationError:
            pass

    @given(
        quantities=JSON_VALUES,
        digests=st.dictionaries(st.text(max_size=4), st.text(max_size=8), max_size=3)
        | JSON_VALUES,
        numpy_version=st.text(max_size=8) | JSON_VALUES,
    )
    @FILE_SETTINGS
    def test_any_json_document_raises_only_configuration_error(
        self, tmp_path, quantities, digests, numpy_version
    ):
        document = {
            "quantities": quantities, "digests": digests, "numpy": numpy_version,
        }
        (tmp_path / "e.ci.json").write_text(json.dumps(document))
        try:
            golden = load_golden("e", "ci", root=tmp_path)
        except ConfigurationError:
            return
        assert all(type(value) is float for value in golden.quantities.values())
        assert all(isinstance(value, str) for value in golden.digests.values())
        assert isinstance(golden.numpy, str)


#: Fault-plan parameters of the wrong type.
BAD_FAULT_PLANS = [
    {"mbuf_windows": 5},
    {"mbuf_windows": {"x": 1}},
    {"stages": 5},
    {"stages": [5]},
    {"clock_derate": "a"},
    {"flush_period_cycles": "x"},
    {"stages": [{"kind": "loss", "rate": "x"}]},
]

FAULT_PLAN_FIELDS = st.dictionaries(
    st.sampled_from(["stages", "clock_derate", "flush_period_cycles", "mbuf_windows"]),
    JSON_VALUES
    | st.lists(
        st.dictionaries(
            st.sampled_from(["kind", "rate", "period", "width", "start"]),
            st.sampled_from(["loss", "delay", "truncate"]) | JSON_VALUES,
            max_size=3,
        ),
        max_size=2,
    )
    | st.dictionaries(
        st.sampled_from(["period", "width", "start", "x"]), JSON_VALUES, max_size=3
    ),
    max_size=4,
)


class TestFaultPlanFuzz:
    @pytest.mark.parametrize("params", BAD_FAULT_PLANS, ids=repr)
    def test_wrong_type_is_a_configuration_error(self, params):
        with pytest.raises(ConfigurationError):
            FaultPlan.from_params(params)

    @given(params=FAULT_PLAN_FIELDS)
    @settings(max_examples=200, deadline=None)
    def test_from_params_raises_only_configuration_error(self, params):
        try:
            plan = FaultPlan.from_params(params)
        except ConfigurationError:
            return
        # Compared as JSON text, so a NaN field round-trips too.
        params = json.dumps(plan.to_params())
        assert json.dumps(FaultPlan.from_params(plan.to_params()).to_params()) == params


CACHE_KEY = "ab" * 32
CACHE_POINT = SweepPoint("e", "p", "repro.sim.runner:poisson_point", {})


class TestResultCacheFuzz:
    @pytest.mark.parametrize(
        "data",
        [b"\xff\xfe{", b"[]", b'"str"', json.dumps({"key": CACHE_KEY}).encode()],
    )
    def test_unusable_entry_is_a_miss(self, tmp_path, data):
        cache = ResultCache(tmp_path)
        cache._path(CACHE_KEY).write_bytes(data)
        assert cache.lookup(CACHE_KEY) is None
        cache.store(CACHE_KEY, CACHE_POINT, {"answer": 42})
        assert cache.lookup(CACHE_KEY).result == {"answer": 42}

    @given(data=st.binary(max_size=200))
    @FILE_SETTINGS
    def test_arbitrary_bytes_are_a_miss(self, tmp_path, data):
        cache = ResultCache(tmp_path)
        cache._path(CACHE_KEY).write_bytes(data)
        assert cache.lookup(CACHE_KEY) is None

    @given(document=JSON_VALUES, keyed=st.booleans())
    @FILE_SETTINGS
    def test_any_json_document_is_a_miss_or_an_entry(self, tmp_path, document, keyed):
        cache = ResultCache(tmp_path)
        if keyed and isinstance(document, dict):
            document = {**document, "key": CACHE_KEY}
        cache._path(CACHE_KEY).write_text(json.dumps(document))
        entry = cache.lookup(CACHE_KEY)
        if entry is not None:
            # Compared as JSON text: a stored NaN must come back as NaN,
            # which ``==`` cannot confirm.
            assert json.dumps(entry.result) == json.dumps(document["result"])
