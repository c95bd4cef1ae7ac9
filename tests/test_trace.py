"""Tests for the repro.trace package."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.errors import TraceError
from repro.trace import (
    LayerClassifier,
    MemRef,
    RefKind,
    TraceBuffer,
    build_call_graph,
    code_ref,
    dump_trace,
    parse_trace,
    phase_stats,
    read_ref,
    write_ref,
)


class TestMemRef:
    def test_constructors(self):
        assert code_ref(0).kind is RefKind.CODE
        assert read_ref(0).kind is RefKind.READ
        assert write_ref(0).kind is RefKind.WRITE

    def test_end(self):
        assert read_ref(100, 8).end == 108

    def test_rejects_negative_addr(self):
        with pytest.raises(TraceError):
            MemRef(RefKind.READ, -1, 4)

    def test_rejects_zero_size(self):
        with pytest.raises(TraceError):
            MemRef(RefKind.READ, 0, 0)

    def test_kind_from_letter(self):
        assert RefKind.from_letter("C") is RefKind.CODE
        with pytest.raises(TraceError):
            RefKind.from_letter("X")


class TestTraceBuffer:
    def test_append_attaches_current_fn(self):
        trace = TraceBuffer()
        trace.enter("tcp_input")
        trace.append(code_ref(0))
        assert trace.refs[0].fn == "tcp_input"

    def test_explicit_fn_preserved(self):
        trace = TraceBuffer()
        trace.enter("outer")
        trace.append(code_ref(0, fn="inner"))
        assert trace.refs[0].fn == "inner"

    def test_nested_calls(self):
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.append(code_ref(0))
        trace.leave()
        trace.append(code_ref(4))
        assert [r.fn for r in trace.refs] == ["b", "a"]

    def test_leave_without_enter_raises(self):
        with pytest.raises(TraceError):
            TraceBuffer().leave()

    def test_phase_slices_cover_everything(self):
        trace = TraceBuffer()
        trace.append(code_ref(0))
        trace.mark_phase("intr")
        trace.append(code_ref(4))
        trace.append(code_ref(8))
        slices = trace.phase_slices()
        assert [(label, sl.start, sl.stop) for label, sl in slices] == [
            ("prelude", 0, 1),
            ("intr", 1, 3),
        ]

    def test_empty_phase_rejected(self):
        trace = TraceBuffer()
        trace.mark_phase("entry")
        with pytest.raises(TraceError):
            trace.mark_phase("exit")

    def test_refs_in_phase(self):
        trace = TraceBuffer()
        trace.mark_phase("entry")
        trace.append(code_ref(0))
        trace.mark_phase("exit")
        trace.append(code_ref(4))
        assert [r.addr for r in trace.refs_in_phase("exit")] == [4]
        with pytest.raises(TraceError):
            trace.refs_in_phase("missing")

    def test_no_phases_single_prelude(self):
        trace = TraceBuffer()
        trace.append(code_ref(0))
        assert trace.phase_slices() == [("prelude", slice(0, 1))]

    def test_empty_trace_no_slices(self):
        assert TraceBuffer().phase_slices() == []


class TestPhaseStats:
    def test_figure1_style_totals(self):
        trace = TraceBuffer()
        trace.mark_phase("intr")
        trace.enter("tcp_input")
        trace.append(code_ref(0, 4))
        trace.append(code_ref(4, 4))  # same line as previous
        trace.append(read_ref(1000, 8))
        trace.append(write_ref(2000, 8))
        stats = phase_stats(trace)
        assert len(stats) == 1
        phase = stats[0]
        assert phase.code.bytes == 32
        assert phase.code.refs == 2
        assert phase.read.bytes == 32
        assert phase.read.refs == 1
        assert phase.write.bytes == 32
        assert phase.write.refs == 1

    def test_format_matches_paper_layout(self):
        trace = TraceBuffer()
        trace.mark_phase("pkt intr")
        trace.append(code_ref(0))
        text = phase_stats(trace)[0].format()
        assert "pkt intr:" in text
        assert "Code: 32 bytes 1 refs" in text


class TestTraceIO:
    def build_trace(self):
        trace = TraceBuffer()
        trace.mark_phase("entry")
        trace.enter("syscall")
        trace.append(code_ref(0x1000, 4))
        trace.append(read_ref(0x2000, 8))
        trace.enter("soreceive")
        trace.append(write_ref(0x3000, 4))
        trace.leave()
        trace.leave()
        return trace

    def test_roundtrip(self):
        trace = self.build_trace()
        stream = io.StringIO()
        dump_trace(trace, stream)
        parsed = parse_trace(stream.getvalue().splitlines())
        assert parsed.refs == trace.refs
        assert parsed.phase_marks == trace.phase_marks
        assert parsed.call_events == trace.call_events

    def test_save_and_load_file(self, tmp_path):
        from repro.trace import load_trace, save_trace

        trace = self.build_trace()
        path = tmp_path / "trace.txt"
        save_trace(trace, path)
        assert load_trace(path).refs == trace.refs

    def test_comments_and_blanks_ignored(self):
        parsed = parse_trace(["; comment", "", "C 0x10 4 fn"])
        assert len(parsed.refs) == 1
        assert parsed.refs[0].fn == "fn"

    def test_malformed_line_raises(self):
        with pytest.raises(TraceError):
            parse_trace(["C 0x10"])

    def test_bad_kind_raises(self):
        with pytest.raises(TraceError):
            parse_trace(["Z 0x10 4"])

    def test_bad_number_raises(self):
        with pytest.raises(TraceError):
            parse_trace(["C zzz 4"])


class TestCallGraph:
    def test_basic_graph(self):
        trace = TraceBuffer()
        trace.enter("syscall")
        trace.enter("soreceive")
        trace.leave()
        trace.enter("soreceive")
        trace.leave()
        trace.enter("tsleep")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.roots == ["syscall"]
        assert graph.call_count("syscall", "soreceive") == 2
        assert graph.call_count("syscall", "tsleep") == 1
        assert graph.call_count("tsleep", "syscall") == 0
        # A function that is only ever called has no callees.
        assert graph.callees("tsleep") == []
        assert graph.transitive_callees("tsleep") == set()

    def test_callees_sorted_by_count(self):
        trace = TraceBuffer()
        trace.enter("main")
        for _ in range(3):
            trace.enter("often")
            trace.leave()
        trace.enter("rare")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.callees("main") == ["often", "rare"]

        # Equal counts keep first-call order, not name order.
        trace = TraceBuffer()
        trace.enter("main")
        for fn in ["zeta", "alpha", "mid", "alpha", "zeta", "once"]:
            trace.enter(fn)
            trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.callees("main") == ["zeta", "alpha", "mid", "once"]

    def test_transitive_callees(self):
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.enter("c")
        trace.leave()
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.transitive_callees("a") == {"b", "c"}
        assert graph.transitive_callees("missing") == set()

        # A cycle back to the start does not include the start: a→b→a.
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.enter("a")
        trace.leave()
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.transitive_callees("a") == {"b"}
        assert graph.transitive_callees("b") == {"a"}

        # Nor does self-recursion: a→a.
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("a")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.transitive_callees("a") == set()

    def test_mismatched_return_raises(self):
        trace = TraceBuffer()
        trace.enter("a")
        # Corrupt the event stream directly.
        from repro.trace.buffer import CallEvent

        trace.call_events.append(CallEvent(0, "b", enter=False))
        with pytest.raises(TraceError):
            build_call_graph(trace)

    def test_format_tree(self):
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.format() == "a\n  b"
        assert graph.format("b") == "b"

        # A call back into a function on the current path is cut there.
        trace = TraceBuffer()
        trace.enter("a")
        trace.enter("b")
        trace.enter("a")
        trace.leave()
        trace.leave()
        trace.enter("c")
        trace.leave()
        trace.leave()
        graph = build_call_graph(trace)
        assert graph.format() == "a\n  b\n    a (recursive)\n  c"


# Runs in a fresh interpreter where `import networkx` raises ImportError.
_WITHOUT_NETWORKX = """
import importlib
import pkgutil
import sys

sys.modules["networkx"] = None

import repro
from repro.netbsd import ReceivePathModel
from repro.trace import build_call_graph

for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith(".__main__"):
        importlib.import_module(module.name)

graph = build_call_graph(ReceivePathModel(seed=0).build_trace())
assert "tcp_output" in graph.transitive_callees("cpu_switch")
"""


def test_every_module_imports_without_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NETWORKX],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


class TestLayerClassifier:
    def test_layers_in_order(self):
        classifier = LayerClassifier({"f1": "A", "f2": "B", "f3": "A"})
        assert classifier.layers() == ["A", "B"]

    def test_none_fn_unclassified(self):
        classifier = LayerClassifier({})
        assert classifier.layer_of_fn(None) == "unclassified"
