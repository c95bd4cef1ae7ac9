"""Tests for repro.obs: no-op equivalence, schema, live Table 1, sinks."""

from __future__ import annotations

import json

import pytest

from repro.errors import ObsError
from repro.netbsd.layers import ALL_LAYERS, PAPER_TABLE1
from repro.obs import (
    ChromeTraceSink,
    MetricsSink,
    Recorder,
    TableSink,
    active_recorder,
    recording,
    replay_receive_path,
    trace_receive_path,
    trace_schedulers,
    validate_chrome_trace,
    validate_metrics,
)
from repro.obs.cli import main as obs_cli_main
from repro.sim.runner import SimulationConfig, run_simulation
from repro.traffic.poisson import PoissonSource


def _run_figure6_point(scheduler: str = "ldlp") -> dict:
    source = PoissonSource(9000.0, size=552, rng=0)
    config = SimulationConfig(scheduler=scheduler, duration=0.01)
    return run_simulation(source, config, seed=0).to_dict()


class TestRecorderCore:
    def test_disabled_by_default(self):
        assert active_recorder() is None

    def test_recording_installs_and_restores(self):
        recorder = Recorder()
        with recording(recorder):
            assert active_recorder() is recorder
        assert active_recorder() is None

    def test_recording_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with recording(Recorder()):
                raise RuntimeError("boom")
        assert active_recorder() is None

    def test_span_counters_and_track_totals(self):
        recorder = Recorder()
        probe_state = {"cycles": 0.0}
        handle = recorder.begin("t", "work", 10.0, lambda: dict(probe_state))
        probe_state["cycles"] = 42.0
        span = recorder.end(handle, 25.0)
        assert span is not None
        assert span.duration == 15.0
        assert span.counters["cycles"] == 42.0
        totals = recorder.track_totals["t"].as_dict()
        assert totals["spans"] == 1.0
        assert totals["clock_units"] == 15.0
        assert totals["cycles"] == 42.0

    def test_metrics_only_mode_discards_spans(self):
        recorder = Recorder(keep_spans=False)
        handle = recorder.begin("t", "work", 0.0)
        assert recorder.end(handle, 5.0) is None
        recorder.instant("t", "drop", 1.0)
        assert recorder.spans == []
        assert recorder.instants == []
        assert recorder.track_totals["t"].get("spans") == 1.0


class TestNoOpEquivalence:
    """Tracing must never change what the model computes."""

    @pytest.mark.parametrize("scheduler", ["conventional", "ldlp"])
    def test_simulation_results_identical_with_recorder(self, scheduler):
        plain = _run_figure6_point(scheduler)
        with recording(Recorder()):
            traced = _run_figure6_point(scheduler)
        with recording(Recorder(keep_spans=False)):
            metrics_only = _run_figure6_point(scheduler)
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            metrics_only, sort_keys=True
        )

    def test_receive_trace_identical_with_recorder(self):
        from repro.netbsd.receive_path import ReceivePathModel

        plain = ReceivePathModel(seed=0).build_trace()
        with recording(Recorder()):
            traced = ReceivePathModel(seed=0).build_trace()
        assert len(plain.refs) == len(traced.refs)
        assert all(
            a.addr == b.addr and a.kind == b.kind
            for a, b in zip(plain.refs, traced.refs)
        )


class TestChromeTraceSchema:
    @pytest.fixture(scope="class")
    def sim_payload(self):
        runs = trace_schedulers(
            schedulers=("conventional", "ldlp"), rate=9000.0, duration=0.005
        )
        sink = ChromeTraceSink(clock_unit="cycles")
        for run in runs:
            sink.add_recorder(run.recorder, run.name)
        return sink.to_payload()

    def test_sim_trace_validates(self, sim_payload):
        summary = validate_chrome_trace(sim_payload)
        assert summary["spans"] > 0
        assert summary["processes"] == 2  # conventional + ldlp

    def test_one_track_per_layer(self, sim_payload):
        names = {
            (event["pid"], event["args"]["name"])
            for event in sim_payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        for pid in (1, 2):
            tracks = {name for p, name in names if p == pid}
            assert {f"layer{i}" for i in range(5)} <= tracks
            assert "scheduler" in tracks

    def test_receive_trace_validates(self):
        from repro.obs import chrome_trace_for_receive

        sink, _ = chrome_trace_for_receive(seed=0)
        summary = validate_chrome_trace(sink.to_payload())
        assert summary["spans"] > 0

    def test_validator_rejects_malformed(self):
        with pytest.raises(ObsError):
            validate_chrome_trace({"traceEvents": []})
        with pytest.raises(ObsError):
            validate_chrome_trace(
                {
                    "traceEvents": [
                        {
                            "name": "x",
                            "cat": "t",
                            "ph": "X",
                            "ts": 0,
                            "dur": 1,
                            "pid": 1,
                            "tid": 1,
                            "args": {},
                        }
                    ]
                }
            )  # span on an unnamed track

    def test_chrome_sink_rejects_metrics_only_recorder(self):
        sink = ChromeTraceSink()
        with pytest.raises(ObsError):
            sink.add_recorder(Recorder(keep_spans=False), "nope")


class TestLiveMissAttribution:
    @pytest.fixture(scope="class")
    def attribution(self):
        return replay_receive_path(seed=0)

    def test_live_working_set_matches_table1(self, attribution):
        """Golden pin: first-touch attribution equals the static catalogue."""
        live = attribution.live_working_set(line_size=32)
        for layer in ALL_LAYERS:
            want = PAPER_TABLE1[layer]
            got = live[layer]
            assert got["code"] == want.code, layer
            assert got["readonly"] == want.readonly, layer
            assert got["mutable"] == want.mutable, layer

    def test_function_table_covers_trace(self, attribution):
        table = attribution.function_table()
        assert table, "no functions attributed"
        top = table[0]
        assert top.misses > 0
        assert top.stall_cycles == pytest.approx(top.misses * 20, rel=0.5)
        assert sum(fn.refs for fn in table) > 0

    def test_replay_emits_spans(self):
        recorder, attribution = trace_receive_path(seed=0)
        tracks = recorder.tracks()
        assert "phase" in tracks
        assert any(track != "phase" for track in tracks)
        assert attribution.cycles > 0


class TestMetricsAndTableSinks:
    def test_metrics_payload_validates(self):
        runs = trace_schedulers(schedulers=("ldlp",), rate=9000.0, duration=0.005)
        payload = MetricsSink(runs[0].recorder).to_payload()
        validate_metrics(payload)
        assert payload["counters"]["messages.arrivals"] > 0
        assert payload["counters"]["ldlp.batches"] > 0
        assert payload["counters"]["scheduler.service_steps"] > 0
        assert "scheduler" in payload["tracks"]

    def test_mbuf_pool_counters(self):
        from repro.buffers.pool import MbufPool

        recorder = Recorder(keep_spans=False)
        with recording(recorder):
            pool = MbufPool()
            first = pool.alloc()
            pool.free(first)
            pool.free(pool.alloc())  # recycles the freed mbuf
        counters = recorder.counters.as_dict()
        assert counters["mbuf.alloc"] == 2.0
        assert counters["mbuf.free"] == 2.0
        assert counters["mbuf.recycled"] == 1.0

    def test_validate_metrics_rejects_bad_shapes(self):
        with pytest.raises(ObsError):
            validate_metrics({"counters": {}})
        with pytest.raises(ObsError):
            validate_metrics({"counters": {"x": "y"}, "tracks": {}})

    def test_table_sink_renders(self):
        recorder = Recorder()
        handle = recorder.begin("layer0", "invoke", 0.0)
        recorder.end(handle, 100.0)
        text = TableSink(recorder).render()
        assert "layer0" in text
        assert "spans" in text


class TestCli:
    def test_trace_figure6_chrome(self, tmp_path):
        out = tmp_path / "fig6.json"
        code = obs_cli_main(
            ["figure6", "--sink", "chrome", "--out", str(out),
             "--duration", "0.004"]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        summary = validate_chrome_trace(payload)
        assert summary["processes"] == 2

    def test_trace_receive_table(self, capsys):
        assert obs_cli_main(["receive", "--sink", "table"]) == 0
        captured = capsys.readouterr().out
        assert "Ethernet" in captured
        assert "4480" in captured  # Table 1's Ethernet code bytes

    def test_trace_sim_metrics(self, capsys):
        assert obs_cli_main(
            ["figure5", "--sink", "metrics", "--duration", "0.004"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"conventional", "ldlp"}
        for per_scheduler in payload.values():
            validate_metrics(per_scheduler)

    def test_experiments_cli_dispatches_trace(self, tmp_path, capsys):
        from repro.experiments.cli import main as experiments_main

        out = tmp_path / "via_dispatch.json"
        code = experiments_main(
            ["trace", "figure6", "--sink", "chrome", "--out", str(out),
             "--duration", "0.004"]
        )
        assert code == 0
        validate_chrome_trace(json.loads(out.read_text()))

