"""End-to-end tests of the experiment harnesses: rendering, the CLI,
and checks beyond the paper claims each ``SweepSpec`` declares.

The claims themselves are evaluated on every experiment's ``ci`` run in
``tests/test_vec_equivalence.py``; ``ldlp-experiment <name>`` prints
the full ``default``-scale tables.
"""

import pytest

from repro.experiments import (
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    motivation,
    table1,
    table3,
)
from repro.experiments.cli import build_parser, main as cli_main
from repro.experiments.report import pct, render_table
from repro.harness import SweepPoint, run_assembled


def assembled(module, func, grid):
    """``module.assemble`` over hand-picked points: ``{key: params}``."""
    points = [
        SweepPoint(module.SWEEP.name, key, func, params)
        for key, params in grid.items()
    ]
    return module.assemble(points, {point.key: point.execute() for point in points})


class TestReport:
    def test_render_table(self):
        text = render_table(["a", "bb"], [["x", 1], ["yyy", 22]], title="T")
        assert "T" in text
        assert "yyy" in text

    def test_pct(self):
        assert pct(17.2) == "+17%"
        assert pct(-41.0) == "-41%"


class TestTable1:
    def test_render_contains_layers(self):
        text = table1.run(seed=0).render()
        assert "Socket low" in text
        assert "30304" in text


class TestTable3:
    def test_direction_of_every_cell(self):
        """Signs must match the paper everywhere: smaller lines shrink
        bytes and grow lines; larger lines do the opposite."""
        result = table3.run(seed=0)
        for line_size in (8, 16):
            row = result.measured_row(line_size)
            assert row["code_bytes"] < 0 and row["code_lines"] > 0
            assert row["ro_bytes"] < 0 and row["ro_lines"] > 0
            assert row["mut_bytes"] < 0 and row["mut_lines"] > 0
        row = result.measured_row(64)
        assert row["code_bytes"] > 0 and row["code_lines"] < 0

    def test_na_cells(self):
        row = table3.run(seed=0).measured_row(4)
        assert row["ro_bytes"] is None
        assert row["code_bytes"] is not None


class TestFigure1:
    def test_code_map_lists_big_functions(self):
        text = figure1.run(seed=0).code_map()
        assert "tcp_input" in text
        assert "soreceive" in text

    def test_phase_table_renders(self):
        assert "pkt intr" in figure1.run(seed=0).phase_table()


@pytest.fixture(scope="module")
def figure5_result():
    return run_assembled(figure5.SWEEP, "ci")


@pytest.fixture(scope="module")
def figure6_result():
    return run_assembled(figure6.SWEEP, "ci")


class TestFigure5:
    def test_ldlp_flattens_at_cap(self, figure5_result):
        top = figure5_result.ldlp[-1]
        assert top.mean_batch_size > 8

    def test_render(self, figure5_result):
        assert "LDLP I" in figure5_result.render()


class TestFigure6:
    def test_conventional_saturates_before_ldlp(self, figure6_result):
        conv = figure6_result.conventional
        ldlp = figure6_result.ldlp
        # At 7000/s conventional is in the tens of ms; LDLP below 5 ms.
        index = figure6_result.rates.index(7000)
        assert conv[index].latency.mean > 10e-3
        assert ldlp[index].latency.mean < 5e-3

    def test_drop_bound_keeps_latency_finite(self, figure6_result):
        # 500-packet buffer: latency beyond ~140 ms implies drops.
        top = figure6_result.conventional[-1]
        assert top.dropped > 0
        assert top.latency.maximum < 0.5


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        # The ci scale: 10/20/40/80 MHz, seed 0, 0.4 s at 1000 msgs/s.
        return run_assembled(figure7.SWEEP, "ci")

    def test_batching_grows_as_clock_falls(self, result):
        batches = [r.mean_batch_size for r in result.ldlp]
        assert batches[0] > batches[-1]

    def test_render(self, result):
        assert "MHz" in result.render()


class TestFigure8:
    @pytest.fixture(scope="class")
    def result(self):
        return run_assembled(figure8.SWEEP, "ci")

    def test_warm_elaborate_wins_large(self, result):
        assert result.bsd_warm[-1] < result.simple_warm[-1]

    def test_cold_simple_wins_small(self, result):
        index = result.sizes.index(300)
        assert result.simple_cold[index] < result.bsd_cold[index]


class TestAblations:
    def test_batch_cap_one_equals_conventional(self, ablation_sweep):
        sweep = ablation_sweep("batch_cap", (1, 8), rate=9000, duration=0.08)
        conv = sweep.conventional[0]
        capped = sweep.ldlp[0]
        # cap=1 LDLP degenerates to per-message processing: same misses
        # within a small queue-overhead margin.
        assert capped.misses.total == pytest.approx(conv.misses.total, rel=0.05)
        # cap=8 is far better.
        assert sweep.ldlp[1].misses.total < 0.5 * conv.misses.total

    def test_penalty_zero_removes_advantage(self, ablation_sweep):
        sweep = ablation_sweep("miss_penalty", (0, 30), rate=5000, duration=0.08)
        zero_conv, zero_ldlp = sweep.conventional[0], sweep.ldlp[0]
        assert zero_ldlp.cycles_per_message == pytest.approx(
            zero_conv.cycles_per_message, rel=0.05
        )
        high_conv, high_ldlp = sweep.conventional[1], sweep.ldlp[1]
        assert high_ldlp.cycles_per_message < 0.75 * high_conv.cycles_per_message

    def test_small_code_removes_advantage(self, ablation_sweep):
        sweep = ablation_sweep("code_size", (1024, 12288), rate=3500,
                               duration=0.08)
        small_conv, small_ldlp = sweep.conventional[0], sweep.ldlp[0]
        # Whole stack fits the cache: LDLP buys nothing (Figure 4).
        assert small_ldlp.cycles_per_message == pytest.approx(
            small_conv.cycles_per_message, rel=0.1
        )
        big_conv, big_ldlp = sweep.conventional[1], sweep.ldlp[1]
        assert big_ldlp.cycles_per_message < 0.8 * big_conv.cycles_per_message


class TestCli:
    def test_parser_choices(self):
        parser = build_parser()
        args = parser.parse_args(["table1"])
        assert args.experiment == "table1"

    def test_cli_table1(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out

    def test_cli_figure8(self, capsys):
        assert cli_main(["figure8"]) == 0
        assert "crossover" in capsys.readouterr().out

    def test_cli_motivation_prints_the_default_sweep(self, capsys):
        expected = run_assembled(motivation.SWEEP, "default").render()
        assert cli_main(["motivation"]) == 0
        assert capsys.readouterr().out == expected + "\n"


class TestMotivation:
    def test_render(self):
        text = assembled(
            motivation,
            "repro.experiments.motivation:compute_point",
            {
                scheduler: {
                    "scheduler": scheduler, "pair_rate": 10_000.0,
                    "duration": 0.1, "seed": 5,
                }
                for scheduler in ("conventional", "ldlp")
            },
        ).render()
        assert "per-hop processing" in text

    @staticmethod
    def saal_stats(monkeypatch, pair_rate):
        """Each scheduler's switch stats after one per-hop run."""
        build_switch = motivation.build_switch
        switches = []

        def recording_switch():
            switches.append(build_switch())
            return switches[-1]

        monkeypatch.setattr(motivation, "build_switch", recording_switch)
        for scheduler in ("conventional", "ldlp"):
            motivation.per_hop_latency(scheduler, pair_rate)
        return [switch.stats for switch in switches]

    def test_saal_frames_arrive_in_sequence(self, monkeypatch):
        """The stream is numbered after it is time-sorted: below
        saturation neither scheduler drops, and SAAL sees every frame
        in sequence."""
        conv, ldlp = self.saal_stats(monkeypatch, 3000.0)
        assert conv.frames_in == ldlp.frames_in > 0
        assert conv.out_of_sequence == ldlp.out_of_sequence == 0

    def test_saal_gaps_only_follow_drops(self, monkeypatch):
        """At 5000 pairs/s LDLP admits every frame and sees no gap; the
        saturated conventional switch drops frames, and only those
        drops open gaps."""
        conv, ldlp = self.saal_stats(monkeypatch, 5000.0)
        assert ldlp.out_of_sequence == 0
        assert 0 < conv.out_of_sequence <= ldlp.frames_in - conv.frames_in
