"""End-to-end tests of the experiment harnesses: rendering, the CLI,
and checks beyond the paper claims each ``SweepSpec`` declares.

The claims themselves are evaluated on every experiment's ``ci`` run in
``tests/test_vec_equivalence.py``; ``ldlp-experiment <name>`` prints
the full ``default``-scale tables.
"""

import pytest

from repro.experiments import (
    cli as experiments_cli,
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
from repro.harness import ResultCache, SweepPoint, run_assembled, run_experiment
from repro.harness.registry import EXPERIMENT_MODULES
from repro.netbsd import ReceivePathModel


def rendered(module, func, grid):
    """``module.SWEEP.render`` over hand-picked points: ``{key: params}``."""
    points = [
        SweepPoint(module.SWEEP.name, key, func, params)
        for key, params in grid.items()
    ]
    return module.SWEEP.render(points, {point.key: point.execute() for point in points})


def ci_run(module):
    """One uncached ``ci``-scale run of ``module``'s sweep."""
    return run_experiment(module.SWEEP, "ci", cache=ResultCache(enabled=False))


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
        text = run_assembled(table1.SWEEP, "ci")
        assert "Socket low" in text
        assert "30304" in text


class TestTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        return table3.compute_point(seed=0)["rows"]

    def test_direction_of_every_cell(self, rows):
        """Signs must match the paper everywhere: smaller lines shrink
        bytes and grow lines; larger lines do the opposite."""
        for line_size in ("8", "16"):
            row = rows[line_size]
            assert row["code_bytes"] < 0 and row["code_lines"] > 0
            assert row["ro_bytes"] < 0 and row["ro_lines"] > 0
            assert row["mut_bytes"] < 0 and row["mut_lines"] > 0
        row = rows["64"]
        assert row["code_bytes"] > 0 and row["code_lines"] < 0

    def test_na_cells(self, rows):
        row = rows["4"]
        assert "ro_bytes" not in row
        assert "code_bytes" in row


class TestFigure1:
    def test_code_map_lists_big_functions(self):
        text = figure1.code_map(ReceivePathModel(seed=0).build_trace())
        assert "tcp_input" in text
        assert "soreceive" in text

    def test_phase_table_renders(self):
        assert "pkt intr" in run_assembled(figure1.SWEEP, "ci")


@pytest.fixture(scope="module")
def figure5_run():
    return ci_run(figure5)


@pytest.fixture(scope="module")
def figure6_pairs():
    run = ci_run(figure6)
    return figure6.pairs(run.points, run.results)


class TestFigure5:
    def test_ldlp_flattens_at_cap(self, figure5_run):
        _, _, top = figure5.pairs(figure5_run.points, figure5_run.results)[-1]
        assert top.mean_batch_size > 8

    def test_render(self, figure5_run):
        assert "LDLP I" in figure5.render(figure5_run.points, figure5_run.results)


class TestFigure6:
    def test_conventional_saturates_before_ldlp(self, figure6_pairs):
        # At 7000/s conventional is in the tens of ms; LDLP below 5 ms.
        conv, ldlp = {rate: (c, b) for rate, c, b in figure6_pairs}[7000]
        assert conv.latency.mean > 10e-3
        assert ldlp.latency.mean < 5e-3

    def test_drop_bound_keeps_latency_finite(self, figure6_pairs):
        # 500-packet buffer: latency beyond ~140 ms implies drops.
        _, top, _ = figure6_pairs[-1]
        assert top.dropped > 0
        assert top.latency.maximum < 0.5


class TestFigure7:
    @pytest.fixture(scope="class")
    def run(self):
        # The ci scale: 10/20/40/80 MHz, seed 0, 0.4 s at 1000 msgs/s.
        return ci_run(figure7)

    def test_batching_grows_as_clock_falls(self, run):
        batches = [ldlp.mean_batch_size for _, _, ldlp in figure7.pairs(run.points, run.results)]
        assert batches[0] > batches[-1]

    def test_render(self, run):
        assert "MHz" in figure7.render(run.points, run.results)


class TestFigure8:
    @pytest.fixture(scope="class")
    def run(self):
        return ci_run(figure8)

    def test_warm_elaborate_wins_large(self, run):
        assert run.results["bsd/warm"]["cycles"][-1] < run.results["simple/warm"]["cycles"][-1]

    def test_cold_simple_wins_small(self, run):
        index = run.points[0].params["sizes"].index(300)
        assert run.results["simple/cold"]["cycles"][index] < (
            run.results["bsd/cold"]["cycles"][index]
        )


class TestAblations:
    def test_batch_cap_one_equals_conventional(self, ablation_sweep):
        conventional, ldlp = ablation_sweep("batch_cap", (1, 8), rate=9000, duration=0.08)
        conv = conventional[0]
        capped = ldlp[0]
        # cap=1 LDLP degenerates to per-message processing: same misses
        # within a small queue-overhead margin.
        assert capped.misses.total == pytest.approx(conv.misses.total, rel=0.05)
        # cap=8 is far better.
        assert ldlp[1].misses.total < 0.5 * conv.misses.total

    def test_penalty_zero_removes_advantage(self, ablation_sweep):
        conventional, ldlp = ablation_sweep("miss_penalty", (0, 30), rate=5000, duration=0.08)
        zero_conv, zero_ldlp = conventional[0], ldlp[0]
        assert zero_ldlp.cycles_per_message == pytest.approx(
            zero_conv.cycles_per_message, rel=0.05
        )
        high_conv, high_ldlp = conventional[1], ldlp[1]
        assert high_ldlp.cycles_per_message < 0.75 * high_conv.cycles_per_message

    def test_small_code_removes_advantage(self, ablation_sweep):
        conventional, ldlp = ablation_sweep("code_size", (1024, 12288), rate=3500,
                                            duration=0.08)
        small_conv, small_ldlp = conventional[0], ldlp[0]
        # Whole stack fits the cache: LDLP buys nothing (Figure 4).
        assert small_ldlp.cycles_per_message == pytest.approx(
            small_conv.cycles_per_message, rel=0.1
        )
        big_conv, big_ldlp = conventional[1], ldlp[1]
        assert big_ldlp.cycles_per_message < 0.8 * big_conv.cycles_per_message


#: ``ldlp-experiment table1`` stdout: working-set sizes do not depend on
#: the placement seed, so every ``--seed`` prints this table.
TABLE1_STDOUT = (
    'Table 1: working set of the TCP receive & acknowledge path (bytes)\n'
    '==================================================================\n'
    'Layer              code   (paper)  ro-data  (paper)  mut-data  (paper)\n'
    '-----------------  -----  -------  -------  -------  --------  -------\n'
    'Ethernet            4480     4480      864      864       672      672\n'
    'IP                  2784     2784      480      480       128      128\n'
    'TCP                 3168     3168      448      448       160      160\n'
    'Socket low          5536     5536      544      544       448      448\n'
    'Socket high          608      608       32       32       160      160\n'
    'Kernel entry/exit   1184     1184      256      256        64       64\n'
    'Process control     2208     2208     1280     1280       640      640\n'
    'Buffer mgmt         5472     5472      544      544       736      736\n'
    'Common              1632     1632      192      192       512      512\n'
    'Copy, checksum      3232     3232      448      448       128      128\n'
    'Total              30304    30592     5088     5088      3648     3648\n'
    "Note: the paper's printed code total (30592) exceeds its own row sum (30304) "
    "by 288; we reproduce the rows.\n"
)


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
        expected = run_assembled(motivation.SWEEP, "default")
        assert cli_main(["motivation"]) == 0
        assert capsys.readouterr().out == expected + "\n"

    @pytest.fixture
    def spied(self, monkeypatch):
        """Replace the CLI's ``run_assembled`` with a spy that records
        each spec's name and ``default`` point params and prints a
        marker instead of running the sweep."""
        calls = []

        def spy(spec, scale):
            calls.append((spec.name, scale, [p.params for p in spec.points_for(scale)]))
            return f"<{spec.name}>"

        monkeypatch.setattr(experiments_cli, "run_assembled", spy)
        return calls

    def test_every_experiment_prints_its_spec_render(self, spied, capsys):
        """Each registered experiment but the fault campaign (its own
        ``faults`` subcommand) prints its spec's rendered table."""
        names = [name for name in EXPERIMENT_MODULES if name != "faults"]
        for name in names:
            assert cli_main([name]) == 0
            assert capsys.readouterr().out.startswith(f"<{name}>\n")
        assert [(name, scale) for name, scale, _ in spied] == [
            (name, "default") for name in names
        ]

    def test_seed_reaches_the_points(self, spied, capsys):
        assert cli_main(["table1", "--seed", "7"]) == 0
        assert cli_main(["motivation", "--seed", "7"]) == 0
        capsys.readouterr()
        assert [params["seed"] for _, _, points in spied for params in points] == [
            7, 7, 7,
        ]

    def test_seed_on_an_unseeded_experiment_is_a_usage_error(self, spied, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["figure5", "--seed", "3"])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert spied == []

    def test_all_applies_the_seed_where_accepted(self, spied, monkeypatch, capsys):
        monkeypatch.setattr(experiments_cli, "_analyze_command", print)
        assert cli_main(["all", "--seed", "3"]) == 0
        assert "['--seed', '3']" in capsys.readouterr().out
        assert sorted(name for name, _, _ in spied) == sorted(
            name for name in EXPERIMENT_MODULES if name != "faults"
        )
        seeded = {
            name for name, _, points in spied
            if all(params.get("seed") == 3 for params in points)
        }
        assert seeded == {"ablations", "figure1", "motivation", "table1", "table2", "table3"}
        assert not any(
            "seed" in params
            for name, _, points in spied if name not in seeded
            for params in points
        )

    def test_table1_seed_7_prints_the_published_table(self, capsys):
        assert cli_main(["table1", "--seed", "7"]) == 0
        assert capsys.readouterr().out == TABLE1_STDOUT


class TestMotivation:
    def test_render(self):
        text = rendered(
            motivation,
            "repro.experiments.motivation:compute_point",
            {
                scheduler: {
                    "scheduler": scheduler, "pair_rate": 10_000.0,
                    "duration": 0.1, "seed": 5,
                }
                for scheduler in ("conventional", "ldlp")
            },
        )
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
