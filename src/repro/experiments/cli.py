"""``ldlp-experiment`` — run any reproduction harness from the shell.

Usage::

    ldlp-experiment table1
    ldlp-experiment figure6 --paper-scale
    ldlp-experiment all

    ldlp-experiment run --jobs 4            # parallel harness + cache
    ldlp-experiment run figure5 figure6 --jobs 4 --scale default
    ldlp-experiment regress --jobs 2        # golden regression gate
    ldlp-experiment regress figure8 --bless

    ldlp-experiment trace figure6 --sink chrome   # Perfetto timeline
    ldlp-experiment trace receive --sink table    # live miss attribution

    ldlp-experiment faults degradation --jobs 4   # fault campaign sweep
    ldlp-experiment faults injectors              # survival matrix

    ldlp-experiment analyze                       # full static-analysis report
    ldlp-experiment analyze --determinism         # DET gate (exit 1 on ERROR)
    ldlp-experiment analyze --list-rules          # rule registry

The first form runs one experiment serially and prints its table.  An
experiment with a declared sweep runs that sweep's points inline with no
result cache, at the ``default`` scale (``paper`` under
``--paper-scale``), and prints the table ``run`` renders at that scale.
The ``run``/``regress`` forms go through :mod:`repro.harness`: sweep points
fan out over a worker pool, results are cached by content hash, timings
land in ``BENCH_experiments.json``, and ``regress`` gates reproduced
quantities against the checked-in ``goldens/``.  ``trace`` goes through
:mod:`repro.obs`: it re-runs one experiment under a recorder and emits
a Chrome-trace timeline, a miss-attribution table, or counter metrics.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from ..harness.registry import get_spec
from ..harness.runner import run_assembled
from . import figure1, schedules, table1, table2, table3


def _sweep(name: str) -> Callable[[argparse.Namespace], None]:
    """The serial form of a swept experiment: run and render its sweep."""
    def show(args: argparse.Namespace) -> None:
        scale = "paper" if args.paper_scale else "default"
        print(run_assembled(get_spec(name), scale).render())

    return show


def _ablations(args: argparse.Namespace) -> None:
    """A1-A4 and A6 from the sweep, then A5 (Cord layout compaction)."""
    from ..netbsd.cord import run_cord_experiment

    _sweep("ablations")(args)
    print()
    print(run_cord_experiment().render())


EXPERIMENTS = {
    "table1": lambda args: print(table1.run(seed=args.seed).render()),
    "table2": lambda args: table2.main(),
    "table3": lambda args: print(table3.run(seed=args.seed).render()),
    "figure1": lambda args: _figure1(args),
    "figure5": _sweep("figure5"),
    "figure6": _sweep("figure6"),
    "figure7": _sweep("figure7"),
    "figure8": _sweep("figure8"),
    "ablations": _ablations,
    "schedules": lambda args: schedules.main(),
    "motivation": _sweep("motivation"),
    "multicore": _sweep("multicore"),
    "flows": _sweep("flows"),
    "gossip": _sweep("gossip"),
    "analyze": lambda args: _analyze(args),
}


def _analyze(args: argparse.Namespace) -> None:
    """Static analysis of both modelled stacks (see repro.analysis)."""
    from ..analysis.cli import main as analysis_main

    analysis_main(
        ["--stack", "synthetic", "--stack", "netbsd", "--harness",
         "--determinism", "--seed", str(args.seed), "--fail-on", "never"]
    )


def _analyze_command(argv: list[str]) -> int:
    """``ldlp-experiment analyze [...]`` — the analyzer subcommand.

    With no flags this is the legacy report: every checker over both
    modelled stacks, informational (never fails).  ``--list-rules``
    prints the rule registry; ``--determinism`` runs only the DET
    determinism/parallel-purity gate, which *does* gate (exit 1 on an
    ERROR finding) so CI can wire it directly.
    """
    parser = argparse.ArgumentParser(
        prog="ldlp-experiment analyze",
        description="Static analysis of the reproduction (repro.analysis).",
    )
    parser.add_argument("--seed", type=int, default=0, help="placement seed")
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule registry and exit",
    )
    parser.add_argument(
        "--determinism", action="store_true",
        help="run only the DET determinism/parallel-purity gate",
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--fail-on", choices=("error", "warning", "never"), default=None
    )
    args = parser.parse_args(argv)
    from ..analysis.cli import main as analysis_main

    if args.list_rules:
        return analysis_main(["--list-rules"])
    if args.determinism:
        command = ["--determinism", "--format", args.fmt]
        if args.fail_on:
            command += ["--fail-on", args.fail_on]
        return analysis_main(command)
    return analysis_main(
        ["--stack", "synthetic", "--stack", "netbsd", "--harness",
         "--determinism", "--seed", str(args.seed), "--format", args.fmt,
         "--fail-on", args.fail_on or "never"]
    )


def _figure1(args: argparse.Namespace) -> None:
    result = figure1.run(seed=args.seed)
    print(result.phase_table())
    print()
    print(result.code_map())


def build_parser() -> argparse.ArgumentParser:
    """Parser for the serial one-experiment form."""
    parser = argparse.ArgumentParser(
        prog="ldlp-experiment",
        description=(
            "Regenerate the tables and figures of Blackwell, 'Speeding up "
            "Protocols for Small Messages' (SIGCOMM 1996)."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="which table/figure to regenerate",
    )
    parser.add_argument("--seed", type=int, default=0, help="model/placement seed")
    parser.add_argument(
        "--paper-scale",
        action="store_true",
        help="run a swept experiment at its paper scale instead of default",
    )
    return parser


#: Subcommands dispatched to the parallel harness CLI (repro.harness.cli).
HARNESS_COMMANDS = ("run", "regress")

#: Subcommand dispatched to the tracing CLI (repro.obs.cli).
TRACE_COMMAND = "trace"

#: Subcommand dispatched to the fault-campaign CLI (repro.faults.cli).
FAULTS_COMMAND = "faults"

#: Subcommand dispatched to the static-analysis CLI (repro.analysis.cli).
ANALYZE_COMMAND = "analyze"


def main(argv: list[str] | None = None) -> int:
    """CLI entry: dispatch harness/trace subcommands or run serially."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == ANALYZE_COMMAND:
        return _analyze_command(argv[1:])
    if argv and argv[0] in HARNESS_COMMANDS:
        from ..harness.cli import main as harness_main

        return harness_main(argv)
    if argv and argv[0] == TRACE_COMMAND:
        from ..obs.cli import main as obs_main

        return obs_main(argv[1:])
    if argv and argv[0] == FAULTS_COMMAND:
        from ..faults.cli import main as faults_main

        return faults_main(argv[1:])
    args = build_parser().parse_args(argv)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for index, name in enumerate(names):
        if index:
            print("\n" + "=" * 72 + "\n")
        EXPERIMENTS[name](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
