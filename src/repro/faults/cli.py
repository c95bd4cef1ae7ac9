"""``ldlp-experiment faults`` — fault-injection campaigns from the shell.

Usage::

    ldlp-experiment faults list                   # injectors + policies
    ldlp-experiment faults degradation --jobs 4   # overload sweep table
    ldlp-experiment faults degradation --scale default --out curves.txt
    ldlp-experiment faults injectors              # survival matrix

``degradation`` runs the :mod:`repro.faults.campaigns` sweep through
the parallel harness (cached, byte-identical at any ``--jobs``) and
prints the degradation-curve table; ``--out`` also writes it to a file
for CI artifacts.  ``injectors`` runs every injector against every
scheduler at overload and fails (exit 1) unless each combination
survives and both checksum routines agree on corrupted frames (every
run enforces message conservation itself).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from ..core.overload import DROP_POLICIES
from ..errors import ReproError
from ..harness.cache import ResultCache
from ..harness.points import SCALES
from ..harness.runner import run_experiment
from ..protocols.checksum import internet_checksum, internet_checksum_unrolled
from ..sim.runner import SCHEDULER_NAMES, SimulationConfig, run_simulation
from ..traffic.poisson import PoissonSource
from .injectors import STAGE_KINDS, flip_bytes
from .plan import FaultPlan


def build_parser() -> argparse.ArgumentParser:
    """The ``faults`` subcommand parser."""
    parser = argparse.ArgumentParser(
        prog="ldlp-experiment faults",
        description="Fault-injection and overload-robustness campaigns.",
    )
    sub = parser.add_subparsers(dest="campaign", required=True)

    degradation = sub.add_parser(
        "degradation",
        help="overload x policy x scheduler degradation sweep (harness)",
    )
    degradation.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for sweep points (default 1)",
    )
    degradation.add_argument(
        "--scale", choices=SCALES, default="ci",
        help="sweep scale: ci (fast), default, paper (default: ci)",
    )
    degradation.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default .ldlp-cache or $LDLP_CACHE_DIR)",
    )
    degradation.add_argument(
        "--no-cache", action="store_true",
        help="recompute every point; do not read or write the cache",
    )
    degradation.add_argument(
        "--out", default=None,
        help="also write the degradation table to this file (CI artifact)",
    )

    injectors = sub.add_parser(
        "injectors",
        help="per-injector x per-scheduler survival matrix (exit 1 on failure)",
    )
    injectors.add_argument(
        "--seed", type=int, default=0, help="fault/traffic/placement seed"
    )
    injectors.add_argument(
        "--rate", type=float, default=11000.0,
        help="offered arrival rate (default 11000/s: overload)",
    )
    injectors.add_argument(
        "--duration", type=float, default=0.05,
        help="simulated seconds per combination (default 0.05)",
    )

    sub.add_parser("list", help="list available injectors and drop policies")
    return parser


def cmd_list() -> int:
    """``list``: every injector kind and drop policy, one line each."""
    print("injectors:")
    for kind in sorted(STAGE_KINDS):
        stage = STAGE_KINDS[kind]()
        print(f"  {stage.describe()}")
    print("environment faults:")
    print("  cache-flush(period_cycles)  clock-derate(factor)  "
          "mbuf-exhaustion(period, width, start)")
    print("drop policies:")
    for name in sorted(DROP_POLICIES):
        print(f"  {DROP_POLICIES[name]().describe()}")
    return 0


def cmd_degradation(args: argparse.Namespace) -> int:
    """``degradation``: run the faults sweep and print/write the table."""
    from .campaigns import SWEEP

    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    run = run_experiment(SWEEP, scale=args.scale, jobs=args.jobs, cache=cache)
    print(run.timing_summary())
    table = SWEEP.render(run.points, run.results)
    print()
    print(table)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as stream:
            stream.write(table + "\n")
        print(f"\nwrote {args.out}")
    return 0


def _survives(kind: str, scheduler: str, seed: int, rate: float,
              duration: float) -> str | None:
    """Run one injector/scheduler combination; None when it survives.

    Survival means: the run completes without raising (a broken message
    balance raises :class:`~repro.errors.SimulationError`) and at least
    one message completes.
    """
    plan = FaultPlan(stages=(STAGE_KINDS[kind](),))
    config = SimulationConfig(scheduler=scheduler, duration=duration)
    source = PoissonSource(rate, rng=seed)
    try:
        columns = plan.apply(source.arrival_columns(duration), seed)
        result = run_simulation(source, config, seed=seed, columns=columns)
    except ReproError as exc:
        return f"raised {type(exc).__name__}: {exc}"
    if result.completed == 0:
        return "completed no messages"
    return None


def _checksums_agree(seed: int) -> str | None:
    """Both checksum routines must agree on clean and corrupted frames."""
    rng = np.random.default_rng(seed)
    for trial in range(64):
        length = int(rng.integers(1, 1519))
        frame = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
        corrupted = flip_bytes(frame, rng)
        for data in (frame, corrupted):
            simple = internet_checksum(data)
            unrolled = internet_checksum_unrolled(data)
            if simple != unrolled:
                return (
                    f"trial {trial}: internet_checksum={simple:#06x} but "
                    f"unrolled={unrolled:#06x} on {len(data)}-byte frame"
                )
    return None


def cmd_injectors(args: argparse.Namespace) -> int:
    """``injectors``: the survival matrix, non-zero exit on any failure."""
    from ..experiments.report import render_table

    failures = []
    rows = []
    for kind in sorted(STAGE_KINDS):
        row = [kind]
        for scheduler in SCHEDULER_NAMES:
            problem = _survives(
                kind, scheduler, args.seed, args.rate, args.duration
            )
            if problem is None:
                row.append("ok")
            else:
                row.append("FAIL")
                failures.append(f"{kind} x {scheduler}: {problem}")
        rows.append(row)
    print(
        render_table(
            ["injector", *SCHEDULER_NAMES],
            rows,
            title=(
                f"Injector survival matrix (rate={args.rate:.0f}/s, "
                f"duration={args.duration:g}s, seed={args.seed})"
            ),
        )
    )
    checksum_problem = _checksums_agree(args.seed)
    if checksum_problem is not None:
        failures.append(f"checksum disagreement: {checksum_problem}")
    else:
        print("\nchecksum routines agree on clean and corrupted frames")
    if failures:
        print(f"\n{len(failures)} failure(s):")
        for failure in failures:
            print(f"  {failure}")
        return 1
    print("all injectors survived on every scheduler")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry: dispatch one fault campaign (bad arguments exit 2)."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.campaign == "degradation" and args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.campaign == "injectors":
        for flag, value in (("--rate", args.rate), ("--duration", args.duration)):
            if not (math.isfinite(value) and value > 0):
                parser.error(f"{flag} must be positive and finite, got {value}")
    if args.campaign == "list":
        return cmd_list()
    if args.campaign == "degradation":
        return cmd_degradation(args)
    return cmd_injectors(args)


if __name__ == "__main__":
    sys.exit(main())
