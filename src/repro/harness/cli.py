"""``ldlp-experiment run`` / ``regress`` — the parallel harness CLI.

Usage::

    ldlp-experiment run --jobs 4                 # every experiment
    ldlp-experiment run figure5 figure6 --jobs 4 --scale default
    ldlp-experiment regress --jobs 2             # golden gate, cached
    ldlp-experiment regress figure8 --bless      # re-bless after a change

``run`` executes each experiment's declared sweep points over a worker
pool, reusing the content-hashed cache, and prints one timing line and
the reproduced table per experiment.  ``regress`` additionally fails
(exit 1) when any point result's digest differs from the checked-in
golden or any of the experiment's paper claims does not hold, printing
one block per failed experiment that lists every failed check (each
failed claim with its citation) and, under a digest failure, every
golden quantity that moved.  Unknown experiment names and ``--jobs``
below 1 are usage errors (exit 2), reported before any sweep runs.
"""

from __future__ import annotations

import argparse
import sys

from ..errors import ConfigurationError
from .cache import ResultCache
from ..sim.runner import ENGINE_NAMES
from .golden import (
    DEFAULT_GOLDENS_DIR, bless, check_claims, check_digests, load_golden,
    quantity_changes,
)
from .points import SCALES, with_engine
from .registry import EXPERIMENT_MODULES, get_spec
from .runner import ExperimentRun, run_experiment


def build_parser() -> argparse.ArgumentParser:
    """The ``run``/``regress`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="ldlp-experiment",
        description="Parallel experiment harness with result cache and goldens.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, help_text in (
        ("run", "run experiment sweeps in parallel and print their tables"),
        ("regress", "run (cached) and gate against checked-in goldens"),
    ):
        cmd = sub.add_parser(command, help=help_text)
        cmd.add_argument(
            "experiments",
            nargs="*",
            metavar="experiment",
            help=(
                "experiments to run (default: all): "
                + ", ".join(EXPERIMENT_MODULES)
            ),
        )
        cmd.add_argument(
            "--jobs", "-j", type=int, default=1,
            help="worker processes for sweep points (default 1)",
        )
        cmd.add_argument(
            "--scale", choices=SCALES, default="ci",
            help="sweep scale: ci (fast), default, paper (default: ci)",
        )
        cmd.add_argument(
            "--cache-dir", default=None,
            help="result cache directory (default .ldlp-cache or $LDLP_CACHE_DIR)",
        )
        cmd.add_argument(
            "--no-cache", action="store_true",
            help="recompute every point; do not read or write the cache",
        )
        cmd.add_argument(
            "--engine", choices=ENGINE_NAMES, default=None,
            help=(
                "pin simulation-backed points to one drive-loop engine "
                "(default: each point's own default, currently vec); "
                "engine-pinned params get their own cache namespace"
            ),
        )
    run_cmd, regress_cmd = sub.choices["run"], sub.choices["regress"]
    run_cmd.add_argument(
        "--quantities", action="store_true",
        help="print the golden quantities of each experiment",
    )
    run_cmd.add_argument(
        "--no-render", action="store_true",
        help="suppress the reproduced tables, print timings only",
    )
    regress_cmd.add_argument(
        "--goldens-dir", default=DEFAULT_GOLDENS_DIR,
        help=f"goldens directory (default {DEFAULT_GOLDENS_DIR}/)",
    )
    regress_cmd.add_argument(
        "--bless", action="store_true",
        help="rewrite the goldens from this run instead of checking",
    )
    regress_cmd.add_argument(
        "--expect-cached", action="store_true",
        help="fail if any point had to be recomputed (cache-hash instability)",
    )
    return parser


def _run_all(args: argparse.Namespace) -> list[ExperimentRun]:
    names = list(args.experiments) or list(EXPERIMENT_MODULES)
    cache = ResultCache(root=args.cache_dir, enabled=not args.no_cache)
    runs = []
    for name in names:
        spec = get_spec(name)
        if args.engine is not None:
            spec = with_engine(spec, args.engine)
        run = run_experiment(spec, scale=args.scale, jobs=args.jobs, cache=cache)
        print(run.timing_summary())
        runs.append(run)
    return runs


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: execute sweeps and render their tables."""
    runs = _run_all(args)
    for run in runs:
        spec = get_spec(run.name)
        if not args.no_render and spec.assemble is not None:
            print()
            print(spec.assemble(run.points, run.results).render())
        if args.quantities:
            print(f"\n{run.name} quantities:")
            for key, value in sorted(run.quantities(spec).items()):
                print(f"  {key} = {value:g}")
    return 0


def cmd_regress(args: argparse.Namespace) -> int:
    """``regress``: execute sweeps and gate them against goldens."""
    runs = _run_all(args)
    print()
    failures = 0
    for run in runs:
        spec = get_spec(run.name)
        quantities = run.quantities(spec)
        problems = check_claims(spec, run.points, run.results)
        moved: list[str] = []
        if args.bless and not problems:
            path = bless(spec, args.scale, quantities, run.results, root=args.goldens_dir)
            print(f"BLESSED {run.name}: {len(run.results)} digests, "
                  f"{len(quantities)} quantities, {len(spec.claims)} claim(s) "
                  f"hold -> {path}")
            continue
        if not args.bless:
            try:
                golden = load_golden(run.name, args.scale, root=args.goldens_dir)
            except ConfigurationError as exc:
                problems.append(str(exc))
            else:
                digest_problems = check_digests(run.name, golden, run.results)
                if digest_problems:
                    moved = quantity_changes(run.name, golden.quantities, quantities)
                problems += digest_problems
        if args.expect_cached and run.computed:
            problems.append(f"{run.computed} points were recomputed (cache keys "
                            f"are unstable or the cache was not warmed)")
        if problems:
            print(f"FAIL    {run.name}: {len(problems)} failed check(s)")
            for problem in problems:
                print(f"        {problem}")
            if moved:
                print("        quantities that moved (golden → this run):")
                for line in moved:
                    print(f"          {line}")
            failures += 1
        else:
            print(f"PASS    {run.name}: {len(run.results)} point digests match, "
                  f"{len(spec.claims)} claim(s) hold")
            for claim in spec.claims:
                print(f"        holds: {claim.name} ({claim.cites})")
    if failures:
        print(f"\nregression gate FAILED for {failures} experiment(s)")
        return 1
    if not args.bless:
        print("\nregression gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry: dispatch to :func:`cmd_run` or :func:`cmd_regress`."""
    parser = build_parser()
    args = parser.parse_args(argv)
    unknown = [name for name in args.experiments if name not in EXPERIMENT_MODULES]
    if unknown:
        parser.error(
            f"unknown experiment(s) {', '.join(unknown)}; "
            f"expected one of {', '.join(EXPERIMENT_MODULES)}"
        )
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.command == "run":
        return cmd_run(args)
    return cmd_regress(args)


if __name__ == "__main__":
    sys.exit(main())
