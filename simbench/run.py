"""Benchmark entry point: one workload per invocation.

Usage, from the root of a checkout::

    python3 simbench/run.py --workload poisson [--seed 0] [--seconds 20] [--trace 0|1]

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` repeats every run under the layer wrappers, writes span
files to ``.simbench/trace/<workload>/`` and prints the per-layer
metrics.  Each metric gets a human-readable line (with its sample count
and, for timings, the raw wall-clock value); the last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"simbench: no simulator source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: the loop is single-caller and the host has two vCPUs.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    os.environ.setdefault("OMP_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT))
    from simbench import suite
    from simbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = args.workload
    points = WORKLOADS[workload]
    print(f"simbench workload={workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    metrics: dict[str, dict[str, float | str]] = {}
    if args.trace:
        traced = suite.trace(
            workload, points, args.seed, args.seconds, suite.default_trace_dir(workload)
        )
        runs, failed = traced.runs, traced.failed
        for target in traced.missing:
            print(f"  trace target not found: {target}")
        for name, (value, unit) in traced.metrics.items():
            print(f"  {name:32s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        measured = suite.measure(workload, points, args.seed, args.seconds)
        runs, failed = measured.runs, measured.failed
        for name, (value, unit, samples, raw) in measured.metrics().items():
            print(f"  {name:12s} {value:12.6g} {unit:6s} n={samples:<4d} raw.{name}={raw:.6g}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"  runs {len(runs)}, failed {failed}, failed_frac {failed / len(runs):.4f}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
