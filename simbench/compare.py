"""Compare two sets of benchmark results: one verdict per (metric, workload).

Usage, from the root of a checkout::

    python3 simbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the saved standard output of ``simbench/run.py``
invocations with ``--trace 0``, one file per invocation.  Files are
grouped by the workload named on their first line and paired in file
name order, so name them in the order they ran (parent and change
alternating: ``01.out``, ``02.out``, ...).

Verdicts, per end-to-end metric of ``BENCHMARK.json`` and workload:

* ``improved``: at least 10 pairs, the change wins at least 9 in 10 of
  them (ties count for neither), and the medians differ in the better
  direction by more than the parent's interquartile range;
* ``regressed``: the change's median is worse than the parent's by
  more than the metric's bound;
* ``unresolved``: the run-to-run spread (interquartile range over
  median, either side) is wider than the bound, unless every change
  run reads better than every parent run;
* ``unchanged``: otherwise.

``failed_frac`` (failed over attempted runs) regresses on any rise.
The exit status is 1 when any verdict is ``regressed`` or ``unresolved``.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_results(directory: Path) -> dict[str, list[dict]]:
    """workload -> parsed result objects, in file name order."""
    grouped: dict[str, list[dict]] = {}
    for path in sorted(p for p in directory.iterdir() if p.is_file()):
        lines = [line for line in path.read_text().splitlines() if line.strip()]
        header = re.match(r"simbench workload=(\S+) .*trace=0", lines[0]) if lines else None
        if header is None:
            continue
        grouped.setdefault(header.group(1), []).append(json.loads(lines[-1]))
    return grouped


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[str, str]:
    """(verdict, wins/pairs) for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(sign * (b - a) > 0 for a, b in pairs)
    median_a, median_b = statistics.median(parent), statistics.median(change)
    q1_a, q3_a = quartiles(parent)
    q1_b, q3_b = quartiles(change)
    gain = sign * (median_b - median_a)
    if len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gain > q3_a - q1_a:
        result = "improved"
    elif max((q3_a - q1_a) / abs(median_a), (q3_b - q1_b) / abs(median_b)) > bound:
        worst_change = min(sign * b for b in change)
        best_parent = max(sign * a for a in parent)
        result = "unchanged" if worst_change > best_parent else "unresolved"
    elif -gain > bound * abs(median_a):
        result = "regressed"
    else:
        result = "unchanged"
    return result, f"{wins}/{len(pairs)}"


def compare(parent: dict[str, list[dict]], change: dict[str, list[dict]], spec: dict) -> list[list[str]]:
    """Table rows: workload, metric, parent median [IQR], change median [IQR], wins, verdict."""
    rows = []
    for workload in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload], change[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            result, wins = verdict(a, b, metric["better"], metric["bound"])
            rows.append([workload, name, summary(a), summary(b), wins, result])
        failed_a = sum(r["failed"] for r in a_runs) / sum(r["attempted"] for r in a_runs)
        failed_b = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        rows.append([
            workload, "failed_frac", f"{failed_a:.4f}", f"{failed_b:.4f}", "-",
            "regressed" if failed_b > failed_a else "unchanged",
        ])
    return rows


def summary(values: list[float]) -> str:
    q1, q3 = quartiles(values)
    return f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of simbench results.")
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(load_results(args.parent), load_results(args.change), spec)
    if not rows:
        print("no workload has results on both sides", file=sys.stderr)
        return 2
    header = ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict"]
    widths = [max(len(str(row[i])) for row in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return 1 if any(row[-1] in ("regressed", "unresolved") for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
