"""Static analysis for the LDLP reproduction (``python -m repro.analysis``).

Four analyzers over the repo's own models and sources, each reporting
:class:`~repro.analysis.findings.Finding` objects with stable rule ids:

* :mod:`~repro.analysis.conflict` — per-cache-index occupancy of placed
  code regions; aliasing hot sets (``LDLP001``/``LDLP002``);
* :mod:`~repro.analysis.budget` — Table-1 working-set budgets for layer
  groups and LDLP batches (``LDLP003``/``LDLP004``);
* :mod:`~repro.analysis.schedcheck` — scheduler-configuration validity
  (``SCHED001``–``SCHED004``);
* :mod:`~repro.analysis.mbuflint` — AST lint of mbuf alloc/free
  lifecycles in Python sources (``MBUF001``–``MBUF003``);
* :mod:`~repro.analysis.harnesscheck` — sweep-point import closures
  and registry sweep coverage (``HARN002``–``HARN004``);
* :mod:`~repro.analysis.detcheck` — whole-package determinism and
  sweep-point parallel purity (``DET001``–``DET005``), with inline
  ``# det: allow[RULE] reason`` suppressions.

:mod:`~repro.analysis.stacks` wires them into whole-stack pipelines and
:mod:`~repro.analysis.cli` exposes everything as a CI-gateable command.
"""

from .budget import (
    check_batch_budget,
    check_group_budgets,
    check_netbsd_group_budgets,
    check_scheduler_budgets,
)
from .cli import main
from .conflict import ConflictMap, SetConflict, analyze_conflicts, build_conflict_map
from .detcheck import (
    check_determinism,
    check_package,
    check_parallel_purity,
    check_source,
)
from .findings import (
    RULES,
    Finding,
    Rule,
    Severity,
    count_by_severity,
    worst_severity,
)
from .mbuflint import lint_file, lint_paths, lint_source
from .reporters import finding_to_dict, order_findings, render_json, render_text
from .schedcheck import check_group_partition, check_scheduler_config
from .stacks import (
    STACK_NAMES,
    StackAnalysis,
    analyze_netbsd_stack,
    analyze_stack,
    analyze_synthetic_stack,
    check_scheduler_conflicts,
)

__all__ = [
    "RULES",
    "STACK_NAMES",
    "ConflictMap",
    "Finding",
    "Rule",
    "SetConflict",
    "Severity",
    "StackAnalysis",
    "analyze_conflicts",
    "analyze_netbsd_stack",
    "analyze_stack",
    "analyze_synthetic_stack",
    "build_conflict_map",
    "check_batch_budget",
    "check_determinism",
    "check_group_budgets",
    "check_group_partition",
    "check_netbsd_group_budgets",
    "check_package",
    "check_parallel_purity",
    "check_scheduler_budgets",
    "check_scheduler_config",
    "check_scheduler_conflicts",
    "check_source",
    "count_by_severity",
    "finding_to_dict",
    "order_findings",
    "lint_file",
    "lint_paths",
    "lint_source",
    "main",
    "render_json",
    "render_text",
    "worst_severity",
]
