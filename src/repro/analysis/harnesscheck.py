"""Harness checks: sweep-point import closures and sweep coverage.

Two things live here.

The import-closure walker (:func:`import_closure`) computes the
transitive ``repro.*`` imports of a sweep point's module by parsing
ASTs: absolute imports, relative imports at any level, and ``from pkg
import submodule`` resolved against the package tree.  Nothing is
executed or imported.  The DET005 parallel-purity rule
(:mod:`repro.analysis.detcheck`) walks it to find every module a point
function can reach.

One deliberate refinement keeps the closure honest instead of
everything-reaches-everything: importing a submodule executes every
ancestor package ``__init__``, and a re-export hub (an ``__init__``
such as ``repro.sim.__init__`` that imports its siblings to re-export
their names) may eagerly import *every sibling* — which would drag the
whole codebase into every point's closure and make the walk useless.  Ancestor ``__init__`` files that are pure re-export
hubs (docstring + imports + ``__all__`` only) are therefore treated as
inert: their imports are not followed.  Any ``__init__`` reached
through a real import edge (``from ..core import BatchPolicy``), or
containing actual logic, is followed in full — its code demonstrably
feeds the point result.

The sweep-coverage rules (:func:`check_sweep_coverage`, HARN002–HARN004)
pin that every entry of a registry the golden gate depends on is
exercised: every dispatch policy by a ``multicore`` point, every
flow-cache organization by a ``flows`` point, every framing mode by a
``gossip`` point.  A registered entry no sweep runs could change
behaviour without tripping any golden.
"""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path
from typing import NamedTuple

import repro

from ..errors import ConfigurationError
from ..harness.points import SCALES, SweepPoint, SweepSpec
from .findings import Finding

#: The package every experiment lives under.
PACKAGE = "repro"

_ROOT = Path(repro.__file__).resolve().parent


def module_path(name: str) -> Path | None:
    """Resolve a dotted ``repro.*`` module name to its source file.

    Packages resolve to their ``__init__.py``; names that do not exist
    under the package tree resolve to ``None``.
    """
    if name == PACKAGE:
        return _ROOT / "__init__.py"
    if not name.startswith(PACKAGE + "."):
        return None
    candidate = _ROOT.joinpath(*name.split(".")[1:])
    package_init = candidate / "__init__.py"
    if package_init.is_file():
        return package_init
    module_file = candidate.with_suffix(".py")
    if module_file.is_file():
        return module_file
    return None


def _relative_base(importer: str, level: int) -> list[str] | None:
    """The package a level-``level`` relative import resolves against."""
    parts = importer.split(".")
    path = module_path(importer)
    if path is not None and path.name == "__init__.py":
        package = parts
    else:
        package = parts[:-1]
    if level - 1 >= len(package):
        return None
    return package[: len(package) - (level - 1)]


def imported_modules(importer: str, tree: ast.AST) -> set[str]:
    """Every ``repro.*`` module one file's imports name.

    Walks the whole AST, so lazy function-body imports count too — they
    still execute when the point function runs.  For ``from pkg import
    name``, ``name`` is kept as a module only when a matching file
    exists under the package tree (otherwise it is an attribute).
    """
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.name
                if name == PACKAGE or name.startswith(PACKAGE + "."):
                    found.add(name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = _relative_base(importer, node.level)
                if base is None:
                    continue
                target_parts = base + (node.module.split(".") if node.module else [])
                target = ".".join(target_parts)
            else:
                target = node.module or ""
            if target != PACKAGE and not target.startswith(PACKAGE + "."):
                continue
            found.add(target)
            for alias in node.names:
                submodule = f"{target}.{alias.name}"
                if module_path(submodule) is not None:
                    found.add(submodule)
    return found


def _ancestors(name: str) -> list[str]:
    """Every enclosing package of a dotted name (importing a submodule
    executes every ancestor ``__init__`` too)."""
    parts = name.split(".")
    return [".".join(parts[:length]) for length in range(1, len(parts))]


def _is_reexport_hub(tree: ast.Module) -> bool:
    """True when a module is nothing but a re-export hub.

    A hub contains only a docstring, imports, and ``__all__``
    assignments — no functions, classes, or other logic whose behaviour
    a point result could depend on.
    """
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        if isinstance(node, ast.Assign) and all(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            continue
        return False
    return True


def import_closure(root_module: str) -> set[str]:
    """The transitive ``repro.*`` import closure of one module.

    Includes the root module and everything reachable through import
    edges, plus ancestor package ``__init__`` files that contain real
    logic (inert re-export hubs reached only as ancestors are skipped —
    see the module docstring).  Purely static (AST-based); nothing is
    executed.
    """
    closure: set[str] = set()
    inert_hubs: set[str] = set()
    queue: list[tuple[str, bool]] = [(root_module, False)]
    while queue:
        name, via_ancestor = queue.pop()
        if name in closure:
            continue
        path = module_path(name)
        if path is None:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        if via_ancestor and path.name == "__init__.py" and _is_reexport_hub(tree):
            inert_hubs.add(name)
            continue
        closure.add(name)
        inert_hubs.discard(name)
        for ancestor in _ancestors(name):
            if ancestor not in closure and ancestor not in inert_hubs:
                queue.append((ancestor, True))
        for dependency in imported_modules(name, tree):
            if dependency not in closure:
                queue.append((dependency, False))
    return closure


def declared_points(spec: SweepSpec) -> list[SweepPoint]:
    """Every sweep point ``spec`` declares, across all scales it defines."""
    points: list[SweepPoint] = []
    for scale in SCALES:
        try:
            points.extend(spec.points_for(scale))
        except (KeyError, ConfigurationError):
            # A scale this experiment does not define.
            continue
    return points


class _Coverage(NamedTuple):
    """One registry whose every entry some sweep point must exercise."""

    rule_id: str
    experiment: str
    param: str
    registry: str  # "module:attribute" of the registry dict
    noun: str
    detail: str  # the ``details`` key naming the unexercised entry
    drift: str  # what changes unpinned when the entry goes unexercised


_COVERAGE = (
    _Coverage("HARN002", "multicore", "dispatch",
              "repro.core.dispatch:DISPATCH_POLICIES",
              "dispatch policy", "policy", "behaviour"),
    _Coverage("HARN003", "flows", "organization",
              "repro.flows.lookup:FLOW_CACHE_ORGS",
              "flow-cache organization", "organization", "behaviour"),
    _Coverage("HARN004", "gossip", "framing",
              "repro.gossip.wire:FRAMING_MODES",
              "framing mode", "framing", "wire layout"),
)


def check_sweep_coverage() -> list[Finding]:
    """HARN002–HARN004 findings: registry entries no sweep exercises.

    For each row of the coverage table, every name registered in the
    registry must appear as the row's parameter of at least one point
    of the row's experiment at some scale.
    """
    from ..harness.registry import get_spec

    findings: list[Finding] = []
    for row in _COVERAGE:
        module_name, _, attr = row.registry.partition(":")
        registered = getattr(import_module(module_name), attr)
        exercised = sorted({
            str(point.params[row.param])
            for point in declared_points(get_spec(row.experiment))
            if point.params.get(row.param) is not None
        })
        findings.extend(
            Finding(
                rule_id=row.rule_id,
                message=(
                    f"{row.noun} {name!r} is registered in "
                    f"{module_name}.{attr} but exercised by "
                    f"no {row.experiment} sweep point at any scale — its "
                    f"{row.drift} is unpinned by the golden gate "
                    f"(exercised: {', '.join(exercised) or 'none'})"
                ),
                target=f"experiment:{row.experiment}",
                details={row.detail: name, "exercised": exercised},
            )
            for name in sorted(set(registered) - set(exercised))
        )
    return findings
