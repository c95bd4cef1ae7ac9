"""DET rule family — whole-package determinism & parallel-purity lint.

Every result this reproduction ships rests on one invariant: runs are
seed-deterministic and byte-identical at any ``--jobs`` (the harness
contract).  The golden gate catches violations *after* they flake; this
pass catches the constructs that cause them at lint time, over the whole
``repro`` package:

* ``DET001`` unseeded-rng — RNG construction with no seed
  (``np.random.default_rng()``, ``random.Random()``) or any call into
  the process-global ``random.*`` / legacy ``numpy.random.*`` APIs,
  whose state is shared across modules and worker forks;
* ``DET002`` salted-hash — ``hash()`` or ``id()`` feeding computed
  values: ``str``/``bytes`` hashes are salted per interpreter
  (``PYTHONHASHSEED``) and ``id()`` is an allocation address;
* ``DET003`` wall-clock — reads of ``time.time``/``perf_counter``/
  ``datetime.now`` and friends; wall-clock values differ per run, so
  they may only feed measurement metadata, never results;
* ``DET004`` unordered-iteration — iterating a ``set``/``frozenset``
  of salted-hash elements (``str``/``bytes``/``Path``) into ordered
  output (a loop, ``list()``, ``join()``, float ``sum()``) without
  ``sorted()``: element order follows the per-interpreter hash salt;
* ``DET005`` impure-sweep-point — parallel purity of every declared
  :class:`~repro.harness.points.SweepPoint` function: its transitive
  import closure (reusing :mod:`~repro.analysis.harnesscheck`'s
  walker) must not write module-level state from function bodies
  (``global`` rebinding, mutating a module-level container), because
  point functions must be pure functions of their parameters to be
  cacheable and fan-out-safe.

Deliberate uses are suppressed inline, with a mandatory reason::

    start = time.perf_counter()  # det: allow[DET003] timing metadata only

A suppression with no reason does not suppress — the finding is
reported with a note instead, so "because I said so" never ships.
Everything here is purely static (AST + token scan); nothing is
imported or executed.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

import repro

from ..errors import TraceError
from .findings import Finding
from .harnesscheck import PACKAGE, declared_points, import_closure, module_path

#: Root directory of the analyzed package (``src/repro``).
PACKAGE_ROOT = Path(repro.__file__).resolve().parent

# ----------------------------------------------------------------------
# Inline suppressions

#: ``# det: allow[DET003] reason`` — rule list, then a mandatory reason.
_SUPPRESSION_RE = re.compile(
    r"#\s*det:\s*allow\[(?P<rules>[A-Z0-9,\s]*)\]\s*(?P<reason>.*?)\s*$"
)


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# det: allow[...]`` comment."""

    line: int
    rules: frozenset[str]
    reason: str

    def covers(self, rule_id: str) -> bool:
        """True when this suppression names the rule *and* has a reason."""
        return bool(self.reason) and rule_id in self.rules


def parse_suppressions(source: str) -> dict[int, Suppression]:
    """All ``det: allow`` comments in a source text, keyed by line."""
    suppressions: dict[int, Suppression] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            continue
        rules = frozenset(
            part.strip() for part in match.group("rules").split(",") if part.strip()
        )
        suppressions[lineno] = Suppression(
            line=lineno, rules=rules, reason=match.group("reason")
        )
    return suppressions


def apply_suppressions(
    findings: list[Finding], suppressions: dict[int, Suppression]
) -> list[Finding]:
    """Drop findings a same-line suppression covers; flag reasonless ones."""
    kept: list[Finding] = []
    for finding in findings:
        suppression = suppressions.get(finding.line or 0)
        if suppression is None or finding.rule_id not in suppression.rules:
            kept.append(finding)
            continue
        if suppression.covers(finding.rule_id):
            continue
        finding.message += (
            " (a det: allow suppression on this line has no reason; "
            "reasons are mandatory, so it is ignored)"
        )
        finding.details["reasonless_suppression"] = True
        kept.append(finding)
    return kept


# ----------------------------------------------------------------------
# Import-alias resolution (shared by DET001/DET003)

#: Modules whose members the checker resolves through aliases.
_TRACKED_MODULES = ("numpy", "random", "time", "datetime")


def _build_aliases(tree: ast.AST) -> dict[str, str]:
    """Map local names to canonical dotted paths for tracked modules.

    ``import numpy as np`` maps ``np -> numpy``; ``from time import
    perf_counter as pc`` maps ``pc -> time.perf_counter``.  Only the
    modules the DET rules care about are tracked.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".", 1)[0]
                if root in _TRACKED_MODULES:
                    aliases[alias.asname or root] = (
                        alias.name if alias.asname else root
                    )
        elif isinstance(node, ast.ImportFrom) and not node.level:
            module = node.module or ""
            if module.split(".", 1)[0] not in _TRACKED_MODULES:
                continue
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{module}.{alias.name}"
    return aliases


def _canonical(node: ast.expr, aliases: dict[str, str]) -> str | None:
    """The canonical dotted path of a Name/Attribute chain, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id)
    if root is None:
        return None
    parts.append(root)
    return ".".join(reversed(parts))


# ----------------------------------------------------------------------
# DET001 — unseeded / process-global RNG

#: ``random`` module functions that draw from the process-global state.
_GLOBAL_RANDOM_FUNCS = frozenset(
    f"random.{name}"
    for name in (
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    )
)

#: Legacy ``numpy.random`` module-level functions (global RandomState).
_LEGACY_NUMPY_FUNCS = frozenset(
    f"numpy.random.{name}"
    for name in (
        "binomial", "bytes", "choice", "exponential", "normal",
        "permutation", "poisson", "rand", "randint", "randn", "random",
        "random_sample", "seed", "shuffle", "standard_normal", "uniform",
    )
)

# ----------------------------------------------------------------------
# DET003 — wall-clock reads

_WALL_CLOCKS = frozenset(
    {
        "time.time", "time.time_ns",
        "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns",
        "time.process_time", "time.process_time_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
    }
)

# ----------------------------------------------------------------------
# DET004 — salted-set iteration order

#: Builtins that consume an iterable order-insensitively; iterating a
#: salted set *inside* them is deterministic again.
_ORDER_NEUTRAL_CALLS = frozenset(
    {"sorted", "min", "max", "len", "set", "frozenset", "any", "all"}
)

#: Builtins that materialize their argument's iteration order.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "sum"})

#: Element annotations whose hashes are PYTHONHASHSEED-salted.
_SALTED_ELEMENT_TYPES = frozenset({"str", "bytes", "Path", "PurePath"})

_SET_TYPE_NAMES = frozenset({"set", "frozenset", "Set", "FrozenSet"})


def _annotation_is_salted_set(annotation: ast.expr | None) -> bool:
    """True for annotations like ``set[str]`` or ``frozenset[Path]``."""
    if not isinstance(annotation, ast.Subscript):
        return False
    base = annotation.value
    base_name = base.id if isinstance(base, ast.Name) else (
        base.attr if isinstance(base, ast.Attribute) else None
    )
    if base_name not in _SET_TYPE_NAMES:
        return False
    element = annotation.slice
    leaf = element.id if isinstance(element, ast.Name) else (
        element.attr if isinstance(element, ast.Attribute) else None
    )
    return leaf in _SALTED_ELEMENT_TYPES


def _has_salted_constant(elements: list[ast.expr]) -> bool:
    return any(
        isinstance(el, ast.Constant) and isinstance(el.value, (str, bytes))
        for el in elements
    )


class _SaltedSets:
    """Which expressions in one scope are sets with salted-hash elements."""

    def __init__(self) -> None:
        self.salted: set[str] = set()
        self.plain_sets: set[str] = set()

    def collect(self, body: list[ast.stmt], args: ast.arguments | None) -> None:
        """Pass 1: find salted-set names (assignments, annotations, adds).

        Runs to a fixed point: saltedness propagates through assignment
        chains (``both = left | right``) regardless of the order the
        scope walk visits statements in.
        """
        if args is not None:
            for arg in [
                *args.posonlyargs, *args.args, *args.kwonlyargs,
            ]:
                if _annotation_is_salted_set(arg.annotation):
                    self.salted.add(arg.arg)
        while True:
            before = (len(self.salted), len(self.plain_sets))
            self._collect_pass(body)
            if (len(self.salted), len(self.plain_sets)) == before:
                return

    def _collect_pass(self, body: list[ast.stmt]) -> None:
        for node in _walk_scope(body):
            if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                if _annotation_is_salted_set(node.annotation):
                    self.salted.add(node.target.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                name = node.targets[0].id
                if self.is_salted(node.value):
                    self.salted.add(name)
                elif _is_set_expr(node.value):
                    self.plain_sets.add(name)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                if self.is_salted(node.value):
                    self.salted.add(node.target.id)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                # seen.add("name") promotes a tracked plain set to salted.
                receiver = node.func.value
                if (
                    node.func.attr in ("add", "update")
                    and isinstance(receiver, ast.Name)
                    and receiver.id in (self.plain_sets | self.salted)
                    and node.args
                    and (
                        _has_salted_constant(node.args)
                        or any(self.is_salted(arg) for arg in node.args)
                    )
                ):
                    self.salted.add(receiver.id)

    def is_salted(self, node: ast.expr) -> bool:
        """True when ``node`` statically evaluates to a salted set."""
        if isinstance(node, ast.Name):
            return node.id in self.salted
        if isinstance(node, ast.Set):
            return _has_salted_constant(node.elts)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("set", "frozenset") and node.args:
            arg = node.args[0]
            if isinstance(arg, ast.Constant) and isinstance(arg.value, (str, bytes)):
                return True
            if isinstance(arg, (ast.List, ast.Tuple, ast.Set)):
                return _has_salted_constant(arg.elts)
            return self.is_salted(arg)
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
        ):
            return self.is_salted(node.left) or self.is_salted(node.right)
        if isinstance(node, ast.IfExp):
            return self.is_salted(node.body) or self.is_salted(node.orelse)
        return False


def _is_neutral(node: ast.AST) -> bool:
    """True when :meth:`_ModuleChecker._mark_order_neutral` marked it."""
    return getattr(node, "_det_order_neutral", False)


def _is_set_expr(node: ast.expr) -> bool:
    """A set literal or ``set()``/``frozenset()`` call of any element type."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def _walk_scope(body: list[ast.stmt]):
    """Walk statements/expressions of one scope, skipping nested defs."""
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            continue  # nested scope: yielded for name binding, not entered
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------
# The per-module source checker (DET001–DET004)


class _ModuleChecker:
    """Runs the source-level DET rules over one parsed module."""

    def __init__(self, filename: str, tree: ast.Module) -> None:
        self.filename = filename
        self.tree = tree
        self.aliases = _build_aliases(tree)
        self.findings: list[Finding] = []
        #: Builtins shadowed anywhere in the module ('hash'/'id' as a
        #: variable or parameter) are not flagged as DET002.
        self.shadowed = self._shadowed_builtins()

    def _shadowed_builtins(self) -> set[str]:
        shadowed: set[str] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                if node.id in ("hash", "id"):
                    shadowed.add(node.id)
            elif isinstance(node, ast.arg) and node.arg in ("hash", "id"):
                shadowed.add(node.arg)
        return shadowed

    def _report(self, rule_id: str, message: str, line: int, **details: object) -> None:
        self.findings.append(
            Finding(rule_id, message, self.filename, line=line, details=details)
        )

    def run(self) -> list[Finding]:
        self._check_rng_and_clocks()
        self._check_salted_iteration()
        self.findings.sort(key=lambda f: (f.line or 0, f.rule_id, f.message))
        return self.findings

    # -- DET001 / DET002 / DET003 --------------------------------------

    def _check_rng_and_clocks(self) -> None:
        flagged_clock_lines: set[tuple[int, str]] = set()
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Call):
                self._check_call(node)
            elif isinstance(node, (ast.Attribute, ast.Name)) and isinstance(
                node.ctx, ast.Load
            ):
                canonical = _canonical(node, self.aliases)
                if canonical in _WALL_CLOCKS:
                    site = (node.lineno, canonical)
                    if site in flagged_clock_lines:
                        continue
                    flagged_clock_lines.add(site)
                    self._report(
                        "DET003",
                        f"wall-clock read {canonical} — per-run values must "
                        f"not feed computed results; suppress with a reason "
                        f"if this only feeds measurement metadata",
                        node.lineno,
                        clock=canonical,
                    )

    def _check_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name) and func.id in ("hash", "id") \
                and func.id not in self.shadowed:
            self._report(
                "DET002",
                f"builtin {func.id}() is PYTHONHASHSEED-salted (str/bytes) "
                f"or an allocation address — use a content hash "
                f"(zlib.crc32, hashlib) for computed values",
                node.lineno,
                builtin=func.id,
            )
            return
        canonical = _canonical(func, self.aliases)
        if canonical is None:
            return
        if canonical == "numpy.random.default_rng" and not node.args \
                and not node.keywords:
            self._report(
                "DET001",
                "numpy.random.default_rng() with no seed draws from OS "
                "entropy — pass an explicit seed or an injected generator",
                node.lineno,
                constructor=canonical,
            )
        elif canonical == "random.Random" and not node.args and not node.keywords:
            self._report(
                "DET001",
                "random.Random() with no seed draws from OS entropy — "
                "pass an explicit seed",
                node.lineno,
                constructor=canonical,
            )
        elif canonical in _GLOBAL_RANDOM_FUNCS:
            self._report(
                "DET001",
                f"{canonical}() uses the process-global random state, "
                f"shared across modules and worker forks — use a "
                f"per-instance seeded Generator",
                node.lineno,
                function=canonical,
            )
        elif canonical in _LEGACY_NUMPY_FUNCS:
            self._report(
                "DET001",
                f"{canonical}() uses numpy's legacy global RandomState — "
                f"use a per-instance np.random.default_rng(seed)",
                node.lineno,
                function=canonical,
            )

    # -- DET004 ---------------------------------------------------------

    def _check_salted_iteration(self) -> None:
        self._check_scope_iteration(self.tree.body, None)
        for node in ast.walk(self.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._check_scope_iteration(node.body, node.args)

    def _check_scope_iteration(
        self, body: list[ast.stmt], args: ast.arguments | None
    ) -> None:
        sets = _SaltedSets()
        sets.collect(body, args)
        if not sets.salted:
            return
        self._mark_order_neutral(body)
        for node in _walk_scope(body):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                if sets.is_salted(node.iter) and not _is_neutral(node.iter):
                    self._flag_iteration(node.iter, "for loop")
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                for gen in node.generators:
                    if sets.is_salted(gen.iter) and not _is_neutral(node):
                        self._flag_iteration(gen.iter, "comprehension")
            elif isinstance(node, ast.Call):
                self._check_ordered_call(node, sets)

    def _mark_order_neutral(self, body: list[ast.stmt]) -> None:
        """Mark nodes whose iteration order an enclosing call discards.

        ``sorted(x for x in salted)`` and ``sorted(list(salted))`` are
        deterministic: the outer call re-establishes an order (or never
        had one), so the inner iteration is not flagged.
        """

        def absorb(node: ast.expr) -> None:
            node._det_order_neutral = True  # type: ignore[attr-defined]
            if isinstance(node, ast.Call):
                for arg in node.args:
                    absorb(arg)

        for node in _walk_scope(body):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id in _ORDER_NEUTRAL_CALLS:
                for arg in node.args:
                    absorb(arg)

    def _check_ordered_call(self, node: ast.Call, sets: _SaltedSets) -> None:
        if _is_neutral(node):
            return
        func = node.func
        consumer: str | None = None
        if isinstance(func, ast.Name) and func.id in _ORDER_SENSITIVE_CALLS:
            consumer = f"{func.id}()"
        elif isinstance(func, ast.Attribute) and func.attr == "join":
            consumer = "str.join()"
        if consumer is None:
            return
        for arg in node.args:
            if sets.is_salted(arg) and not _is_neutral(arg):
                self._flag_iteration(arg, consumer)

    def _flag_iteration(self, node: ast.expr, consumer: str) -> None:
        self._report(
            "DET004",
            f"iteration order of a str/bytes set reaches ordered output "
            f"({consumer}) — set order follows the per-interpreter hash "
            f"salt; wrap the set in sorted()",
            node.lineno,
            consumer=consumer,
        )


# ----------------------------------------------------------------------
# Source-level entry points


def check_source(source: str, filename: str = "<string>") -> list[Finding]:
    """DET001–DET004 findings for one source text, suppressions applied."""
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        raise TraceError(f"cannot parse {filename}: {exc}") from exc
    findings = _ModuleChecker(filename, tree).run()
    return apply_suppressions(findings, parse_suppressions(source))


def check_det_file(path: str | Path) -> list[Finding]:
    """DET source findings for one Python file."""
    path = Path(path)
    return check_source(path.read_text(encoding="utf-8"), _display_path(path))


def _display_path(path: Path) -> str:
    """The path as reported in findings (relative to cwd when possible)."""
    resolved = path.resolve()
    try:
        return str(resolved.relative_to(Path.cwd()))
    except ValueError:
        return str(resolved)


def check_package(root: Path | None = None) -> list[Finding]:
    """DET001–DET004 over every ``.py`` file of the package tree."""
    root = Path(root) if root is not None else PACKAGE_ROOT
    findings: list[Finding] = []
    for path in sorted(root.rglob("*.py")):
        findings.extend(check_det_file(path))
    return findings


# ----------------------------------------------------------------------
# DET005 — parallel purity of sweep-point closures

#: Container methods that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "add", "append", "appendleft", "clear", "discard", "extend",
        "insert", "pop", "popitem", "popleft", "remove", "setdefault",
        "update", "__setitem__",
    }
)

_MUTABLE_CONSTRUCTORS = frozenset(
    {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _module_level_names(tree: ast.Module) -> tuple[set[str], set[str]]:
    """(all module-level bindings, the mutable-container subset)."""
    bindings: set[str] = set()
    mutables: set[str] = set()
    for stmt in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign):
            targets, value = [stmt.target], stmt.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            bindings.add(target.id)
            if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                                  ast.SetComp, ast.DictComp)):
                mutables.add(target.id)
            elif isinstance(value, ast.Call):
                func = value.func
                name = func.id if isinstance(func, ast.Name) else (
                    func.attr if isinstance(func, ast.Attribute) else None
                )
                if name in _MUTABLE_CONSTRUCTORS:
                    mutables.add(target.id)
    return bindings, mutables


@dataclass(frozen=True)
class StateWrite:
    """One module-level state write found inside a function body."""

    line: int
    name: str
    kind: str  # "global-write" | "container-mutation"
    function: str


def _local_bindings(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names the function binds locally (params + assignments)."""
    bound = {arg.arg for arg in [
        *func.args.posonlyargs, *func.args.args, *func.args.kwonlyargs,
        *( [func.args.vararg] if func.args.vararg else [] ),
        *( [func.args.kwarg] if func.args.kwarg else [] ),
    ]}
    for node in _walk_scope(func.body):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
    return bound


def module_state_writes(tree: ast.Module) -> list[StateWrite]:
    """Every write to module-level state from a function body.

    Two kinds: rebinding a module global (``global X`` + assignment) and
    in-place mutation of a module-level container (subscript store,
    ``del``, or a mutating method call).  Local shadows are respected:
    a function that binds the name itself (parameter or plain local) is
    not writing module state.
    """
    bindings, mutables = _module_level_names(tree)
    writes: list[StateWrite] = []
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        declared_global: set[str] = set()
        for node in _walk_scope(func.body):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        locals_bound = _local_bindings(func) - declared_global
        for node in _walk_scope(func.body):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id in declared_global:
                        writes.append(StateWrite(
                            node.lineno, target.id, "global-write", func.name
                        ))
                    elif isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in mutables \
                            and target.value.id not in locals_bound:
                        writes.append(StateWrite(
                            node.lineno, target.value.id,
                            "container-mutation", func.name,
                        ))
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id in mutables \
                            and target.value.id not in locals_bound:
                        writes.append(StateWrite(
                            node.lineno, target.value.id,
                            "container-mutation", func.name,
                        ))
            elif isinstance(node, ast.Call) \
                    and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in _MUTATING_METHODS \
                    and isinstance(node.func.value, ast.Name) \
                    and node.func.value.id in mutables \
                    and node.func.value.id not in locals_bound:
                writes.append(StateWrite(
                    node.lineno, node.func.value.id,
                    "container-mutation", func.name,
                ))
    writes.sort(key=lambda w: (w.line, w.name))
    return writes


def check_parallel_purity() -> list[Finding]:
    """DET005 findings over every registered experiment's point closure."""
    from ..harness.registry import all_specs

    # Which experiments reach each closed-over module.
    reached_by: dict[str, list[str]] = {}
    for spec in all_specs():
        func_modules = {
            point.func.partition(":")[0] for point in declared_points(spec)
        }
        closure: set[str] = set()
        for module in sorted(func_modules):
            closure |= import_closure(module)
        for module in sorted(closure):
            reached_by.setdefault(module, []).append(spec.name)

    findings: list[Finding] = []
    for module in sorted(reached_by):
        path = module_path(module)
        if path is None or module == PACKAGE:
            continue
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(path))
        module_findings: list[Finding] = []
        experiments = sorted(set(reached_by[module]))
        for write in module_state_writes(tree):
            module_findings.append(
                Finding(
                    rule_id="DET005",
                    message=(
                        f"{write.function}() {'rebinds module global' if write.kind == 'global-write' else 'mutates module-level container'} "
                        f"{write.name!r}, but {module} is in the import "
                        f"closure of sweep points for "
                        f"{', '.join(experiments)} — point functions must "
                        f"be pure to parallelize and cache safely"
                    ),
                    target=_display_path(path),
                    line=write.line,
                    details={
                        "module": module,
                        "name": write.name,
                        "kind": write.kind,
                        "function": write.function,
                        "experiments": experiments,
                    },
                )
            )
        findings.extend(
            apply_suppressions(module_findings, parse_suppressions(source))
        )
    return findings


def check_determinism() -> list[Finding]:
    """The full ``--determinism`` gate: package scan + parallel purity."""
    findings = check_package()
    findings.extend(check_parallel_purity())
    return findings
