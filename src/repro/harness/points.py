"""The declarative sweep-point interface experiments implement.

A sweep point is one unit of parallel work: a pure function of its
parameters, addressed by dotted name so worker processes can import and
execute it, with JSON-serializable parameters and result so the on-disk
cache can store it.  A :class:`SweepSpec` bundles an experiment's
points with the quantities its goldens report and the paper claims
(:class:`Claim`) its results must bear out.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, replace
from importlib import import_module
from typing import Any, Callable

from ..errors import ConfigurationError

#: Experiment scales, smallest first.  ``ci`` is sized for the CI golden
#: gate, ``default`` for minutes-scale local reproduction, ``paper`` for
#: the full published methodology where an experiment defines one.
SCALES = ("ci", "default", "paper")


@dataclass(frozen=True)
class SweepPoint:
    """One parallelizable unit of an experiment sweep.

    Attributes
    ----------
    experiment:
        Name of the owning experiment (``figure5``, ``table1``, ...).
    key:
        Unique label within the experiment (``ldlp/rate=9000``); result
        dictionaries are keyed by it, in declared point order, so runs
        at any worker count serialize identically.
    func:
        Dotted path ``package.module:function`` of a module-level pure
        function.  Workers resolve it by import, so it must not close
        over any state.
    params:
        JSON-serializable keyword arguments; together with ``func``
        they fully determine the result.
    """

    experiment: str
    key: str
    func: str
    params: dict[str, Any]

    def resolve(self) -> Callable[..., Any]:
        """Import and return the point function."""
        module_name, _, attr = self.func.partition(":")
        if not attr:
            raise ConfigurationError(
                f"sweep point function {self.func!r} must be 'module:function'"
            )
        return getattr(import_module(module_name), attr)

    def execute(self) -> Any:
        """Run the point in this process and return its raw result."""
        return self.resolve()(**self.params)


@dataclass(frozen=True)
class Claim:
    """One checkable statement of the paper, stated over an experiment's
    results.

    Attributes
    ----------
    name:
        The statement, in words (``conventional flat near 1000
        misses/msg``).
    cites:
        The paper section or figure it states (``§4, Fig. 5``).
    holds:
        ``holds(points, results) -> bool`` over the same inputs as
        :attr:`SweepSpec.quantities`; true when the results bear the
        statement out.
    """

    name: str
    cites: str
    holds: Callable[[list[SweepPoint], dict[str, Any]], bool]


@dataclass(frozen=True)
class SweepSpec:
    """Everything the harness needs to know about one experiment.

    Attributes
    ----------
    name:
        CLI name of the experiment.
    points:
        ``points(scale) -> list[SweepPoint]`` — the declarative sweep.
    quantities:
        ``quantities(points, results) -> dict[str, float]`` — named
        scalars extracted from a completed run's results (keyed by
        point key).  The goldens record them as a report, so a moved
        digest also shows which quantities moved; they gate nothing.
    claims:
        The paper's statements about this experiment, each checked by
        ``regress`` at every scale.
    assemble:
        Optional ``assemble(points, results) -> object`` rebuilding the
        experiment's rich result (with ``render()``) from point results.
    """

    name: str
    points: Callable[[str], list[SweepPoint]]
    quantities: Callable[[list[SweepPoint], dict[str, Any]], dict[str, float]]
    claims: tuple[Claim, ...] = ()
    assemble: Callable[[list[SweepPoint], dict[str, Any]], Any] | None = None

    def points_for(self, scale: str) -> list[SweepPoint]:
        """Build the sweep points for one scale, checking key uniqueness."""
        if scale not in SCALES:
            raise ConfigurationError(
                f"unknown scale {scale!r}; expected one of {SCALES}"
            )
        built = self.points(scale)
        if not built:
            raise ConfigurationError(f"experiment {self.name!r} declared no points")
        seen: set[str] = set()
        for point in built:
            if point.key in seen:
                raise ConfigurationError(
                    f"experiment {self.name!r} declares duplicate point "
                    f"key {point.key!r}"
                )
            seen.add(point.key)
        return built


def point_accepts_engine(point: SweepPoint) -> bool:
    """Whether a point's function takes the ``engine`` keyword.

    Simulation-backed points (``poisson_point``, ``fault_point``, …)
    declare it; analytic points (tables, figure 1) do not and must be
    left untouched by :func:`with_engine`.
    """
    return "engine" in inspect.signature(point.resolve()).parameters


def with_engine(spec: SweepSpec, engine: str) -> SweepSpec:
    """A copy of ``spec`` with every sim point pinned to one engine.

    Points whose functions accept an ``engine`` keyword get it injected
    into their params — which also namespaces their result-cache keys
    per engine (params are part of the content hash), so the per-engine
    CI regress gates never share cache entries.  Points without the
    keyword pass through unchanged.
    """
    def pinned_points(scale: str) -> list[SweepPoint]:
        return [
            replace(point, params={**point.params, "engine": engine})
            if point_accepts_engine(point)
            else point
            for point in spec.points(scale)
        ]

    return replace(spec, points=pinned_points)
