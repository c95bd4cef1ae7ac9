"""The golden regression gate.

Each experiment's checked-in JSON file under ``goldens/`` pins the
SHA-256 of every sweep point's canonical-JSON result (exactly: results
are seeded and identical across engines and hash salts) and reports its
named quantities (Figure 5's miss-count levels, Table 1's working-set
totals, ...) as plain ``{name: value}``.  ``ldlp-experiment regress``
recomputes the results, via the cache, and fails on any digest that
differs, listing every quantity that moved so the failure says why, or
on any of the spec's paper claims that does not hold.  Quantities never
fail the gate on their own.  ``--bless`` rewrites the goldens from the
current run, which is only done to fix a proven bug.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy

from ..errors import ConfigurationError
from ..version import __version__
from .cache import canonical_json
from .points import SweepPoint, SweepSpec

#: Default goldens directory (relative to the working directory).
DEFAULT_GOLDENS_DIR = "goldens"


def golden_path(root: str | Path, name: str, scale: str) -> Path:
    """Location of one experiment's golden file at one scale."""
    return Path(root) / f"{name}.{scale}.json"


@dataclass(frozen=True)
class Golden:
    """One experiment's golden file at one scale."""

    quantities: dict[str, float]  # report only: never gated
    digests: dict[str, str]  # point key -> result digest
    numpy: str  # numpy version the digests were recorded under


def result_digests(results: dict[str, Any]) -> dict[str, str]:
    """{point key: SHA-256 of the point result's canonical JSON}."""
    return {
        key: hashlib.sha256(canonical_json(result).encode("utf-8")).hexdigest()
        for key, result in results.items()
    }


def bless(
    spec: SweepSpec,
    scale: str,
    quantities: dict[str, float],
    results: dict[str, Any],
    root: str | Path = DEFAULT_GOLDENS_DIR,
) -> Path:
    """Write (or rewrite) an experiment's golden file from a run."""
    path = golden_path(root, spec.name, scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": spec.name,
        "scale": scale,
        "blessed_version": __version__,
        "numpy": numpy.__version__,
        "digests": result_digests(results),
        "quantities": dict(sorted(quantities.items())),
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def load_golden(
    name: str, scale: str, root: str | Path = DEFAULT_GOLDENS_DIR
) -> Golden:
    """Load one golden file.

    A missing or malformed file raises :class:`ConfigurationError`
    naming its path, so ``regress`` reports it as one failed experiment.
    """
    path = golden_path(root, name, scale)
    if not path.exists():
        raise ConfigurationError(
            f"no golden for {name!r} at scale {scale!r} ({path}); "
            f"run 'ldlp-experiment regress {name} --scale {scale} --bless'"
        )
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        quantities, digests, numpy_version = (
            data["quantities"], data["digests"], data["numpy"]
        )
        if not isinstance(quantities, dict) or not all(
            type(value) in (int, float) for value in quantities.values()
        ):
            raise TypeError("quantities must map names to numbers")
        if not isinstance(digests, dict) or not all(
            isinstance(text, str) for text in (*digests.values(), numpy_version)
        ):
            raise TypeError("digests and the numpy version must be strings")
        return Golden(
            {name: float(value) for name, value in quantities.items()},
            digests,
            numpy_version,
        )
    except (
        OSError, ValueError, TypeError, KeyError, AttributeError,
        OverflowError, RecursionError,
    ) as exc:
        raise ConfigurationError(
            f"malformed golden {path}: {type(exc).__name__}: {exc}"
        ) from exc


def check_claims(
    spec: SweepSpec, points: list[SweepPoint], results: dict[str, Any]
) -> list[str]:
    """One line per paper claim of ``spec`` the results do not bear out,
    naming the claim and the section it cites."""
    return [
        f"{spec.name}: claim '{claim.name}' ({claim.cites}) does not hold"
        for claim in spec.claims
        if not claim.holds(points, results)
    ]


def quantity_changes(
    experiment: str, golden: dict[str, float], got: dict[str, float]
) -> list[str]:
    """``experiment.quantity: old → new`` for every quantity that moved,
    appeared or vanished; shown beside a digest failure to say why."""
    def show(values: dict[str, float], name: str) -> str:
        return repr(float(values[name])) if name in values else "absent"

    return [
        f"{experiment}.{name}: {show(golden, name)} → {show(got, name)}"
        for name in sorted(set(golden) | set(got))
        if golden.get(name) != got.get(name)
    ]


def check_digests(
    experiment: str, golden: Golden, results: dict[str, Any]
) -> list[str]:
    """One line per point whose digest differs, is missing or is extra,
    plus one naming both numpy versions if those differ too."""
    got = result_digests(results)
    problems = [
        f"{experiment}/{key}: result digest {got[key][:12]} != golden {want[:12]}"
        if key in got
        else f"{experiment}/{key}: golden digest but no such point in this run"
        for key, want in golden.digests.items()
        if got.get(key) != want
    ]
    problems += [
        f"{experiment}/{key}: point has no golden digest"
        for key in got
        if key not in golden.digests
    ]
    if problems and golden.numpy != numpy.__version__:
        problems.append(
            f"digests were blessed under numpy {golden.numpy}, "
            f"this run uses numpy {numpy.__version__}"
        )
    return problems
