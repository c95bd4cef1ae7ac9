"""The golden regression gate.

Each experiment's checked-in JSON file under ``goldens/`` pins the
SHA-256 of every sweep point's canonical-JSON result (exactly: results
are seeded and identical across engines and hash salts) and its
paper-expected quantities (Figure 5's miss-count levels, Table 1's
working-set totals, ...) with tolerances.  ``ldlp-experiment regress``
recomputes both, via the cache, and fails on any digest or quantity
that differs.  ``--bless`` rewrites the goldens from the current run,
which is only done to fix a proven bug.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy

from ..errors import ConfigurationError
from ..version import __version__
from .cache import canonical_json
from .points import SweepSpec, Tolerance

#: Default goldens directory (relative to the working directory).
DEFAULT_GOLDENS_DIR = "goldens"


def golden_path(root: str | Path, name: str, scale: str) -> Path:
    """Location of one experiment's golden file at one scale."""
    return Path(root) / f"{name}.{scale}.json"


@dataclass(frozen=True)
class Golden:
    """One experiment's golden file at one scale."""

    quantities: dict[str, tuple[float, Tolerance]]
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
        "quantities": {
            name: {
                "value": value,
                "rel": spec.tolerance_for(name).rel,
                "abs": spec.tolerance_for(name).abs,
            }
            for name, value in sorted(quantities.items())
        },
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
        quantities = {
            quantity: (
                float(entry["value"]),
                Tolerance(rel=float(entry["rel"]), abs=float(entry["abs"])),
            )
            for quantity, entry in data["quantities"].items()
        }
        digests, numpy_version = data["digests"], data["numpy"]
        if not isinstance(digests, dict) or not all(
            isinstance(text, str) for text in (*digests.values(), numpy_version)
        ):
            raise TypeError("digests and the numpy version must be strings")
        return Golden(quantities, digests, numpy_version)
    except (
        OSError, ValueError, TypeError, KeyError, AttributeError,
        OverflowError, RecursionError,
    ) as exc:
        raise ConfigurationError(
            f"malformed golden {path}: {type(exc).__name__}: {exc}"
        ) from exc


def check_quantities(
    experiment: str,
    golden: dict[str, tuple[float, Tolerance]],
    got: dict[str, float],
) -> list[str]:
    """One line per quantity outside its golden tolerance.

    A quantity present in the golden but missing from the run (or vice
    versa) compares against NaN and so always fails: renames must be
    blessed deliberately.
    """
    problems = []
    for quantity in sorted(set(golden) | set(got)):
        want, tolerance = golden.get(quantity, (math.nan, Tolerance()))
        value = got.get(quantity, math.nan)
        if not tolerance.allows(want, value):
            problems.append(
                f"{experiment}.{quantity}: got {value:g}, golden {want:g} "
                f"(tol rel={tolerance.rel:g} abs={tolerance.abs:g})"
            )
    return problems


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
