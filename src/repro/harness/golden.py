"""The golden-figure regression gate.

Each experiment's paper-expected quantities (Figure 5's miss-count
levels, Table 1's working-set totals, Figure 8's ~900-byte checksum
crossover, ...) are pinned with tolerances in checked-in JSON files
under ``goldens/``; ``ldlp-experiment regress`` recomputes them (via
the cache, so unchanged code costs nothing) and fails when any quantity
drifts out of tolerance.  ``--bless`` rewrites the goldens from the
current run after an intentional model change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import ConfigurationError
from ..version import __version__
from .points import SweepSpec, Tolerance

#: Default goldens directory (relative to the working directory).
DEFAULT_GOLDENS_DIR = "goldens"


def golden_path(root: str | Path, name: str, scale: str) -> Path:
    """Location of one experiment's golden file at one scale."""
    return Path(root) / f"{name}.{scale}.json"


@dataclass(frozen=True)
class GoldenBreach:
    """One quantity outside its golden tolerance."""

    experiment: str
    quantity: str
    want: float
    got: float
    tolerance: Tolerance

    def describe(self) -> str:
        """One gate-failure line naming the quantity and its drift."""
        return (
            f"{self.experiment}.{self.quantity}: got {self.got:g}, "
            f"golden {self.want:g} "
            f"(tol rel={self.tolerance.rel:g} abs={self.tolerance.abs:g})"
        )


def bless(
    spec: SweepSpec,
    scale: str,
    quantities: dict[str, float],
    root: str | Path = DEFAULT_GOLDENS_DIR,
) -> Path:
    """Write (or rewrite) an experiment's golden file from a run."""
    path = golden_path(root, spec.name, scale)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "experiment": spec.name,
        "scale": scale,
        "blessed_version": __version__,
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
) -> dict[str, tuple[float, Tolerance]]:
    """Load one golden file as {quantity: (value, tolerance)}.

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
        return {
            quantity: (
                float(entry["value"]),
                Tolerance(rel=float(entry["rel"]), abs=float(entry["abs"])),
            )
            for quantity, entry in data["quantities"].items()
        }
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
) -> list[GoldenBreach]:
    """Compare reproduced quantities against a golden; return breaches.

    A quantity present in the golden but missing from the run (or vice
    versa) is itself a breach: renames must be blessed deliberately.
    """
    breaches: list[GoldenBreach] = []
    for quantity, (want, tolerance) in golden.items():
        if quantity not in got:
            breaches.append(
                GoldenBreach(experiment, quantity, want, float("nan"), tolerance)
            )
            continue
        value = got[quantity]
        if not tolerance.allows(want, value):
            breaches.append(
                GoldenBreach(experiment, quantity, want, value, tolerance)
            )
    for quantity in sorted(set(got) - set(golden)):
        breaches.append(
            GoldenBreach(experiment, quantity, float("nan"), got[quantity], Tolerance())
        )
    return breaches
