"""Fleet-scale gossip sweep — session framing and collection batching.

The ``gossip`` experiment drives Zipf-skewed peer fleets
(:mod:`repro.gossip`) through the flow-charged stack, sweeping framing
mode x collection batch size x scheduler x drop policy.  It pins the
wire-protocol story the Dispersy document tells and the paper predicts:

* **sessions shrink headers** — session framing's header-bytes per
  logical message is strictly below sessionless at *every* collection
  size (exact 1.0 boolean per collection size, plus the raw per-point
  header-bytes/msg under tolerance);
* **collections amortize framing** — header-bytes/msg falls
  monotonically as the collection batch size grows, for both framing
  modes (exact 1.0 per framing; this is LDLP's amortization argument
  applied to wire bytes instead of I-cache lines);
* **peer skew keeps lookups cached** — lookup-misses per completed
  datagram per point (tolerance-gated), with mixed tagged/untagged
  batches charged through the untagged-walk accounting;
* **conservation** — every run raises if
  ``offered != completed + dropped``, so the pinned count is always 0.

Every sweep point is the pure module-level
:func:`repro.gossip.runner.gossip_point`; both engines charge lookups
at the same point of the service step, so the CI dual-engine passes
share byte-identical results.  The HARN004 analysis rule pins that
every framing mode registered in :data:`repro.gossip.wire.FRAMING_MODES`
appears in this sweep at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..gossip.runner import GossipRunResult
from ..harness.points import SweepPoint, SweepSpec, Tolerance
from .report import render_table

#: Slack for cross-point comparisons of exact-counter ratios.
_EPSILON = 1e-9


@dataclass(frozen=True)
class GossipRow:
    """One (framing, collection size, scheduler, drop policy) combination."""

    framing: str
    collection_size: int
    scheduler: str
    policy: str
    result: GossipRunResult


@dataclass(frozen=True)
class GossipSweepResult:
    """The assembled gossip sweep: one row per combination."""

    rows: tuple[GossipRow, ...]

    def session_savings_ok(self, collection_size: int) -> bool:
        """Session framing beats sessionless at one collection size.

        For every (scheduler, policy) pair where both framings ran at
        this collection size, session framing's header-bytes per
        logical message must be strictly below sessionless — the whole
        point of negotiating a session is deleting the version and
        community fields from every subsequent header.
        """
        sessionless: dict[tuple[str, str], float] = {}
        for row in self.rows:
            if row.collection_size != collection_size:
                continue
            if row.framing == "sessionless":
                sessionless[(row.scheduler, row.policy)] = (
                    row.result.header_bytes_per_message
                )
        compared = 0
        for row in self.rows:
            if row.collection_size != collection_size:
                continue
            if row.framing != "session":
                continue
            base = sessionless.get((row.scheduler, row.policy))
            if base is None:
                continue
            compared += 1
            if row.result.header_bytes_per_message >= base - _EPSILON:
                return False
        return compared > 0

    def header_curve(self, framing: str) -> list[tuple[int, float]]:
        """(collection size, header-bytes/msg) pairs for one framing."""
        curve: dict[int, float] = {}
        for row in self.rows:
            if row.framing == framing:
                # Header accounting is a pure function of the fleet
                # spec, so every (scheduler, policy) at one size agrees.
                curve[row.collection_size] = (
                    row.result.header_bytes_per_message
                )
        return sorted(curve.items())

    def header_amortization_ok(self, framing: str) -> bool:
        """Header-bytes/msg falls as the collection batch grows."""
        curve = self.header_curve(framing)
        return all(
            earlier > later + _EPSILON
            for (_, earlier), (_, later) in zip(curve, curve[1:])
        )

    def render(self) -> str:
        """The gossip-sweep table (headers, lookups, batch size)."""
        table_rows = []
        for row in self.rows:
            result = row.result
            run = result.run
            table_rows.append(
                [
                    row.framing,
                    row.collection_size,
                    row.scheduler,
                    row.policy,
                    run.completed,
                    f"{result.header_bytes_per_message:.1f}",
                    f"{result.wire_bytes_per_message:.1f}",
                    f"{result.lookup_misses_per_message:.3f}",
                    result.untagged,
                    f"{run.mean_batch_size:.1f}",
                ]
            )
        return render_table(
            [
                "framing",
                "k",
                "scheduler",
                "policy",
                "done",
                "hdrB/msg",
                "wireB/msg",
                "miss/msg",
                "untagged",
                "batch",
            ],
            table_rows,
            title=(
                "Gossip fleet sweep: framing mode x collection size x "
                "scheduler x drop policy"
            ),
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

#: (framings, collection sizes, schedulers, drop policies, seeds,
#: duration, num_peers) per harness scale.  Both registered framing
#: modes appear at every scale — HARN004 gates that this stays true.
SWEEP_SCALES: dict[
    str,
    tuple[
        tuple[str, ...],
        tuple[int, ...],
        tuple[str, ...],
        tuple[str, ...],
        tuple[int, ...],
        float,
        int,
    ],
] = {
    "ci": (
        ("session", "sessionless"),
        (1, 8),
        ("conventional", "ldlp"),
        ("tail",),
        (0, 1),
        0.05,
        2_000,
    ),
    "default": (
        ("session", "sessionless"),
        (1, 4, 16),
        ("conventional", "ilp", "ldlp", "grouped"),
        ("tail", "head"),
        (0, 1, 2),
        0.1,
        50_000,
    ),
    "paper": (
        ("session", "sessionless"),
        (1, 2, 4, 8, 16, 32),
        ("conventional", "ilp", "ldlp", "grouped"),
        ("tail", "head", "adaptive"),
        (0, 1, 2, 3, 4),
        0.3,
        1_000_000,
    ),
}

#: Datagram arrival rate (datagrams/s): above the conventional
#: scheduler's capacity on collection-sized datagrams, so queues form,
#: batches are non-trivial, and drop policies engage.
SWEEP_RATE = 12000.0

#: Zipf skew of peer popularity (Jain-style destination locality).
SWEEP_PEER_SKEW = 1.1

#: Communities the fleet's peers are partitioned into.
SWEEP_NUM_COMMUNITIES = 4


def sweep_points(scale: str) -> list[SweepPoint]:
    """Framing x collection size x scheduler x drop policy at fixed load."""
    framings, sizes, schedulers, policies, seeds, duration, num_peers = (
        SWEEP_SCALES[scale]
    )
    return [
        SweepPoint(
            experiment="gossip",
            key=(
                f"{framing}/k={size}/{scheduler}/{policy}"
            ),
            func="repro.gossip.runner:gossip_point",
            params={
                "framing": framing,
                "collection_size": size,
                "scheduler": scheduler,
                "policy": policy,
                "rate": SWEEP_RATE,
                "seeds": list(seeds),
                "duration": duration,
                "num_peers": num_peers,
                "num_communities": SWEEP_NUM_COMMUNITIES,
                "peer_skew": SWEEP_PEER_SKEW,
            },
        )
        for framing in framings
        for size in sizes
        for scheduler in schedulers
        for policy in policies
    ]


def assemble(
    points: list[SweepPoint], results: dict[str, Any]
) -> GossipSweepResult:
    """Rebuild the sweep table from point results."""
    rows = []
    for point in points:
        data = results[point.key]
        rows.append(
            GossipRow(
                framing=point.params["framing"],
                collection_size=int(point.params["collection_size"]),
                scheduler=point.params["scheduler"],
                policy=point.params["policy"],
                result=GossipRunResult.from_dict(data["result"]),
            )
        )
    return GossipSweepResult(rows=tuple(rows))


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """The pinned gossip curves.

    Per combination: header-bytes/msg, wire-bytes/msg, and
    lookup-misses per completed datagram (tolerance-gated).  Per
    collection size: the exact session-savings boolean.  Per framing:
    the exact header-amortization boolean.  Sweep-wide: the conservation
    count, a constant 0 because every run enforces conservation itself.
    """
    sweep = assemble(points, results)
    quantities: dict[str, float] = {}
    sizes: list[int] = []
    framings: list[str] = []
    for row in sweep.rows:
        prefix = (
            f"{row.framing}/k={row.collection_size}/{row.scheduler}/"
            f"{row.policy}"
        )
        quantities[f"{prefix}/header_bytes_per_msg"] = (
            row.result.header_bytes_per_message
        )
        quantities[f"{prefix}/wire_bytes_per_msg"] = (
            row.result.wire_bytes_per_message
        )
        quantities[f"{prefix}/lookup_misses_per_msg"] = (
            row.result.lookup_misses_per_message
        )
        if row.collection_size not in sizes:
            sizes.append(row.collection_size)
        if row.framing not in framings:
            framings.append(row.framing)
    for size in sizes:
        quantities[f"session_savings_ok/k={size}"] = float(
            sweep.session_savings_ok(size)
        )
    for mode in framings:
        quantities[f"header_amortization_ok/{mode}"] = float(
            sweep.header_amortization_ok(mode)
        )
    quantities["conservation_violations"] = 0.0
    return quantities


def _exact_tolerances() -> dict[str, Tolerance]:
    """Exact-match tolerances for every boolean/count quantity.

    Enumerated statically over every scale's combinations so the spec
    covers whichever scale a regress run uses.
    """
    names = {"conservation_violations"}
    for framings, sizes, _, _, _, _, _ in SWEEP_SCALES.values():
        for size in sizes:
            names.add(f"session_savings_ok/k={size}")
        for mode in framings:
            names.add(f"header_amortization_ok/{mode}")
    return {name: Tolerance() for name in sorted(names)}


SWEEP = SweepSpec(
    name="gossip",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    default_tolerance=Tolerance(rel=0.4, abs=0.02),
    tolerances=_exact_tolerances(),
)
