"""Fleet-scale gossip sweep — session framing and collection batching.

The ``gossip`` experiment drives Zipf-skewed peer fleets
(:mod:`repro.gossip`) through the flow-charged stack, sweeping framing
mode x collection batch size x scheduler x drop policy.  It tells the
wire-protocol story the Dispersy document tells and the paper predicts:

* **sessions shrink headers** — session framing's header-bytes per
  logical message is strictly below sessionless at *every* collection
  size (a claim);
* **collections amortize framing** — header-bytes/msg falls
  monotonically as the collection batch size grows, for both framing
  modes (a claim; this is LDLP's amortization argument applied to wire
  bytes instead of I-cache lines);
* **peer skew keeps lookups cached** — lookup-misses per completed
  datagram per point (a reported quantity), with mixed tagged/untagged
  batches charged through the untagged-walk accounting;
* **conservation** — every run raises if
  ``offered != completed + dropped``.

Every sweep point is the pure module-level
:func:`repro.gossip.runner.gossip_point`; both engines charge lookups
at the same point of the service step, so the CI dual-engine passes
share byte-identical results.  The HARN004 analysis rule pins that
every framing mode registered in :data:`repro.gossip.wire.FRAMING_MODES`
appears in this sweep at every scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise
from typing import Any

from ..gossip.runner import GossipRunResult
from ..harness.points import Claim, SweepPoint, SweepSpec
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

    def session_savings_ok(self) -> bool:
        """Session framing beats sessionless at every collection size.

        For every (collection size, scheduler, policy) where both
        framings ran, session framing's header-bytes per logical message
        must be strictly below sessionless — the whole point of
        negotiating a session is deleting the version and community
        fields from every subsequent header — and every swept size must
        have such a pair.
        """
        sessionless = {
            (row.collection_size, row.scheduler, row.policy):
                row.result.header_bytes_per_message
            for row in self.rows
            if row.framing == "sessionless"
        }
        pairs = [
            (key[0], row.result.header_bytes_per_message, sessionless[key])
            for row in self.rows
            if row.framing == "session"
            and (key := (row.collection_size, row.scheduler, row.policy)) in sessionless
        ]
        return {size for size, _, _ in pairs} == {
            row.collection_size for row in self.rows
        } and all(session < base - _EPSILON for _, session, base in pairs)

    def header_amortization_ok(self) -> bool:
        """Header-bytes/msg falls as the collection batch grows, for
        every framing."""
        curves: dict[str, dict[int, float]] = {}
        for row in self.rows:
            # Header accounting is a pure function of the fleet spec, so
            # every (scheduler, policy) at one size agrees.
            curves.setdefault(row.framing, {})[row.collection_size] = (
                row.result.header_bytes_per_message
            )
        return all(
            earlier > later + _EPSILON
            for curve in curves.values()
            for (_, earlier), (_, later) in pairwise(sorted(curve.items()))
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
    """The gossip curves: per combination, header-bytes/msg,
    wire-bytes/msg and lookup-misses per completed datagram."""
    quantities: dict[str, float] = {}
    for row in assemble(points, results).rows:
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
    return quantities


SWEEP = SweepSpec(
    name="gossip",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    claims=(
        Claim("session framing carries fewer header bytes per message than "
              "sessionless at every collection size",
              "Dispersy wire protocol 2.0",
              lambda p, r: assemble(p, r).session_savings_ok()),
        Claim("header bytes per message fall as collections grow, both framings",
              "§4, applied to wire bytes",
              lambda p, r: assemble(p, r).header_amortization_ok()),
    ),
)
