"""The introduction's arithmetic: setup time across a switch chain.

Section 1: "If ATM switches are deployed like IP routers, then a
cross-country connection might pass through 10 to 20 switches.  Several
current signalling implementations spend 5 to 20 milliseconds
processing each message: this could add a large fraction of a second to
the connection setup time across a large network... Our performance
goal is to support 10000 pairs of setup/teardown requests per second
with processing latency of 100 microseconds for setup requests."

This harness measures per-switch SETUP processing latency on the
simulated machine (mini-Q.93B switch under load, conventional vs LDLP)
and composes it across an N-switch path: a SETUP traverses every hop in
sequence, so end-to-end setup time ≈ Σ per-hop (queueing + processing)
+ propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.batching import BatchPolicy
from ..harness.points import Claim, SweepPoint, SweepSpec
from ..core.binding import MachineBinding
from ..core.layer import Message
from ..core.scheduler import ConventionalScheduler, LDLPScheduler
from ..sim.runner import drive
from ..signalling.q93b import release, setup
from ..signalling.switch import build_switch, saal_frame
from ..units import format_duration
from .report import render_table

#: Cross-country speed-of-light propagation (one way, in fibre).
CROSS_COUNTRY_PROPAGATION = 0.020

#: Switch-chain lengths the end-to-end table composes.
HOPS = (1, 5, 10, 20)


def per_hop_latency(
    scheduler_name: str,
    pair_rate: float,
    duration: float = 0.3,
    seed: int = 5,
) -> float:
    """Mean per-message latency of one switch at a given load."""
    rng = np.random.default_rng(seed)
    switch = build_switch()
    binding = MachineBinding(rng=seed, buffer_size=512)
    if scheduler_name == "ldlp":
        scheduler = LDLPScheduler(
            switch.layers,
            binding,
            batch_policy=BatchPolicy.from_cache(
                binding.spec.dcache.size,
                typical_message_bytes=128,
                layer_data_reserve=1024,
            ),
        )
    else:
        scheduler = ConventionalScheduler(switch.layers, binding)
    requests = []
    time = 0.0
    call_ref = 1
    while True:
        time += rng.exponential(1.0 / pair_rate)
        if time >= duration:
            break
        requests.append((time, setup(call_ref, f"dest-{call_ref % 57}")))
        requests.append((time + 200e-6, release(call_ref)))
        call_ref += 1
    requests.sort(key=lambda pair: pair[0])
    # Sequence after sorting: SAAL expects in-order sequence numbers.
    arrivals = [
        (when, Message(payload=saal_frame(wire.serialize(), sequence)))
        for sequence, (when, wire) in enumerate(requests)
    ]
    outcome = drive(scheduler, arrivals)
    summary = outcome.latency.summary()
    return summary.mean if summary.count else float("inf")


@dataclass(frozen=True)
class MotivationResult:
    """End-to-end setup time across hop counts and load levels."""

    pair_rate: float
    hops: tuple[int, ...]
    conventional_per_hop: float
    ldlp_per_hop: float

    def end_to_end(self, per_hop: float, hops: int) -> float:
        return hops * per_hop + CROSS_COUNTRY_PROPAGATION

    def render(self) -> str:
        rows = []
        for hops in self.hops:
            rows.append(
                [
                    hops,
                    format_duration(
                        self.end_to_end(self.conventional_per_hop, hops)
                    ),
                    format_duration(self.end_to_end(self.ldlp_per_hop, hops)),
                ]
            )
        table = render_table(
            ["hops", "conventional e2e", "LDLP e2e"],
            rows,
            title=(
                f"Cross-network connection setup at {self.pair_rate:.0f} "
                f"setup/teardown pairs/s per switch (incl. 20 ms propagation)"
            ),
        )
        return (
            table
            + f"\nper-hop processing: conventional "
            f"{format_duration(self.conventional_per_hop)}, LDLP "
            f"{format_duration(self.ldlp_per_hop)} "
            f"(paper's goal: ~100 us at 10000 pairs/s)"
        )


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)


def compute_point(
    scheduler: str, pair_rate: float, duration: float, seed: int
) -> dict:
    """Per-hop SETUP latency of one switch under one scheduler."""
    return {
        "per_hop_latency_s": per_hop_latency(scheduler, pair_rate, duration, seed)
    }


#: (pair rate, duration, seed) per harness scale.
SWEEP_SCALES: dict[str, tuple[float, float, int]] = {
    "ci": (10_000.0, 0.15, 5),
    "default": (10_000.0, 0.3, 5),
    "paper": (10_000.0, 1.0, 5),
}


def sweep_points(scale: str) -> list[SweepPoint]:
    pair_rate, duration, seed = SWEEP_SCALES[scale]
    return [
        SweepPoint(
            experiment="motivation",
            key=scheduler,
            func="repro.experiments.motivation:compute_point",
            params={
                "scheduler": scheduler,
                "pair_rate": pair_rate,
                "duration": duration,
                "seed": seed,
            },
        )
        for scheduler in ("conventional", "ldlp")
    ]


def assemble(points: list[SweepPoint], results: dict[str, Any]) -> MotivationResult:
    """Compose both schedulers' per-hop latencies across :data:`HOPS`."""
    return MotivationResult(
        pair_rate=points[0].params["pair_rate"],
        hops=HOPS,
        conventional_per_hop=results["conventional"]["per_hop_latency_s"],
        ldlp_per_hop=results["ldlp"]["per_hop_latency_s"],
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Section 1's arithmetic: per-hop processing latency per scheduler."""
    conv = results["conventional"]["per_hop_latency_s"]
    ldlp = results["ldlp"]["per_hop_latency_s"]
    return {
        "conventional_per_hop_ms": 1e3 * conv,
        "ldlp_per_hop_ms": 1e3 * ldlp,
    }


def _twenty_hop_setup(points, results) -> bool:
    result = assemble(points, results)
    return (
        result.end_to_end(result.conventional_per_hop, 20) > 0.3
        and result.end_to_end(result.ldlp_per_hop, 20) < 0.1
    )


SWEEP = SweepSpec(
    name="motivation",
    points=sweep_points,
    quantities=golden_quantities,
    assemble=assemble,
    claims=(
        Claim("LDLP meets the setup-processing goal at 10000 pairs/s: per-hop "
              "latency under 1 ms", "§1",
              lambda points, results: results["ldlp"]["per_hop_latency_s"] < 1e-3),
        Claim("across 20 switches conventional setup adds a large fraction of a "
              "second (> 0.3 s); LDLP stays under 0.1 s", "§1", _twenty_hop_setup),
    ),
)
