"""The benchmark's four workloads: fixed lists of harness sweep points.

Each workload is a *pass*: one :class:`~repro.harness.points.SweepPoint`
per configuration, without seeds.  The suite runs the pass once per run
seed (``--seed S`` gives run seeds ``S, S+1, ...``), each point with a
single seed, so every run is one point x one seed.  Passes are short
(about 1-3 s here) so a time-bounded invocation always measures the
same mix of configurations.

Why these four:

* ``poisson`` - the paper's Figure 5/6 path on the default vec engine,
  one message size.  Step-template replay dominates; rates run from
  idle (batches of one) to past conventional saturation (drops at the
  500-deep queue).
* ``bellcore`` - the same vec layer used differently: the bursty
  self-similar trace mixes Ethernet frame sizes, so there are many
  distinct batch compositions and template *compilation* and trace
  synthesis dominate.
* ``lookup`` - flow-charged runs (``flows`` and ``gossip`` points).
  The vec engine declines flow-lookup bindings, so the scalar
  per-(layer, message) path dominates: cache probes, binding charges,
  CPU accounting, plus flow lookups with tagged and untagged messages.
* ``multicore`` - the third, scalar-only drive loop: the dispatch
  stage and the per-core event merge.

Drive-loop unification and vec-for-flows/multi-core land in ``lookup``
and ``multicore``; ``poisson`` and ``bellcore`` are their no-change
controls, and the reverse holds for vec-only changes.
"""

from __future__ import annotations

from repro.harness.points import SweepPoint

#: Workloads whose points take an ``engine`` argument; every 8th run is
#: replayed untimed on the scalar reference engine and must match.
REPLAYED = ("poisson", "bellcore")


def _point(workload: str, key: str, func: str, **params) -> SweepPoint:
    return SweepPoint(experiment=workload, key=key, func=func, params=params)


def _poisson() -> list[SweepPoint]:
    return [
        _point(
            "poisson", f"{scheduler}/rate={rate}", "repro.sim.runner:poisson_point",
            scheduler=scheduler, rate=float(rate), duration=0.2, message_size=552,
        )
        for scheduler in ("conventional", "ilp", "ldlp", "grouped")
        for rate in (2000, 6000, 9000, 12000)
    ]


def _bellcore() -> list[SweepPoint]:
    return [
        _point(
            "bellcore", f"{scheduler}/clock={clock}MHz",
            "repro.experiments.figure7:clock_point",
            scheduler=scheduler, clock_mhz=clock, duration=0.3, mean_rate=1200.0,
        )
        for scheduler in ("conventional", "ldlp")
        for clock in (10, 20, 40, 80)
    ]


def _lookup() -> list[SweepPoint]:
    points = []
    for scheduler in ("conventional", "ldlp"):
        points += [
            _point(
                "lookup", f"flows/{scheduler}/{organization}/{base}",
                "repro.flows.runner:flows_point",
                scheduler=scheduler, organization=organization, entries=16,
                skew=1.1, rate=11000.0, duration=0.05, num_flows=64, base=base,
            )
            for organization in ("direct", "lru4", "fifo4")
            for base in ("poisson", "bellcore")
        ]
        points += [
            _point(
                "lookup", f"gossip/{scheduler}/{framing}/k={size}",
                "repro.gossip.runner:gossip_point",
                framing=framing, collection_size=size, scheduler=scheduler,
                policy="tail", rate=12000.0, duration=0.05,
            )
            for framing in ("session", "sessionless")
            for size in (1, 8)
        ]
    return points


def _multicore() -> list[SweepPoint]:
    return [
        _point(
            "multicore", f"{scheduler}/{dispatch}/cores={cores}",
            "repro.sim.multicore:multicore_point",
            scheduler=scheduler, dispatch=dispatch, cores=cores, rate=12000.0,
            duration=0.05,
        )
        for scheduler in ("conventional", "ldlp")
        for dispatch in ("rss", "app", "ldlp")
        for cores in (2, 4)
    ]


#: Workload name -> its pass (points without seeds), in run order.
WORKLOADS: dict[str, list[SweepPoint]] = {
    "poisson": _poisson(),
    "bellcore": _bellcore(),
    "lookup": _lookup(),
    "multicore": _multicore(),
}
