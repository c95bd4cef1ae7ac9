"""Figures 2 and 3 — the conceptual schedules, rendered.

The paper's Figures 2 and 3 are diagrams, not measurements: they show
the (layer, message) visit orders of conventional, ILP, and blocked
processing.  This module renders those orders from the actual scheduler
implementations, which doubles as a check that the code realizes the
figures.
"""

from __future__ import annotations

from typing import Any

from ..core.layer import CountingLayer, Message
from ..core.scheduler import (
    ConventionalScheduler,
    ILPScheduler,
    LDLPScheduler,
)
from ..core.batching import BatchPolicy
from ..harness.points import SweepPoint, SweepSpec


def observed_order(
    scheduler_cls, num_layers: int, num_messages: int, batch: int | None = None
) -> list[tuple[int, int]]:
    """Run a scheduler on counting layers; return its (layer, message)
    invocation order."""
    layers = [CountingLayer(f"L{i}") for i in range(num_layers)]
    kwargs = {}
    if batch is not None:
        kwargs["batch_policy"] = BatchPolicy(max_batch=batch)
    scheduler = scheduler_cls(layers, **kwargs)
    messages = [Message() for _ in range(num_messages)]
    index_of = {message.msg_id: i for i, message in enumerate(messages)}

    # Record the global order by instrumenting every layer's deliver.
    events: list[tuple[int, int]] = []
    for layer_index, layer in enumerate(layers):
        original = layer.deliver

        def instrumented(message, _index=layer_index, _original=original):
            """Log (layer, message) before the real deliver."""
            events.append((_index, index_of[message.msg_id]))
            return _original(message)

        layer.deliver = instrumented  # type: ignore[method-assign]
    scheduler.run_to_completion(messages)
    return events


def render_order(
    order: list[tuple[int, int]], num_layers: int, num_messages: int
) -> str:
    """Render a visit order as a Figure-3-style timeline.

    One row per step; each row shows the layer x message matrix with
    ``*`` at the active cell — the visual of the paper's Figure 3.
    """
    lines = [
        "step  " + "  ".join(f"L{i}" for i in range(num_layers)) + "   msg"
    ]
    for step, (layer, message) in enumerate(order):
        cells = "   ".join("*" if i == layer else "." for i in range(num_layers))
        lines.append(f"{step:>4}  {cells}   P{message}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)

_SCHEDULER_CLASSES = {
    "conventional": ConventionalScheduler,
    "ilp": ILPScheduler,
    "ldlp": LDLPScheduler,
}


def compute_point(scheduler: str, num_layers: int, num_messages: int) -> dict:
    """The exact (layer, message) visit order one scheduler produces."""
    batch = num_messages if scheduler == "ldlp" else None
    order = observed_order(
        _SCHEDULER_CLASSES[scheduler], num_layers, num_messages, batch
    )
    return {"order": [[layer, message] for layer, message in order]}


def sweep_points(scale: str) -> list[SweepPoint]:
    """One point per scheduler at the figures' canonical size."""
    del scale  # the conceptual figures have one canonical size
    return [
        SweepPoint(
            experiment="schedules",
            key=scheduler,
            func="repro.experiments.schedules:compute_point",
            params={"scheduler": scheduler, "num_layers": 4, "num_messages": 2},
        )
        for scheduler in _SCHEDULER_CLASSES
    ]


#: Figure 2/3 section title per scheduler point.
TITLES = {
    "conventional": "Conventional",
    "ilp": "ILP (same outer order)",
    "ldlp": "Blocked / LDLP",
}


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Every scheduler's visit order, then LDLP's as a timeline."""
    sections = "\n".join(
        f"{TITLES[point.key]}: " + " ".join(
            f"(L{layer},P{message})" for layer, message in results[point.key]["order"]
        )
        for point in points
    )
    size = points[0].params
    timeline = render_order(
        results["ldlp"]["order"], size["num_layers"], size["num_messages"]
    )
    return (
        "Figure 2/3: schedules produced by the implemented schedulers\n\n"
        f"{sections}\n\n{timeline}"
    )


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """Fingerprint each schedule's visit order so any change to a
    scheduler's visit sequence trips the gate by name."""
    import zlib

    quantities: dict[str, float] = {}
    for point in points:
        order = results[point.key]["order"]
        encoded = ";".join(f"{layer},{message}" for layer, message in order)
        quantities[f"{point.key}_order_crc"] = float(zlib.crc32(encoded.encode()))
        quantities[f"{point.key}_steps"] = float(len(order))
    return quantities


SWEEP = SweepSpec(
    name="schedules",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
)
