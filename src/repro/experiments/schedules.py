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
    order: list[tuple[int, int]] = []

    # Interleave the per-layer logs back into a global order by
    # re-running with instrumented deliver.
    events: list[tuple[int, int]] = []

    original_delivers = []
    for layer_index, layer in enumerate(layers):
        original = layer.deliver

        def instrumented(message, _index=layer_index, _original=original):
            events.append((_index, index_of[message.msg_id]))
            return _original(message)

        original_delivers.append(original)
        layer.deliver = instrumented  # type: ignore[method-assign]
    scheduler.run_to_completion(messages)
    order.extend(events)
    return order


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


def figure23_text(num_layers: int = 4, num_messages: int = 2) -> str:
    """The three schedules of Figures 2/3, from the real schedulers."""
    sections = []
    for title, cls, batch in (
        ("Conventional", ConventionalScheduler, None),
        ("ILP (same outer order)", ILPScheduler, None),
        ("Blocked / LDLP", LDLPScheduler, num_messages),
    ):
        order = observed_order(cls, num_layers, num_messages, batch)
        sections.append(f"{title}: " + " ".join(
            f"(L{layer},P{message})" for layer, message in order
        ))
    return "\n".join(sections)


def main() -> None:
    print("Figure 2/3: schedules produced by the implemented schedulers\n")
    print(figure23_text())
    print()
    order = observed_order(LDLPScheduler, 4, 2, batch=2)
    print(render_order(order, 4, 2))


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
)


if __name__ == "__main__":
    main()
