"""Experiment T2 — Table 2: the phases of the receive & acknowledge path.

Table 2 is prose, not numbers: it narrates what happens in each trace
phase.  This harness regenerates its content from the model — the phase
script, the functions that actually executed in the generated trace,
and the call relationships — so the narrative is checked against the
code rather than retyped.
"""

from __future__ import annotations

from typing import Any

from ..harness.points import Claim, SweepPoint, SweepSpec
from ..netbsd.functions import fn_to_layer_map
from ..netbsd.receive_path import PHASES, ReceivePathModel
from ..trace.buffer import TraceBuffer

#: The events Table 2's narrative requires of each phase: function
#: pairs (caller precedes callee in the phase's execution order).
NARRATIVE_ORDERINGS: dict[str, list[tuple[str, str]]] = {
    "entry": [
        ("syscall", "soreceive"),   # "call is dispatched to the socket layer"
        ("soreceive", "sbwait"),    # "no data is available ... process sleeps"
        ("sbwait", "tsleep"),
    ],
    "pkt intr": [
        ("leintr", "ether_input"),  # "message arrives on Ethernet"
        ("ether_input", "ipintr"),  # "vectored through the IP layer"
        ("ipintr", "tcp_input"),    # "and then to TCP"
        ("tcp_input", "in_cksum"),  # "computes the checksum"
        ("tcp_input", "sbappend"),  # "delivers the contents to the socket"
        ("sbappend", "sowakeup"),   # "wakes up the sleeping process"
    ],
    "exit": [
        ("soreceive", "uiomove"),   # "copies it into the process's space"
        ("uiomove", "tcp_output"),  # "calls the TCP layer to send an ACK"
        ("tcp_output", "ip_output"),
        ("ip_output", "ether_output"),
    ],
}


#: Table 2's prose per phase, printed above the functions that ran.
SUMMARIES = {
    "entry": (
        "Process makes read system call; call is dispatched to the "
        "socket layer; no data is available, so the process sleeps."
    ),
    "pkt intr": (
        "Message arrives on Ethernet and triggers a device "
        "interrupt; an mbuf is allocated and filled; the message is "
        "vectored through IP (host-addressed, not a fragment) to "
        "TCP's fastpath (single-entry PCB cache hits); checksum, "
        "PCB update, socket-buffer append, and wakeup."
    ),
    "exit": (
        "The process wakes, the socket layer copies the data to "
        "user space, TCP sends an ACK, and the system call returns."
    ),
}


def phase_functions(trace: TraceBuffer, phase: str) -> list[str]:
    """Functions executing in a phase, in first-execution order."""
    seen: dict[str, None] = {}
    for ref in trace.refs_in_phase(phase):
        if ref.is_code() and ref.fn:
            seen.setdefault(ref.fn)
    return list(seen)


def narrative_holds(trace: TraceBuffer) -> bool:
    """Every Table-2 ordering appears in the trace."""
    for phase, orderings in NARRATIVE_ORDERINGS.items():
        functions = phase_functions(trace, phase)
        positions = {name: index for index, name in enumerate(functions)}
        for before, after in orderings:
            if before not in positions or after not in positions:
                return False
            if positions[before] > positions[after]:
                return False
    return True


def compute_point(seed: int) -> dict:
    """Table 2's checkable content: does the generated trace realize
    every narrated ordering, and how many functions run per phase."""
    trace = ReceivePathModel(seed=seed).build_trace()
    return {
        "narrative_holds": narrative_holds(trace),
        "phase_function_counts": {
            phase: len(phase_functions(trace, phase)) for phase in PHASES
        },
    }


def sweep_points(scale: str) -> list[SweepPoint]:
    """One point: the trace is deterministic and single-seed at every
    scale."""
    del scale
    return [
        SweepPoint(
            experiment="table2",
            key="seed=0",
            func="repro.experiments.table2:compute_point",
            params={"seed": 0},
        )
    ]


def render(points: list[SweepPoint], results: dict[str, Any]) -> str:
    """Each phase's narrative and the functions it executes.

    The function lists are not in the point result, so the trace is
    rebuilt from the point's own ``seed``.
    """
    point = points[0]
    trace = ReceivePathModel(seed=point.params["seed"]).build_trace()
    layer_of = fn_to_layer_map()
    lines = ["Table 2: phases of the TCP receive & acknowledge path", ""]
    for phase in PHASES:
        lines.append(f"{phase}:")
        lines.append(f"  {SUMMARIES[phase]}")
        functions = phase_functions(trace, phase)
        annotated = ", ".join(
            f"{name} [{layer_of.get(name, '?')}]" for name in functions[:14]
        )
        more = f" (+{len(functions) - 14} more)" if len(functions) > 14 else ""
        lines.append(f"  executes: {annotated}{more}")
        lines.append("")
    lines.append(f"narrative orderings hold: {results[point.key]['narrative_holds']}")
    return "\n".join(lines)


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    """The number of functions each phase executes."""
    data = results[points[0].key]
    quantities = {}
    for phase, count in data["phase_function_counts"].items():
        quantities[f"functions_{phase.replace(' ', '_')}"] = float(count)
    return quantities


SWEEP = SweepSpec(
    name="table2",
    points=sweep_points,
    quantities=golden_quantities,
    render=render,
    claims=(
        Claim("the receive-path trace runs every function ordering the phase "
              "narrative states", "Table 2",
              lambda points, results: results[points[0].key]["narrative_holds"]),
    ),
)
