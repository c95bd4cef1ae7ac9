"""Experiment T2 — Table 2: the phases of the receive & acknowledge path.

Table 2 is prose, not numbers: it narrates what happens in each trace
phase.  This harness regenerates its content from the model — the phase
script, the functions that actually executed in the generated trace,
and the call relationships — so the narrative is checked against the
code rather than retyped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..harness.points import SweepPoint, SweepSpec
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


@dataclass(frozen=True)
class Table2Result:
    trace: TraceBuffer
    seed: int

    def phase_functions(self, phase: str) -> list[str]:
        """Functions executing in a phase, in first-execution order."""
        seen: dict[str, None] = {}
        for ref in self.trace.refs_in_phase(phase):
            if ref.is_code() and ref.fn:
                seen.setdefault(ref.fn)
        return list(seen)

    def narrative_holds(self) -> bool:
        """Every Table-2 ordering appears in the generated trace."""
        for phase, orderings in NARRATIVE_ORDERINGS.items():
            functions = self.phase_functions(phase)
            positions = {name: index for index, name in enumerate(functions)}
            for before, after in orderings:
                if before not in positions or after not in positions:
                    return False
                if positions[before] > positions[after]:
                    return False
        return True

    def render(self) -> str:
        layer_of = fn_to_layer_map()
        lines = ["Table 2: phases of the TCP receive & acknowledge path", ""]
        summaries = {
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
        for phase in PHASES:
            lines.append(f"{phase}:")
            lines.append(f"  {summaries[phase]}")
            functions = self.phase_functions(phase)
            annotated = ", ".join(
                f"{name} [{layer_of.get(name, '?')}]" for name in functions[:14]
            )
            more = f" (+{len(functions) - 14} more)" if len(functions) > 14 else ""
            lines.append(f"  executes: {annotated}{more}")
            lines.append("")
        return "\n".join(lines)


def run(seed: int = 0) -> Table2Result:
    model = ReceivePathModel(seed=seed)
    return Table2Result(trace=model.build_trace(), seed=seed)


def main() -> None:
    result = run()
    print(result.render())
    print(f"narrative orderings hold: {result.narrative_holds()}")


# ----------------------------------------------------------------------
# Declarative sweep interface (repro.harness)


def compute_point(seed: int) -> dict:
    """Table 2's checkable content: does the generated trace realize
    every narrated ordering, and how many functions run per phase."""
    result = run(seed=seed)
    return {
        "narrative_holds": result.narrative_holds(),
        "phase_function_counts": {
            phase: len(result.phase_functions(phase)) for phase in PHASES
        },
    }


def sweep_points(scale: str) -> list[SweepPoint]:
    del scale
    return [
        SweepPoint(
            experiment="table2",
            key="seed=0",
            func="repro.experiments.table2:compute_point",
            params={"seed": 0},
        )
    ]


def golden_quantities(
    points: list[SweepPoint], results: dict[str, Any]
) -> dict[str, float]:
    data = results[points[0].key]
    quantities = {"narrative_holds": float(bool(data["narrative_holds"]))}
    for phase, count in data["phase_function_counts"].items():
        quantities[f"functions_{phase.replace(' ', '_')}"] = float(count)
    return quantities


SWEEP = SweepSpec(
    name="table2",
    points=sweep_points,
    quantities=golden_quantities,
)


if __name__ == "__main__":
    main()
