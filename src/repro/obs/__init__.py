"""repro.obs — structured tracing, metrics, and miss attribution.

A zero-cost-when-disabled observability layer threaded through the
simulator's hot paths.  The pieces:

* :mod:`~repro.obs.runtime` — the :class:`Recorder` (spans, instants,
  counters), the process-global install point every instrumented site
  checks, and the :func:`recording` context manager;
* :mod:`~repro.obs.schema` — the documented event schema and payload
  validators (the contract, see ARCHITECTURE.md);
* :mod:`~repro.obs.sinks` — Chrome-trace / table / metrics sinks;
* :mod:`~repro.obs.attribution` — live per-function miss attribution
  and the Table-1-shaped live working set;
* :mod:`~repro.obs.tracing` — orchestration (traced simulator runs,
  traced receive path);
* :mod:`~repro.obs.cli` — ``ldlp-experiment trace``.

Instrumented producers: :meth:`repro.core.binding.MachineBinding.charge`
(per-layer invocation spans), :func:`repro.sim.runner.drive` (scheduler
steps, arrival/drop instants), :meth:`repro.netbsd.receive_path
.ReceivePathModel.build_trace` (phase spans), and
:class:`repro.buffers.pool.MbufPool` (allocation counters).
"""

from .attribution import (
    AUX_LAYER,
    FunctionMisses,
    MissAttribution,
    MissAttributor,
    render_live_table1,
    replay_receive_path,
)
from .runtime import (
    CounterSet,
    Instant,
    Recorder,
    Span,
    active_recorder,
    install,
    machine_counters,
    recording,
    span_recorder,
)
from .schema import validate_chrome_trace, validate_metrics
from .sinks import ChromeTraceSink, MetricsSink, TableSink
from .tracing import (
    TracedRun,
    chrome_trace_for_receive,
    chrome_trace_for_sim,
    trace_receive_path,
    trace_schedulers,
    trace_simulation,
)

__all__ = [
    "AUX_LAYER",
    "ChromeTraceSink",
    "CounterSet",
    "FunctionMisses",
    "Instant",
    "MetricsSink",
    "MissAttribution",
    "MissAttributor",
    "Recorder",
    "Span",
    "TableSink",
    "TracedRun",
    "active_recorder",
    "chrome_trace_for_receive",
    "chrome_trace_for_sim",
    "install",
    "machine_counters",
    "recording",
    "render_live_table1",
    "replay_receive_path",
    "span_recorder",
    "trace_receive_path",
    "trace_schedulers",
    "trace_simulation",
    "validate_chrome_trace",
    "validate_metrics",
]
