"""Simulation statistics and the Section-4 synthetic benchmark runner
with its one drive loop for every engine and core count (multi-core
attribution in :mod:`repro.sim.multicore`, the vectorized service step
in :mod:`repro.sim.vec`)."""

from .runner import (
    ComparisonResult,
    DriveStats,
    drive,
    ENGINE_NAMES,
    SCHEDULER_NAMES,
    SimulationConfig,
    build_paper_stack,
    compare_schedulers,
    run_averaged,
    run_simulation,
)
from .stats import (
    LatencyRecorder,
    LatencySummary,
    MissesPerMessage,
    RunResult,
    merge_results,
)

__all__ = [
    "DriveStats",
    "drive",
    "ComparisonResult",
    "ENGINE_NAMES",
    "LatencyRecorder",
    "LatencySummary",
    "MissesPerMessage",
    "RunResult",
    "SCHEDULER_NAMES",
    "SimulationConfig",
    "build_paper_stack",
    "compare_schedulers",
    "merge_results",
    "run_averaged",
    "run_simulation",
]
