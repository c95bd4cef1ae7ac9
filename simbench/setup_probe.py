"""Time a fresh interpreter from its first statement to "first run ready".

Usage: ``python3 simbench/setup_probe.py MODULE:FUNCTION``.  Imports the
sweep point's module (and with it numpy, networkx and the simulator),
builds the first scheduler, and prints the elapsed seconds.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.harness.points import SweepPoint  # noqa: E402
from repro.sim.runner import SimulationConfig, build_scheduler  # noqa: E402

SweepPoint("setup", "probe", sys.argv[1], {}).resolve()
build_scheduler(SimulationConfig(), 0)
print(time.perf_counter() - START)
