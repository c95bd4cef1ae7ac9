"""Simulator-throughput benchmark for the ``repro`` package.

Run it with ``python3 simbench/run.py --workload NAME``; see
``simbench/README.md``.  Importing the package puts the checkout's
``src/`` first on ``sys.path``, so the benchmark always measures the
source tree it ships with, never an installed copy.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
