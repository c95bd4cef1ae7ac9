"""Re-record ``simbench/expected/digests.json`` from the current source.

Usage, from the root of a checkout: ``python3 simbench/record.py``.
Only re-record when a change is meant to alter simulator output (a
proven bug fix); a speed-up must leave every digest unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from simbench import suite  # noqa: E402
from simbench.workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    recorded = suite.record_expected(WORKLOADS)
    suite.EXPECTED_PATH.parent.mkdir(exist_ok=True)
    suite.EXPECTED_PATH.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"wrote {suite.EXPECTED_PATH}")
