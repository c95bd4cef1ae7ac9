"""Cache simulation and working-set analysis.

Public surface:

* :class:`DirectMappedCache`, :class:`SetAssociativeCache` — cache models;
* :class:`SplitCacheHierarchy`, :class:`MachineSpec`, :class:`CacheGeometry`
  — the paper's machine model (8 KB split I/D, 20-cycle miss penalty);
* :class:`WorkingSetAnalyzer` and report types — Table 1 / Table 3 analysis;
* :mod:`repro.cache.line` helpers for address/line arithmetic.
"""

from .cache import (
    REPLACEMENT_POLICIES,
    Cache,
    DirectMappedCache,
    SetAssociativeCache,
)
from .chunked import UnsupportedPlanError
from .hierarchy import (
    DEC3000_400,
    ROSENBLUM_1998,
    CacheGeometry,
    MachineSpec,
    SplitCacheHierarchy,
)
from .line import line_base, line_count, line_of, lines_touched
from .stats import CacheStats
from .workingset import (
    Category,
    CategoryCount,
    LineSizeDelta,
    LineSizeRow,
    LineSizeTable,
    WorkingSetAnalyzer,
    WorkingSetReport,
)

__all__ = [
    "Cache",
    "CacheGeometry",
    "CacheStats",
    "Category",
    "CategoryCount",
    "DEC3000_400",
    "DirectMappedCache",
    "LineSizeDelta",
    "LineSizeRow",
    "LineSizeTable",
    "MachineSpec",
    "REPLACEMENT_POLICIES",
    "ROSENBLUM_1998",
    "SetAssociativeCache",
    "SplitCacheHierarchy",
    "UnsupportedPlanError",
    "WorkingSetAnalyzer",
    "WorkingSetReport",
    "line_base",
    "line_count",
    "line_of",
    "lines_touched",
]
