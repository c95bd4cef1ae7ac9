"""Batch-size policy: how many messages fit in the data cache.

Section 3.2: "For many signalling protocols, just one layer will fit in
the instruction cache, while several messages fit in the data cache.
For this special case, implementation is especially simple.  Messages
are processed in batches consisting of as many available messages as
will fit in the data cache."

The default policy therefore caps batches at
``(data cache size - layer data reserve) / typical message size``; with
the paper's parameters (8 KB cache, 256 B layer data, 552 B messages)
this gives 14 — which is why Figure 5's LDLP curve "flattens out beyond
8500 msgs/sec... because the level of batching becomes limited by the
maximum batch size".
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.hierarchy import MachineSpec
from ..errors import ConfigurationError


@dataclass(frozen=True)
class BatchPolicy:
    """An upper bound on LDLP batch size.

    Attributes
    ----------
    max_batch:
        Hard cap on messages per batch; at least 1.
    """

    max_batch: int

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"batch limit must be at least 1, got {self.max_batch}"
            )

    @classmethod
    def from_cache(
        cls,
        dcache_bytes: int,
        typical_message_bytes: int = 552,
        layer_data_reserve: int = 256,
    ) -> "BatchPolicy":
        """Derive the cap from data-cache geometry.

        >>> BatchPolicy.from_cache(8192).max_batch
        14
        """
        if typical_message_bytes <= 0:
            raise ConfigurationError("typical message size must be positive")
        if layer_data_reserve < 0:
            raise ConfigurationError("layer data reserve must be non-negative")
        usable = dcache_bytes - layer_data_reserve
        return cls(max_batch=max(1, usable // typical_message_bytes))

    @classmethod
    def from_machine(
        cls,
        spec: MachineSpec,
        typical_message_bytes: int = 552,
        layer_data_reserve: int = 256,
    ) -> "BatchPolicy":
        """Derive the cap from a machine spec's data cache."""
        return cls.from_cache(
            spec.dcache.size, typical_message_bytes, layer_data_reserve
        )
