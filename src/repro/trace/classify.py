"""Layer classification of trace references (the taxonomy of Table 1).

Code is classified into layers by a function→layer map.  Data is
classified by *first touch*: a cache line belongs to whichever layer's
function referenced it first during the trace, exactly as the paper
describes ("data is classified based on the function executing when it
was first accessed during the trace").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .record import MemRef

#: Layer name used when a reference cannot be attributed.
UNCLASSIFIED = "unclassified"


@dataclass
class LayerClassifier:
    """Maps references to protocol-stack layers.

    Parameters
    ----------
    fn_to_layer:
        Mapping from function name to layer name.  Functions absent from
        the map classify as :data:`UNCLASSIFIED`.
    """

    fn_to_layer: Mapping[str, str] = field(default_factory=dict)

    def layer_of_fn(self, fn: str | None) -> str:
        if fn is None:
            return UNCLASSIFIED
        return self.fn_to_layer.get(fn, UNCLASSIFIED)

    def layer_of(self, ref: MemRef) -> str:
        """Classify a single reference by its executing function."""
        return self.layer_of_fn(ref.fn)

    def layers(self) -> list[str]:
        """All layer names in the map, in first-appearance order."""
        seen: dict[str, None] = {}
        for layer in self.fn_to_layer.values():
            seen.setdefault(layer)
        return list(seen)


class FirstTouchAttributor:
    """Attributes data atoms (small aligned chunks) to layers by first touch.

    The attribution granularity is the *classification* line size used by
    the paper (32 bytes): whichever layer first touches any byte of a
    32-byte-aligned chunk owns the whole chunk.
    """

    def __init__(self, classifier: LayerClassifier, chunk_size: int = 32) -> None:
        self.classifier = classifier
        self.chunk_size = chunk_size
        self._owner: dict[int, str] = {}

    def observe(self, ref: MemRef) -> None:
        """Record first-touch ownership for a data reference."""
        layer = self.classifier.layer_of(ref)
        first = ref.addr // self.chunk_size
        last = (ref.end - 1) // self.chunk_size
        for chunk in range(first, last + 1):
            self._owner.setdefault(chunk, layer)

    def owner_of_addr(self, addr: int) -> str:
        """Layer owning the chunk containing ``addr``."""
        return self._owner.get(addr // self.chunk_size, UNCLASSIFIED)

    def owners(self) -> dict[int, str]:
        """Chunk-number → layer map (copy)."""
        return dict(self._owner)
