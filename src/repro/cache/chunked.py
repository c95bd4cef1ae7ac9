"""Vectorized (chunked/segmented) direct-mapped cache kernels.

The scalar hot path simulates one *call* at a time:
:meth:`repro.cache.cache.DirectMappedCache.access_line_array_report`
gathers the resident tags for every position of the call, compares,
then scatters the new tags — parallel *within* a call, sequential
*across* calls.  This module precomputes everything about a whole
sequence of such calls (a *segmented plan*) so that replaying it against
live cache state costs a handful of numpy operations instead of a
Python-level loop.

The trick that makes a static template possible: when no single segment
contains two positions mapping to the same cache set (true for every
placed layer and message buffer — their line arrays are contiguous and
smaller than the cache), the tag left in set ``s`` after a segment is
simply the line of the *last* position with set ``s`` in that segment,
hit or miss.  Therefore, for any position whose set was already touched
by an *earlier* segment of the plan, the resident tag it observes is a
static, state-independent quantity; only positions touching a set for
the *first time* within the plan need a gather from the live tag array.

A plan whose segments all have length one reproduces element-sequential
semantics exactly, which is what :meth:`DirectMappedCache.access_stream`
uses — and why results are invariant under the chunk size used to slice
the stream.

The same argument lets :func:`collapsed_plan` drop any segment that
repeats its predecessor line for line: the predecessor just left every
one of those lines resident, so the repeat is all hits and changes no
tag.  Only its access count survives, as hits.
"""

from __future__ import annotations

import numpy as np

from .stats import CacheStats


class UnsupportedPlanError(ValueError):
    """A segment contains two positions with the same set index.

    The static-template shortcut is unsound in that case (the second
    position's resident tag depends on the first's hit/miss outcome at
    *apply* time), so callers must fall back to the scalar path.
    """


class SegmentedAccessPlan:
    """A precompiled sequence of parallel-within-call cache accesses.

    Parameters
    ----------
    lines:
        All line numbers of the plan, segment by segment (int64).
    seg_offsets:
        Segment boundaries into ``lines``: segment ``j`` is
        ``lines[seg_offsets[j]:seg_offsets[j + 1]]``.  Each segment is
        one scalar ``access_line_array_report`` call.
    num_lines:
        Number of sets of the (direct-mapped) cache this plan targets.
    repeat_hits:
        Accesses of segments elided by :func:`collapsed_plan`; each
        :meth:`apply` adds them to ``stats.hits``.
    with_mask:
        Keep the position arrays ``apply(return_mask=True)`` needs.
        Only element-sequential streams (:func:`unit_plan`) want the
        mask, so other plans skip storing them.

    Raises
    ------
    UnsupportedPlanError
        If any segment touches the same set twice (see module docs).
    """

    def __init__(
        self,
        lines: np.ndarray,
        seg_offsets: np.ndarray,
        num_lines: int,
        *,
        repeat_hits: int = 0,
        with_mask: bool = False,
    ) -> None:
        lines = np.ascontiguousarray(lines, dtype=np.int64)
        offsets = np.ascontiguousarray(seg_offsets, dtype=np.int64)
        total = int(lines.size)
        nseg = int(offsets.size) - 1
        self.size = total
        self.num_segments = nseg
        self.repeat_hits = repeat_hits
        sets = lines % num_lines if total else lines
        seg_ids = np.repeat(np.arange(nseg, dtype=np.int64), np.diff(offsets))
        # Stable sort by set: equal-set positions stay in stream order,
        # so "previous element in the sorted run" = "previous occurrence
        # of this set in the stream".
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        sorted_segs = seg_ids[order]
        sorted_lines = lines[order]
        repeat = np.zeros(total, dtype=bool)
        if total > 1:
            repeat[1:] = sorted_sets[1:] == sorted_sets[:-1]
            if bool(np.any(repeat[1:] & (sorted_segs[1:] == sorted_segs[:-1]))):
                raise UnsupportedPlanError(
                    "segment touches the same cache set twice"
                )
        # Dynamic part: first occurrence of each set — resident tag must
        # be gathered from live state at apply() time.  One entry per
        # touched set, ascending, which also indexes the final scatter.
        first = ~repeat
        self._sets = sorted_sets[first]
        self._first_lines = sorted_lines[first]
        self._first_segs = sorted_segs[first]
        self._first_positions = order[first] if with_mask else None
        # Static part: repeat occurrences observe the previous
        # occurrence's line as resident (valid tag, so every miss here
        # is also an eviction), independent of live state.
        prev_lines = np.empty(0, dtype=np.int64)
        if total > 1:
            prev_lines = sorted_lines[:-1][repeat[1:]]
        repeat_lines = sorted_lines[repeat]
        repeat_miss = repeat_lines != prev_lines
        self._static_miss_positions = (
            order[repeat][repeat_miss] if with_mask else None
        )
        self._static_misses = int(repeat_miss.sum())
        self._static_per_segment = np.bincount(
            sorted_segs[repeat][repeat_miss], minlength=nseg
        ).astype(np.int64)
        # Final state: the tag of each touched set is the line of its
        # last occurrence in the plan (hit or miss — see module docs).
        last = np.ones(total, dtype=bool)
        if total > 1:
            last[:-1] = ~repeat[1:]
        self._last_lines = sorted_lines[last]

    def apply(
        self,
        tags: np.ndarray,
        stats: CacheStats | None = None,
        return_mask: bool = False,
    ) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
        """Replay the plan against live ``tags``, mutating them in place.

        Returns the per-segment miss counts (int64, one per segment);
        with ``return_mask`` (plans built ``with_mask=True`` only) also
        returns the per-position miss mask in stream order.  ``stats``,
        when given, accrues hits, misses, and evictions exactly as the
        scalar per-call path would.
        """
        resident = tags[self._sets]
        first_miss = self._first_lines != resident
        if self._sets.size:
            tags[self._sets] = self._last_lines
        per_segment = self._static_per_segment.copy()
        if first_miss.size:
            per_segment += np.bincount(
                self._first_segs[first_miss], minlength=self.num_segments
            )
        if stats is not None:
            dynamic_misses = int(np.count_nonzero(first_miss))
            misses = self._static_misses + dynamic_misses
            stats.misses += misses
            stats.hits += self.size - misses + self.repeat_hits
            stats.evictions += self._static_misses + int(
                np.count_nonzero(first_miss & (resident != -1))
            )
        if return_mask:
            if self._first_positions is None:
                raise ValueError("plan was built without with_mask=True")
            mask = np.zeros(self.size, dtype=bool)
            mask[self._static_miss_positions] = True
            mask[self._first_positions] = first_miss
            return per_segment, mask
        return per_segment


def unit_plan(lines: np.ndarray, num_lines: int) -> SegmentedAccessPlan:
    """A plan of single-element segments: element-sequential semantics."""
    offsets = np.arange(int(np.asarray(lines).size) + 1, dtype=np.int64)
    return SegmentedAccessPlan(lines, offsets, num_lines, with_mask=True)


def segment_plan(
    segments: list[np.ndarray], num_lines: int, repeat_hits: int = 0
) -> SegmentedAccessPlan:
    """A plan with one segment per line array, in order."""
    lines = (
        np.concatenate(segments) if segments else np.empty(0, dtype=np.int64)
    )
    offsets = np.cumsum([0] + [segment.size for segment in segments])
    return SegmentedAccessPlan(
        lines, offsets, num_lines, repeat_hits=repeat_hits
    )


def collapsed_plan(
    segments: list[np.ndarray], num_lines: int
) -> tuple[SegmentedAccessPlan, list[int]]:
    """:func:`segment_plan` minus segments that repeat their predecessor.

    Returns the plan and the indices of the segments it kept, in order;
    its per-segment misses line up with those indices, and every elided
    segment missed nothing.  Cache state and ``stats`` after ``apply``
    equal the full plan's (see the module docs for why).
    """
    kept: list[int] = []
    repeat_hits = 0
    for index, segment in enumerate(segments):
        if index and _same_lines(segment, segments[index - 1]):
            repeat_hits += int(segment.size)
        else:
            kept.append(index)
    plan = segment_plan(
        [segments[index] for index in kept], num_lines, repeat_hits
    )
    return plan, kept


def _same_lines(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or bool(np.array_equal(a, b))
