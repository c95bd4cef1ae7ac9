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

Since only first touches read live state, two plans over two disjoint
tag arrays are one plan over an array holding both:
:class:`FusedReplay` replays an instruction-cache plan and a data-cache
plan against the split L1's one backing tag array
(:class:`repro.cache.hierarchy.SplitCacheHierarchy`) with one gather,
compare, scatter and count.
"""

from __future__ import annotations

from itertools import accumulate

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
        sets = lines % num_lines
        # Segment id of each position: segment starts at or before it.
        seg_ids = np.bincount(offsets[1:-1], minlength=total)[:total].cumsum()
        # Stable sort by set: equal-set positions stay in stream order,
        # so "previous element in the sorted run" = "previous occurrence
        # of this set in the stream".
        order = np.argsort(sets, kind="stable")
        sorted_sets = sets[order]
        sorted_segs = seg_ids[order]
        sorted_lines = lines[order]
        # repeat[i]: position i re-touches the set of position i - 1 in
        # sorted order.  static_miss[i]: it does so with a different line.
        repeat = np.zeros(total, dtype=bool)
        static_miss = np.zeros(total, dtype=bool)
        if total > 1:
            np.equal(sorted_sets[1:], sorted_sets[:-1], out=repeat[1:])
            np.not_equal(sorted_lines[1:], sorted_lines[:-1], out=static_miss[1:])
            static_miss &= repeat
            same_segment = sorted_segs[1:] == sorted_segs[:-1]
            same_segment &= repeat[1:]
            if same_segment.any():
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
        # Static part: a repeat occurrence observes the previous
        # occurrence's line as resident (valid tag, so every miss here
        # is also an eviction), independent of live state.
        self._static_miss_positions = order[static_miss] if with_mask else None
        self._static_misses = int(np.count_nonzero(static_miss))
        self._static_per_segment = np.bincount(
            sorted_segs[static_miss], minlength=nseg
        ).astype(np.int64, copy=False)
        # Final state: the tag of each touched set is the line of its
        # last occurrence in the plan (hit or miss — see module docs),
        # i.e. the position just before the next set's first occurrence.
        last = np.empty(total, dtype=bool)
        last[:-1] = first[1:]
        last[-1:] = True
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
    offsets = list(accumulate([segment.size for segment in segments], initial=0))
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


class PackedPlan:
    """A data-cache plan's apply-time arrays, packed for a :class:`FusedReplay`.

    ``block`` stacks the plan's first-touch sets, first lines, segment
    ids and last lines as four rows; ``static`` is its static misses
    per segment followed by the instruction plan's; ``accesses`` counts
    its accesses, elided repeats included.
    """

    __slots__ = ("block", "static", "accesses")

    def __init__(self, block: np.ndarray, static: np.ndarray, accesses: int) -> None:
        self.block = block
        self.static = static
        self.accesses = accesses


class FusedReplay:
    """One instruction-cache plan replayed together with data-cache plans.

    The split L1's tag arrays are views of one backing array, data sets
    first: ``tags[:dsets]`` is the D-cache and ``tags[dsets:]`` the
    I-cache.  Offsetting the I plan's sets by ``dsets`` and its segment
    ids by ``dsegments`` turns an (I plan, D plan) pair into one plan
    over the backing array, whose per-segment misses list the D plan's
    segments first.

    One instance serves one I plan and every D plan of ``dsegments``
    segments.  It keeps an arena whose tail holds the I plan's
    first-touch arrays; :meth:`apply` copies a packed D plan
    (:meth:`pack`) into the columns just before the tail, so each
    replay reads one contiguous run of first touches and never copies
    the I arrays.  Hits, misses and evictions accrue to each cache's
    :class:`CacheStats` exactly as the two plans' own
    :meth:`SegmentedAccessPlan.apply` calls would add them, given
    non-negative line numbers (``-1`` marks an empty set).
    """

    def __init__(
        self, iplan: SegmentedAccessPlan, dsets: int, dsegments: int
    ) -> None:
        self.iplan = iplan
        self.dsegments = dsegments
        self.num_segments = dsegments + iplan.num_segments
        self._bounds = np.array([0, dsegments], dtype=np.int64)
        self._iaccesses = iplan.size + iplan.repeat_hits
        # A D plan touches each of the dsets sets at most once first,
        # so the first ``dsets`` columns have room for any of them.
        self._tail = dsets
        self._arena = np.empty((4, dsets + iplan._sets.size), dtype=np.int64)
        self._arena[:, dsets:] = (
            iplan._sets + dsets,
            iplan._first_lines,
            iplan._first_segs + dsegments,
            iplan._last_lines,
        )

    def pack(self, dplan: SegmentedAccessPlan) -> PackedPlan:
        """The part of a replay owned by ``dplan``, a plan of
        ``dsegments`` segments; the plan object can then go."""
        block = np.stack(
            (dplan._sets, dplan._first_lines, dplan._first_segs, dplan._last_lines)
        )
        static = np.concatenate(
            (dplan._static_per_segment, self.iplan._static_per_segment)
        )
        return PackedPlan(block, static, dplan.size + dplan.repeat_hits)

    def apply(
        self,
        tags: np.ndarray,
        data: PackedPlan,
        dstats: CacheStats,
        istats: CacheStats,
    ) -> np.ndarray:
        """Replay the I plan and ``data`` against the backing ``tags``.

        Mutates ``tags`` in place and returns the per-segment miss
        counts (int64): the D plan's segments, then the I plan's.
        """
        head = self._tail - data.block.shape[1]
        arena = self._arena
        arena[:, head : self._tail] = data.block
        sets, first_lines, segments, last_lines = arena[:, head:]
        resident = tags[sets]
        first_miss = first_lines != resident
        tags[sets] = last_lines
        per_segment = data.static + np.bincount(
            segments[first_miss], minlength=self.num_segments
        )
        dmisses, imisses = np.add.reduceat(per_segment, self._bounds).tolist()
        # Every miss evicts except a first touch of an empty set.
        cold = resident < 0
        dcold = 0
        icold = int(np.count_nonzero(cold))
        if icold:
            dcold = int(np.count_nonzero(cold[: self._tail - head]))
            icold -= dcold
        dstats.misses += dmisses
        dstats.hits += data.accesses - dmisses
        dstats.evictions += dmisses - dcold
        istats.misses += imisses
        istats.hits += self._iaccesses - imisses
        istats.evictions += imisses - icold
        return per_segment
