"""Vectorized (segmented) direct-mapped cache replays.

The scalar hot path simulates one *call* at a time:
:meth:`repro.cache.cache.DirectMappedCache.access_line_array_report`
gathers the resident tags for every position of the call, compares,
then scatters the new tags — parallel *within* a call, sequential
*across* calls.  This module precomputes everything about a whole
sequence of such calls (a *segmented plan*, one segment per call) so
that replaying it against live cache state costs a handful of numpy
operations instead of a Python-level loop.

The trick that makes a static template possible: when no single segment
contains two positions mapping to the same cache set (true for every
placed layer and message buffer — their line arrays are contiguous and
smaller than the cache), the tag left in set ``s`` after a segment is
simply the line of the *last* position with set ``s`` in that segment,
hit or miss.  Therefore, for any position whose set was already touched
by an *earlier* segment of the plan, the resident tag it observes is a
static, state-independent quantity; only positions touching a set for
the *first time* within the plan need a gather from the live tag array.

The same argument lets :func:`collapsed_plan` drop any segment that
repeats its predecessor line for line: the predecessor just left every
one of those lines resident, so the repeat is all hits and changes no
tag.  Only its access count survives, as hits.

Since only first touches read live state, two plans over two disjoint
tag arrays are one plan over an array holding both:
:class:`FusedReplay` replays an instruction-cache plan and a data-cache
plan against the split L1's one backing tag array
(:class:`repro.cache.hierarchy.SplitCacheHierarchy`) with one gather,
compare, scatter and count.  Replays whose instruction plans differ
only in their first touches' segment ids share one scratch
:class:`ReplayArena`.

One static-analysis kernel, :func:`_first_touches`, computes a stream's
first touches, last lines and static misses per segment: one stable
argsort by set (a radix sort: the key is the narrowest unsigned dtype
that fits the set count) and a handful of vector operations, written
once into the ``(4, n)`` block a replay reads.  It packs the code plan
(:func:`collapsed_plan`, once per vec engine: the plan of a batch of
two gives every batch length's in closed form, see
:mod:`repro.sim.vec`) and every data plan (:meth:`FusedReplay.data_plan`,
once per new batch composition) into a :class:`PackedPlan`.  It takes
the stream as two rows, every line and each line's segment id, plus
its segment count, so a caller that replays many streams of one
segment-length pattern builds the id row once (the vec engine keeps
one per batch *shape*).
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


def _key_dtype(num_lines: int) -> type[np.unsignedinteger]:
    """The narrowest unsigned dtype holding every set index below
    ``num_lines``; numpy's stable argsort is a radix sort up to 16 bits."""
    if num_lines <= 1 << 8:
        return np.uint8
    if num_lines <= 1 << 16:
        return np.uint16
    return np.uint32 if num_lines <= 1 << 32 else np.uint64


def _first_touches(
    lines: np.ndarray,
    segment_ids: np.ndarray,
    num_lines: int,
    num_segments: int,
    dtype: type[np.signedinteger] = np.int64,
) -> tuple[np.ndarray, np.ndarray]:
    """The static analysis of a segmented access stream.

    ``lines`` holds every line of the stream (int64), segment by
    segment; ``segment_ids`` holds each line's segment id, ascending
    (:func:`segment_rows`).  Returns:

    * ``block`` — a ``(4, n)`` array of ``dtype``, which must hold every
      line, with one column per touched
      set, ascending by set: the set, the line of its first touch, that
      touch's segment id and the line of its last touch (the set's tag
      after the stream, hit or miss; see the module docs);
    * ``static`` — static misses per segment (int64, ``num_segments``
      entries, which may run past the stream's own segments):
      re-touches of a set by a different line than its previous touch,
      which miss whatever the live state.

    Raises
    ------
    UnsupportedPlanError
        If any segment touches the same set twice (see module docs).
    """
    total = int(lines.size)
    # Rows: set, line and segment id of every position.
    stream = np.empty((3, total), dtype=np.int64)
    np.remainder(lines, num_lines, out=stream[0])
    stream[1] = lines
    stream[2] = segment_ids
    # Stable sort by set: equal-set positions stay in stream order, so
    # "previous element in the sorted run" = "previous occurrence of
    # this set in the stream".
    order = stream[0].astype(_key_dtype(num_lines)).argsort(kind="stable")
    ordered = stream.take(order, axis=1)
    sets, ordered_lines, segs = ordered
    # repeat[i]: position i re-touches the set of position i - 1 in
    # sorted order.  static_miss[i - 1]: it does so with a different line.
    repeat = np.empty(total, dtype=bool)
    repeat[:1] = False
    np.equal(sets[1:], sets[:-1], out=repeat[1:])
    same_segment = segs[1:] == segs[:-1]
    same_segment &= repeat[1:]
    if same_segment.any():
        raise UnsupportedPlanError("segment touches the same cache set twice")
    static_miss = ordered_lines[1:] != ordered_lines[:-1]
    static_miss &= repeat[1:]
    # Dynamic part: the first occurrence of each set, whose resident tag
    # is gathered from live state at replay time.  The set's last
    # occurrence is the position just before the next set's first.
    first = (~repeat).nonzero()[0]
    block = np.empty((4, first.size), dtype=dtype)
    block[:3] = ordered.take(first, axis=1)
    block[3, :-1] = ordered_lines[first[1:] - 1]
    block[3, -1:] = ordered_lines[-1:]
    static = np.bincount(segs[1:][static_miss], minlength=num_segments)
    return block, static


def segment_rows(
    segments: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, int]:
    """The line and segment-id rows of a stream given as one line array
    per segment, and its segment count: the arguments
    :meth:`FusedReplay.data_plan` takes."""
    if not segments:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp), 0
    lengths = np.array([segment.size for segment in segments])
    return (
        np.concatenate(segments),
        np.repeat(np.arange(len(segments)), lengths),
        len(segments),
    )


class PackedPlan:
    """A plan's apply-time arrays, packed for a :class:`FusedReplay`.

    ``block`` holds the plan's first-touch sets, first lines, segment
    ids and last lines as four rows (:func:`_first_touches`);
    ``static`` is its static misses per segment (a data plan's are
    followed by its replay's instruction plan's); ``accesses`` counts
    its accesses, elided repeats included.
    """

    __slots__ = ("block", "static", "accesses")

    def __init__(self, block: np.ndarray, static: np.ndarray, accesses: int) -> None:
        self.block = block
        self.static = static
        self.accesses = accesses


def collapsed_plan(
    segments: list[np.ndarray], num_lines: int
) -> tuple[PackedPlan, list[int]]:
    """A packed plan with one segment per line array, minus the segments
    that repeat their predecessor.

    Returns the plan and the indices of the segments it kept, in order;
    its per-segment misses line up with those indices, and every elided
    segment missed nothing.  Cache state and statistics after a replay
    equal the full plan's (see the module docs for why): the elided
    segments' accesses count as hits.

    Raises
    ------
    UnsupportedPlanError
        If any segment touches the same set twice (see module docs).
    """
    kept: list[int] = []
    repeat_hits = 0
    for index, segment in enumerate(segments):
        if index and _same_lines(segment, segments[index - 1]):
            repeat_hits += int(segment.size)
        else:
            kept.append(index)
    flat, segment_ids, count = segment_rows([segments[index] for index in kept])
    block, static = _first_touches(flat, segment_ids, num_lines, count)
    return PackedPlan(block, static, int(flat.size) + repeat_hits), kept


def _same_lines(a: np.ndarray, b: np.ndarray) -> bool:
    return a is b or (
        a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    )


class ReplayArena:
    """The scratch columns :class:`FusedReplay` instances share when their
    I plans differ only in segment ids.

    The tail holds an I plan's first touches, sets offset past the
    ``dsets`` data sets: rows 0, 1 and 3 (sets, first lines, last lines)
    once for every replay that shares the arena, and in row 2 the
    segment ids of the replay that applied last (``loaded``), which each
    replay swaps in with one slice-assign when it is not the one loaded.
    The ``dsets`` columns before the tail take each apply's D plan.
    """

    __slots__ = ("columns", "dsets", "loaded")

    def __init__(self, iblock: np.ndarray, dsets: int) -> None:
        # A D plan touches each of the dsets sets at most once first,
        # so the first ``dsets`` columns have room for any of them.
        self.columns = np.empty((4, dsets + iblock.shape[1]), dtype=np.int64)
        self.columns[:, dsets:] = iblock
        self.columns[0, dsets:] += dsets
        self.dsets = dsets
        #: The segment-id row now in the tail's row 2, as the replay
        #: that loaded it holds it; ``None`` before any apply.
        self.loaded: np.ndarray | None = None


class FusedReplay:
    """One instruction-cache plan replayed together with data-cache plans.

    The split L1's tag arrays are views of one backing array, data sets
    first: ``tags[:dsets]`` is the D-cache and ``tags[dsets:]`` the
    I-cache.  Offsetting the I plan's sets by ``dsets`` and its segment
    ids by ``dsegments`` turns an (I plan, D plan) pair into one plan
    over the backing array, whose per-segment misses list the D plan's
    segments first.

    One instance serves one I plan and every D plan of ``dsegments``
    segments.  Its :class:`ReplayArena`'s tail holds the I plan's
    first-touch arrays; :meth:`apply` copies a packed D plan
    (:meth:`data_plan`) into the columns just before the tail, so each
    replay reads one contiguous run of first touches and never copies
    the I arrays.  Replays whose I plans share every first touch but
    its segment id (the vec engine's batch lengths) share one arena
    (:meth:`sharing`): each keeps only its offset segment-id row and
    loads it into the arena when another replay applied last.  Hits,
    misses and evictions accrue to each cache's :class:`CacheStats`
    exactly as one scalar ``access_line_array_report`` call per segment
    would add them, given non-negative line numbers (``-1`` marks an
    empty set).

    Both sides need at least one segment: :meth:`apply` splits the
    per-segment misses at ``dsegments`` with one ``add.reduceat``, which
    miscounts an empty side.  A segment may be empty.
    """

    __slots__ = (
        "dsets", "dsegments", "num_segments", "static", "accesses",
        "_segments", "_bounds", "_arena",
    )

    def __init__(self, iplan: PackedPlan, dsets: int, dsegments: int) -> None:
        self._bind(
            ReplayArena(iplan.block, dsets), iplan.block[2], iplan.static,
            iplan.accesses, dsegments,
        )

    @classmethod
    def sharing(
        cls,
        arena: ReplayArena,
        segment_ids: np.ndarray,
        static: np.ndarray,
        accesses: int,
        dsegments: int,
    ) -> FusedReplay:
        """The replay of the I plan whose first touches ``arena`` holds
        but with segment ids ``segment_ids`` (before the ``dsegments``
        offset), ``static`` misses per segment and ``accesses``."""
        replay = cls.__new__(cls)
        replay._bind(arena, segment_ids, static, accesses, dsegments)
        return replay

    def _bind(
        self,
        arena: ReplayArena,
        segment_ids: np.ndarray,
        static: np.ndarray,
        accesses: int,
        dsegments: int,
    ) -> None:
        if dsegments < 1:
            raise ValueError(f"need at least one data segment, got {dsegments}")
        if static.size < 1:
            raise ValueError("need at least one code segment, got none")
        self.dsets = arena.dsets
        self.dsegments = dsegments
        self.num_segments = dsegments + static.size
        #: The I plan's static misses per segment, and its accesses.
        self.static = static
        self.accesses = accesses
        self._segments = np.add(segment_ids, dsegments, dtype=np.int64)
        self._bounds = np.array([0, dsegments], dtype=np.int64)
        self._arena = arena

    @property
    def iplan(self) -> PackedPlan:
        """The I plan, rebuilt from the arena and the segment-id row."""
        block = self._arena.columns[:, self.dsets :].copy()
        block[0] -= self.dsets
        block[2] = self._segments - self.dsegments
        return PackedPlan(block, self.static, self.accesses)

    @property
    def nbytes(self) -> int:
        """Bytes of the arrays the replay holds beside its arena: its
        segment-id row, static misses and segment bounds."""
        return self._segments.nbytes + self.static.nbytes + self._bounds.nbytes

    def data_plan(
        self,
        lines: np.ndarray,
        segment_ids: np.ndarray,
        segments: int,
        dtype: type[np.signedinteger] = np.int64,
    ) -> PackedPlan:
        """Compile a data stream of ``segments`` segments straight into
        its packed replay: ``lines`` holds every line (int64) and
        ``segment_ids`` each line's segment id, ascending below
        ``segments`` (:func:`segment_rows` builds all three from one
        line array per segment).  The plan's block is of ``dtype``
        (int32 halves a kept plan), which must hold every line.

        Raises :class:`ValueError` unless the stream has exactly
        ``dsegments`` segments, and :class:`UnsupportedPlanError` if a
        segment touches the same set twice (see module docs).
        """
        if segments != self.dsegments:
            raise ValueError(
                f"expected {self.dsegments} data segments, got {segments}"
            )
        block, static = _first_touches(
            lines, segment_ids, self.dsets, self.num_segments, dtype
        )
        static[self.dsegments :] = self.static
        return PackedPlan(block, static, int(lines.size))

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
        dsets = self.dsets
        head = dsets - data.block.shape[1]
        arena = self._arena
        columns = arena.columns
        if arena.loaded is not self._segments:
            columns[2, dsets:] = self._segments
            arena.loaded = self._segments
        columns[:, head:dsets] = data.block
        sets, first_lines, segments, last_lines = columns[:, head:]
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
            dcold = int(np.count_nonzero(cold[: dsets - head]))
            icold -= dcold
        dstats.misses += dmisses
        dstats.hits += data.accesses - dmisses
        dstats.evictions += dmisses - dcold
        istats.misses += imisses
        istats.hits += self.accesses - imisses
        istats.evictions += imisses - icold
        return per_segment
