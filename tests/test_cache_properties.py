"""Hypothesis property tests for the cache models.

These pin the invariants the simulator's correctness rests on, over
randomly generated access traces rather than hand-picked cases:

* counter sanity — misses never exceed accesses, and hits + misses
  always equals accesses;
* capacity — a direct-mapped cache never holds more distinct lines
  than it has sets;
* locality — once a span smaller than the cache is resident, repeated
  access to it hits on every line;
* hierarchy — the second-level cache is probed exactly on primary
  misses, so its access count can never exceed the primary miss count,
  and its probe matches a per-line loop on both sides of its span
  branch;
* equivalence — the span path matches the scalar byte-access loop, and
  1-way set-associative matches direct-mapped, access for access; the
  fused I+D replay of collapsed code plans and packed data plans
  matches the scalar per-call path, one
  ``access_line_array_report`` call per segment.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.cache.cache import DirectMappedCache, SetAssociativeCache
from repro.cache.chunked import (
    FusedReplay,
    UnsupportedPlanError,
    collapsed_plan,
    segment_rows,
)
from repro.cache.hierarchy import CacheGeometry, MachineSpec, SplitCacheHierarchy
from repro.cache.line import lines_touched
from repro.machine.cpu import CPU

#: Small geometries keep traces interesting (evictions actually happen).
SIZES = st.sampled_from([256, 512, 1024])
LINE_SIZES = st.sampled_from([16, 32])
WAYS = st.sampled_from([1, 2, 4])

#: A trace of (addr, size) byte accesses within a few cache-sizes of
#: address space, so conflict misses are common.
ACCESSES = st.lists(
    st.tuples(st.integers(0, 4096), st.integers(0, 96)),
    min_size=1,
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_misses_never_exceed_accesses(size, line_size, accesses):
    cache = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        cache.access_span_report(addr, span)
    stats = cache.stats
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses
    assert stats.evictions <= stats.misses


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
def test_set_associative_counters_sane(size, line_size, ways, accesses):
    cache = SetAssociativeCache(size, line_size, ways=ways)
    for addr, span in accesses:
        cache.access(addr, span)
    stats = cache.stats
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_occupancy_bounded_by_set_count(size, line_size, accesses):
    cache = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        cache.access_span_report(addr, span)
    assert len(cache.resident_lines()) <= cache.num_lines


@settings(max_examples=60, deadline=None)
@given(
    size=SIZES,
    line_size=LINE_SIZES,
    addr=st.integers(0, 2048),
    data=st.data(),
)
def test_warm_span_hits_on_repeat(size, line_size, addr, data):
    """A contiguous span no larger than the cache, once resident, hits
    on every line of every subsequent access — the locality the LDLP
    batching argument depends on."""
    # Keep the span within num_lines distinct lines: starting mid-line,
    # a full cache-size span would touch one extra line and self-evict.
    span = data.draw(st.integers(1, size - addr % line_size))
    cache = DirectMappedCache(size, line_size)
    cache.access_span_report(addr, span)  # warm-up may miss freely
    before = cache.stats.misses
    for _ in range(3):
        assert cache.access_span_report(addr, span).size == 0
    assert cache.stats.misses == before


@settings(max_examples=40, deadline=None)
@given(accesses=ACCESSES, instruction=st.booleans())
def test_l2_accesses_bounded_by_l1_misses(accesses, instruction):
    """The unified L2 is probed only on primary misses."""
    spec = MachineSpec(
        icache=CacheGeometry(size=512, line_size=32),
        dcache=CacheGeometry(size=512, line_size=32),
        l2=CacheGeometry(size=2048, line_size=32),
    )
    cpu = CPU(spec)
    hierarchy = cpu.hierarchy
    access = cpu.fetch_code_lines if instruction else cpu.read_data_lines
    for addr, span in accesses:
        # At most 96 bytes: contiguous lines, distinct sets of a 16-set cache.
        access(np.asarray(lines_touched(addr, span, 32), dtype=np.int64))
    primary = hierarchy.icache if instruction else hierarchy.dcache
    assert hierarchy.l2 is not None
    assert hierarchy.l2.stats.accesses <= primary.stats.misses


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_span_path_matches_scalar_path(size, line_size, accesses):
    """DirectMappedCache.access_span_report must be observably
    identical to the scalar Cache.access loop: same per-call miss
    counts, same final counters, same resident lines."""
    fast = DirectMappedCache(size, line_size)
    slow = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        assert fast.access_span_report(addr, span).size == slow.access(addr, span)
    assert fast.stats.misses == slow.stats.misses
    assert fast.stats.hits == slow.stats.hits
    assert fast.stats.evictions == slow.stats.evictions
    assert fast.resident_lines() == slow.resident_lines()


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_one_way_equals_direct_mapped(policy, size, line_size, accesses):
    """SetAssociativeCache(ways=1) is a direct-mapped cache — under
    either replacement policy, since a one-line set has no replacement
    order to maintain."""
    direct = DirectMappedCache(size, line_size)
    assoc = SetAssociativeCache(size, line_size, ways=1, policy=policy)
    for addr, span in accesses:
        assert direct.access(addr, span) == assoc.access(addr, span)
    assert direct.stats.misses == assoc.stats.misses
    assert direct.stats.hits == assoc.stats.hits
    assert direct.stats.evictions == assoc.stats.evictions
    assert direct.resident_lines() == assoc.resident_lines()


#: Spans sized in *lines* relative to the cache so the vectorized
#: access_span_report boundary (count == num_lines, where it hands
#: off to the scalar loop) is actually crossed: with 8–64 lines per
#: cache, relative spans of num_lines - 2 .. num_lines + 2 lines all
#: occur, on warm as well as cold tag state.
BOUNDARY_OPS = st.lists(
    st.tuples(st.integers(0, 4096), st.integers(-2, 2)),
    min_size=1,
    max_size=12,
)


@settings(max_examples=80, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ops=BOUNDARY_OPS)
def test_span_boundary_full_stats_parity(size, line_size, ops):
    """Full CacheStats parity across the count == num_lines boundary.

    The vectorized access_span_report path is only taken while the span covers
    at most num_lines lines; the first span past that falls back to the
    scalar loop mid-sequence.  Hits, misses, *and* evictions — not just
    the returned miss counts — must agree with the pure scalar path at
    exactly that hand-off, on whatever warm state earlier spans left."""
    fast = DirectMappedCache(size, line_size)
    slow = DirectMappedCache(size, line_size)
    num_lines = fast.num_lines
    for addr, delta in ops:
        # delta is lines relative to the boundary; size straddles it.
        span = (num_lines + delta) * line_size - addr % line_size
        if span <= 0:
            continue
        assert fast.access_span_report(addr, span).size == slow.access(addr, span)
        assert fast.stats.snapshot() == slow.stats.snapshot()
    assert fast.stats.hits == slow.stats.hits
    assert fast.stats.misses == slow.stats.misses
    assert fast.stats.evictions == slow.stats.evictions
    assert fast.resident_lines() == slow.resident_lines()


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
def test_fifo_counters_sane(size, line_size, ways, accesses):
    """Counter sanity holds for the FIFO replacement policy too."""
    cache = SetAssociativeCache(size, line_size, ways=ways, policy="fifo")
    for addr, span in accesses:
        cache.access(addr, span)
    stats = cache.stats
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses
    assert stats.evictions <= stats.misses
    assert len(cache.resident_lines()) <= cache.num_lines


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
def test_fifo_never_beats_itself_on_occupancy(size, line_size, ways, accesses):
    """LRU and FIFO see identical miss sets on cold sequential fills;
    they may diverge only once eviction order matters.  Either way the
    two policies' *accesses* agree exactly (the access stream is policy
    independent) and both respect capacity."""
    lru = SetAssociativeCache(size, line_size, ways=ways, policy="lru")
    fifo = SetAssociativeCache(size, line_size, ways=ways, policy="fifo")
    for addr, span in accesses:
        lru.access(addr, span)
        fifo.access(addr, span)
    assert lru.stats.accesses == fifo.stats.accesses
    assert len(lru.resident_lines()) <= lru.num_lines
    assert len(fifo.resident_lines()) <= fifo.num_lines


@settings(max_examples=40, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, ways=WAYS, accesses=ACCESSES)
@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_flush_behavior_matches_direct_mapped(
    policy, size, line_size, ways, accesses
):
    """After flush(), both cache classes agree: no resident lines,
    statistics preserved, and the refill of a previously-resident span
    misses without counting evictions (the slots are empty, not
    occupied) — the documented DirectMappedCache contract."""
    direct = DirectMappedCache(size, line_size)
    assoc = SetAssociativeCache(size, line_size, ways=ways, policy=policy)
    for addr, span in accesses:
        direct.access(addr, span)
        assoc.access(addr, span)
    for cache in (direct, assoc):
        stats_before = cache.stats.snapshot()
        cache.flush()
        assert cache.resident_lines() == set()
        assert cache.stats.snapshot() == stats_before
        evictions_before = cache.stats.evictions
        cache.access_line(0)
        assert cache.stats.evictions == evictions_before
        assert cache.contains_line(0)


@settings(max_examples=80, deadline=None)
@given(l2_lines=st.sampled_from([16, 32, 64]), data=st.data())
def test_probe_l2_matches_access_line_loop(l2_lines, data):
    """SplitCacheHierarchy._probe_l2 ≡ an access_line loop over the
    missed lines: same miss count, stats and tags, from warm state, on
    both sides of its span branch (one vector probe while the lines
    span at most the L2's line count, the loop past it)."""
    spec = MachineSpec(
        icache=CacheGeometry(256, 32),
        dcache=CacheGeometry(256, 32),
        l2=CacheGeometry(l2_lines * 32, 32),
    )
    hierarchy = SplitCacheHierarchy(spec)
    assert hierarchy.l2 is not None
    reference = DirectMappedCache(l2_lines * 32, 32)
    for _ in range(data.draw(st.integers(1, 6))):
        wide = data.draw(st.booleans())
        reach = (4 if wide else 1) * l2_lines
        offsets = data.draw(
            st.lists(st.integers(0, reach - 1), unique=True, min_size=1, max_size=24)
        )
        if wide:
            # Span past the L2's line count: the per-line branch.
            offsets += [edge for edge in (0, reach - 1) if edge not in offsets]
        base = data.draw(st.integers(0, 8 * l2_lines))
        missed = base + np.asarray(offsets, dtype=np.int64)
        expected = sum(reference.access_line(int(line)) for line in missed)
        assert hierarchy._probe_l2(missed) == expected
        assert hierarchy.l2.stats == reference.stats
        assert np.array_equal(hierarchy.l2.tag_array, reference.tag_array)


# ----------------------------------------------------------------------
# Vectorized replays: repro.cache.chunked

#: Line streams with heavy set reuse (small line-number range) so the
#: replays see repeats, conflicts, and evictions.  A replay's code
#: stream is never empty (every layer has code).
LINE_STREAMS = st.lists(st.integers(0, 96), min_size=1, max_size=120)

_NO_LINES = np.empty(0, dtype=np.int64)


def _replay_code(
    hierarchy: SplitCacheHierarchy, segments: list[np.ndarray]
) -> tuple[list[int], list[int]]:
    """Replay ``segments`` as a collapsed code plan (beside one empty
    data segment) against ``hierarchy``; return the kept segments'
    indices and their misses."""
    iplan, kept = collapsed_plan(segments, hierarchy.icache.num_lines)
    replay = FusedReplay(iplan, hierarchy.dcache.num_lines, 1)
    misses = replay.apply(
        hierarchy.l1_tags, replay.data_plan(*segment_rows([_NO_LINES])),
        hierarchy.dcache.stats, hierarchy.icache.stats,
    )
    return kept, misses[1:].tolist()


def _split(size: int, line_size: int) -> SplitCacheHierarchy:
    geometry = CacheGeometry(size, line_size)
    return SplitCacheHierarchy(MachineSpec(icache=geometry, dcache=geometry))


def _warm(cache: DirectMappedCache, lines) -> None:
    for line in lines:
        cache.access_line(int(line))


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS)
def test_stream_path_matches_scalar_path(size, line_size, lines):
    """A line stream replayed as a collapsed plan of one-line segments
    ≡ an access_line loop: same per-position misses (a repeat of the
    previous line is elided and hits), same counters, same resident
    lines — the one-line stream included."""
    hierarchy = _split(size, line_size)
    slow = DirectMappedCache(size, line_size)
    kept, misses = _replay_code(
        hierarchy, [np.asarray([line], dtype=np.int64) for line in lines]
    )
    observed = [False] * len(lines)
    for index, miss in zip(kept, misses):
        observed[index] = bool(miss)
    assert observed == [slow.access_line(line) for line in lines]
    fast = hierarchy.icache
    assert fast.stats == slow.stats
    assert fast.resident_lines() == slow.resident_lines()


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS)
def test_chunked_counters_sane(size, line_size, lines):
    """misses ≤ accesses (and hits + misses == accesses) on the
    replayed path, matching the scalar counter-sanity property."""
    hierarchy = _split(size, line_size)
    _replay_code(hierarchy, [np.asarray([line], dtype=np.int64) for line in lines])
    stats = hierarchy.icache.stats
    assert stats.accesses == len(lines)
    assert stats.misses <= stats.accesses
    assert stats.hits + stats.misses == stats.accesses
    assert stats.evictions <= stats.misses
    assert hierarchy.dcache.stats.accesses == 0


@settings(max_examples=40, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS)
def test_chunked_l2_bounded_by_l1_misses(size, line_size, lines):
    """Feeding the replayed path's missed lines to a next-level cache
    keeps the hierarchy invariant: L2 accesses ≤ L1 misses."""
    hierarchy = _split(size, line_size)
    l2 = DirectMappedCache(4 * size, line_size)
    kept, misses = _replay_code(
        hierarchy, [np.asarray([line], dtype=np.int64) for line in lines]
    )
    for index, miss in zip(kept, misses):
        if miss:
            l2.access_line(lines[index])
    assert l2.stats.accesses == sum(misses)
    assert l2.stats.accesses <= hierarchy.icache.stats.misses


@settings(max_examples=60, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, lines=LINE_STREAMS)
def test_segmented_plan_matches_call_parallel_path(size, line_size, lines):
    """A collapsed plan over random segment boundaries reproduces the
    scalar per-call access_line_array_report path, provided no segment
    repeats a set (the plan's declared soundness condition)."""
    cache_sets = size // line_size
    stream = np.asarray(lines, dtype=np.int64)
    # Split the stream at arbitrary fixed boundaries, then drop
    # in-segment set repeats so the plan is supported; repeat every
    # third segment so the plan elides some.
    segments = []
    for start in range(0, stream.size, 5):
        segment = _set_distinct(stream[start : start + 5].tolist(), cache_sets)
        segments += [segment] * (2 if start % 15 == 0 else 1)
    hierarchy = _split(size, line_size)
    scalar = DirectMappedCache(size, line_size)
    kept, misses = _replay_code(hierarchy, segments)
    calls = [int(scalar.access_line_array_report(segment).size) for segment in segments]
    assert misses == [calls[index] for index in kept]
    assert not any(calls[index] for index in set(range(len(segments))) - set(kept))
    planned = hierarchy.icache
    assert planned.stats == scalar.stats
    assert planned.resident_lines() == scalar.resident_lines()


def _set_distinct(lines: list[int], num_sets: int) -> np.ndarray:
    """``lines`` minus any later line whose set is already taken."""
    segment = np.asarray(lines, dtype=np.int64)
    _, first_index = np.unique(segment % num_sets, return_index=True)
    return segment[np.sort(first_index)]


SEGMENT = st.lists(st.integers(0, 255), max_size=12)


@settings(max_examples=60, deadline=None)
@given(
    isets=st.sampled_from([8, 16, 32]),
    dsets=st.sampled_from([8, 16, 32]),
    code=st.lists(st.tuples(SEGMENT, st.integers(1, 3)), min_size=1, max_size=5),
    data=st.integers(1, 5).flatmap(
        lambda count: st.lists(
            st.lists(SEGMENT, min_size=count, max_size=count),
            min_size=1, max_size=3,
        )
    ),
    iwarm=st.lists(st.integers(0, 255), max_size=40),
    dwarm=st.lists(st.integers(0, 255), max_size=40),
)
def test_fused_replay_matches_separate_plans(isets, dsets, code, data, iwarm, dwarm):
    """One fused pass over the split L1's backing tag array gives the
    per-segment misses, final tags and both caches' stats of one scalar
    access_line_array_report call per segment on two separate caches —
    from warm states that leave some sets empty (-1), through several
    D plans of one replay, with the I plan's repeated segments elided
    (their calls all hit)."""
    spec = MachineSpec(
        icache=CacheGeometry(isets * 32, 32), dcache=CacheGeometry(dsets * 32, 32)
    )
    fused = SplitCacheHierarchy(spec)
    icache = DirectMappedCache(isets * 32, 32)
    dcache = DirectMappedCache(dsets * 32, 32)
    for cache in (fused.icache, icache):
        _warm(cache, iwarm)
    for cache in (fused.dcache, dcache):
        _warm(cache, dwarm)
    code_segments = [
        _set_distinct(lines, isets) for lines, repeat in code for _ in range(repeat)
    ]
    iplan, kept = collapsed_plan(code_segments, isets)
    replay = FusedReplay(iplan, dsets, len(data[0]))
    for plan_segments in data:
        segments = [_set_distinct(lines, dsets) for lines in plan_segments]
        misses = replay.apply(
            fused.l1_tags, replay.data_plan(*segment_rows(segments)), fused.dcache.stats,
            fused.icache.stats,
        )
        icalls = [icache.access_line_array_report(lines).size for lines in code_segments]
        expected = [dcache.access_line_array_report(lines).size for lines in segments]
        expected += [icalls[index] for index in kept]
        assert misses.tolist() == expected
        assert sum(icalls) == sum(expected[len(segments) :])
        assert fused.dcache.stats == dcache.stats
        assert fused.icache.stats == icache.stats
        assert np.array_equal(fused.dcache.tag_array, dcache.tag_array)
        assert np.array_equal(fused.icache.tag_array, icache.tag_array)
    assert fused.icache.stats.evictions <= fused.icache.stats.misses


#: More sets than a 16-bit sort key can tell apart.
WIDE_SETS = 1 << 17

#: Lines a multiple of 2**16 apart: distinct sets of a WIDE_SETS cache
#: that a 16-bit key would merge, and conflicts in the narrow caches.
WIDE_LINES = st.builds(
    lambda high, low: (high << 16) + low, st.integers(0, 7), st.integers(0, 7)
)


@settings(max_examples=100, deadline=None)
@given(
    dsets=st.sampled_from([8, 32, WIDE_SETS]),
    pool=st.lists(WIDE_LINES, min_size=1, max_size=24),
    picks=st.lists(st.lists(st.integers(0, 23), max_size=10), min_size=1, max_size=6),
    code=st.lists(st.lists(st.integers(0, 63), max_size=8), min_size=1, max_size=4),
    strays=st.lists(WIDE_LINES, max_size=20),
)
def test_data_plan_matches_plan_and_scalar_calls(dsets, pool, picks, code, strays):
    """A data plan packed straight from its segments and replayed with
    an I plan gives the per-segment misses, final tags and both caches'
    hits, misses and evictions of one scalar call per segment — from
    warm states that leave some sets empty (-1), on caches narrow and
    wider than a 16-bit set key."""
    isets = 16
    spec = MachineSpec(
        icache=CacheGeometry(isets * 32, 32), dcache=CacheGeometry(dsets * 32, 32)
    )
    fused = SplitCacheHierarchy(spec)
    scalar = DirectMappedCache(dsets * 32, 32)
    icache = DirectMappedCache(isets * 32, 32)
    # Warm with half the pool (later hits) and some strays (conflicts).
    for cache in (fused.dcache, scalar):
        _warm(cache, pool[::2] + strays)
    segments = [
        _set_distinct([pool[index % len(pool)] for index in pick], dsets)
        for pick in picks
    ]
    code_segments = [_set_distinct(lines, isets) for lines in code]
    iplan, kept = collapsed_plan(code_segments, isets)
    replay = FusedReplay(iplan, dsets, len(segments))
    misses = replay.apply(
        fused.l1_tags, replay.data_plan(*segment_rows(segments)), fused.dcache.stats,
        fused.icache.stats,
    )
    scalar_misses = [scalar.access_line_array_report(lines).size for lines in segments]
    icalls = [icache.access_line_array_report(lines).size for lines in code_segments]
    assert misses[: len(segments)].tolist() == scalar_misses
    assert misses[len(segments) :].tolist() == [icalls[index] for index in kept]
    assert fused.dcache.stats == scalar.stats
    assert np.array_equal(fused.dcache.tag_array, scalar.tag_array)
    assert fused.icache.stats == icache.stats
    assert np.array_equal(fused.icache.tag_array, icache.tag_array)


def test_data_plan_keys_wide_caches_by_full_set():
    """Sets 2**16 apart are distinct sets of a wider cache: the sort key
    widens past 16 bits, so set 1's second touch is a static miss after
    set 2**16 + 1's, not a first touch."""
    iplan, _ = collapsed_plan([np.arange(4, dtype=np.int64)], 8)
    replay = FusedReplay(iplan, WIDE_SETS, 3)
    lines = (1, 1 + (1 << 16), 1 + 2 * WIDE_SETS)
    packed = replay.data_plan(
        *segment_rows([np.asarray([line], dtype=np.int64) for line in lines])
    )
    assert packed.block.tolist() == [[1, 1 + (1 << 16)], [1, 1 + (1 << 16)],
                                     [0, 1], [1 + 2 * WIDE_SETS, 1 + (1 << 16)]]
    assert packed.static.tolist() == [0, 0, 1] + [0] * iplan.static.size


def test_data_plan_rejects_in_segment_set_repeat():
    """The data-plan packer refuses a segment that touches one set
    twice, as the code-plan packer does."""
    iplan, _ = collapsed_plan([np.arange(4, dtype=np.int64)], 8)
    replay = FusedReplay(iplan, 8, 2)
    with pytest.raises(UnsupportedPlanError):
        replay.data_plan(*segment_rows(
            [np.asarray([3, 3 + 8], dtype=np.int64), np.empty(0, dtype=np.int64)]
        ))
    packed = replay.data_plan(*segment_rows(
        [np.asarray([3], dtype=np.int64), np.asarray([3 + 8], dtype=np.int64)]
    ))
    assert packed.static.tolist() == [0, 1] + [0] * iplan.static.size
    # A stream of fewer or more segments than the replay has is refused.
    for lines in ((3,), (3, 4, 5)):
        with pytest.raises(ValueError):
            replay.data_plan(*segment_rows(
                [np.asarray([line], dtype=np.int64) for line in lines]
            ))


def test_fused_replay_refuses_no_data_segments():
    """With no data segments, ``apply``'s split of the per-segment misses
    would credit the first code segment's misses to the D-cache (as
    ``hits=-2, misses=2``), so the replay is refused up front."""
    iplan, _ = collapsed_plan(
        [np.asarray(lines, dtype=np.int64) for lines in ([1, 2], [1, 2], [9])], 8
    )
    with pytest.raises(ValueError, match="data segment"):
        FusedReplay(iplan, 4, 0)


def test_fused_replay_refuses_empty_code_plan():
    """An empty code plan beside a data segment would raise a bare
    ``IndexError`` from ``apply``; it is refused up front.  A code plan
    of one empty segment is fine."""
    iplan, kept = collapsed_plan([], 8)
    assert kept == []
    with pytest.raises(ValueError, match="code segment"):
        FusedReplay(iplan, 4, 1)
    iplan, _ = collapsed_plan([_NO_LINES], 8)
    replay = FusedReplay(iplan, 8, 1)
    hierarchy = _split(8 * 32, 32)
    misses = replay.apply(
        hierarchy.l1_tags,
        replay.data_plan(*segment_rows([np.asarray([3], dtype=np.int64)])),
        hierarchy.dcache.stats, hierarchy.icache.stats,
    )
    assert misses.tolist() == [1, 0]
    assert hierarchy.dcache.stats.misses == 1
    assert hierarchy.icache.stats.accesses == 0


def test_split_hierarchy_shares_one_tag_array():
    """The primaries' tags are views of ``l1_tags``, data sets first;
    flushing either cache empties only its own part, in place."""
    hierarchy = SplitCacheHierarchy(
        MachineSpec(icache=CacheGeometry(512, 32), dcache=CacheGeometry(256, 32))
    )
    tags = hierarchy.l1_tags
    assert tags.size == 16 + 8
    assert hierarchy.dcache.tag_array.base is tags
    assert hierarchy.icache.tag_array.base is tags
    hierarchy.dcache.access_span_report(0, 64)
    hierarchy.icache.access_span_report(0, 32)
    assert tags[:8].tolist()[:2] == [0, 1] and tags[8] == 0
    hierarchy.dcache.flush()
    assert (tags[:8] == -1).all() and tags[8] == 0
    hierarchy.flush()
    assert (tags == -1).all()


def test_segmented_plan_rejects_in_segment_set_repeat():
    """Two same-set positions in one segment defeat the static
    template; the plan must refuse rather than silently diverge."""
    with pytest.raises(UnsupportedPlanError):
        collapsed_plan([np.asarray([3, 3 + 8], dtype=np.int64)], 8)
    # The same two lines in separate segments are fine.
    plan, kept = collapsed_plan(
        [np.asarray([3], dtype=np.int64), np.asarray([3 + 8], dtype=np.int64)], 8
    )
    assert plan.accesses == 2 and kept == [0, 1]


@settings(max_examples=40, deadline=None)
@given(size=SIZES, line_size=LINE_SIZES, accesses=ACCESSES)
def test_span_report_returns_exactly_the_missed_lines(size, line_size, accesses):
    cache = DirectMappedCache(size, line_size)
    for addr, span in accesses:
        if span == 0:
            continue
        missed = cache.access_span_report(addr, span)
        first = addr // line_size
        last = (addr + span - 1) // line_size
        assert np.all(missed >= first) and np.all(missed <= last)
        # After the access every touched line must be resident.
        for line in range(first, last + 1):
            present = cache.contains_line(line)
            # A line can only be absent if a later line of the same
            # access evicted it (span longer than the cache).
            if last - first + 1 <= cache.num_lines:
                assert present
