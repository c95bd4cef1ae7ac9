"""Tests for repro.cache.cache and repro.cache.line."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import DirectMappedCache, SetAssociativeCache
from repro.cache.line import (
    check_power_of_two,
    line_base,
    line_count,
    line_of,
    lines_touched,
)
from repro.errors import ConfigurationError


class TestLineArithmetic:
    def test_line_of_boundaries(self):
        assert line_of(0, 32) == 0
        assert line_of(31, 32) == 0
        assert line_of(32, 32) == 1

    def test_line_base(self):
        assert line_base(33, 32) == 32

    def test_lines_touched_within_one_line(self):
        assert list(lines_touched(0, 32, 32)) == [0]

    def test_lines_touched_straddling(self):
        assert list(lines_touched(30, 4, 32)) == [0, 1]

    def test_lines_touched_zero_size(self):
        assert list(lines_touched(100, 0, 32)) == []

    def test_lines_touched_negative_size_rejected(self):
        with pytest.raises(ConfigurationError):
            lines_touched(0, -1, 32)

    def test_line_count_paper_message(self):
        # A 552-byte message occupies 18 32-byte lines.
        assert line_count(552, 32) == 18

    def test_line_count_exact_multiple(self):
        assert line_count(64, 32) == 2

    def test_check_power_of_two_rejects(self):
        with pytest.raises(ConfigurationError):
            check_power_of_two(48, "size")
        with pytest.raises(ConfigurationError):
            check_power_of_two(0, "size")


class TestDirectMappedCache:
    def test_geometry(self):
        cache = DirectMappedCache(8192, 32)
        assert cache.num_lines == 256

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(8191, 32)

    def test_rejects_line_bigger_than_cache(self):
        with pytest.raises(ConfigurationError):
            DirectMappedCache(32, 64)

    def test_cold_miss_then_hit(self):
        cache = DirectMappedCache(8192, 32)
        assert cache.access_line(5) is True
        assert cache.access_line(5) is False
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_conflict_eviction(self):
        cache = DirectMappedCache(8192, 32)
        conflicting = 5 + cache.num_lines  # same set as line 5
        cache.access_line(5)
        cache.access_line(conflicting)
        assert cache.stats.evictions == 1
        assert cache.access_line(5) is True  # was evicted

    def test_flush_invalidates_but_keeps_stats(self):
        cache = DirectMappedCache(8192, 32)
        cache.access_line(1)
        cache.flush()
        assert cache.stats.misses == 1
        assert cache.access_line(1) is True

    def test_access_bytes(self):
        cache = DirectMappedCache(8192, 32)
        assert cache.access(0, 64) == 2  # two lines
        assert cache.access(0, 64) == 0

    def test_access_straddles_line(self):
        cache = DirectMappedCache(8192, 32)
        assert cache.access(30, 4) == 2

    def test_span_matches_scalar(self):
        a = DirectMappedCache(8192, 32)
        b = DirectMappedCache(8192, 32)
        for addr, size in [(0, 6144), (100, 552), (8000, 9000), (0, 6144)]:
            assert a.access_span_report(addr, size).size == b.access(addr, size)
        assert a.stats.misses == b.stats.misses
        assert a.stats.hits == b.stats.hits
        assert a.stats.evictions == b.stats.evictions

    def test_span_larger_than_cache_self_evicts(self):
        cache = DirectMappedCache(8192, 32)
        # A 16 KB sweep cannot be cached; sweeping twice misses twice.
        assert cache.access_span_report(0, 16384).size == 512
        assert cache.access_span_report(0, 16384).size == 512

    def test_span_zero_size(self):
        cache = DirectMappedCache(8192, 32)
        assert cache.access_span_report(0, 0).size == 0
        assert cache.stats.accesses == 0

    def test_negative_address_rejected(self):
        cache = DirectMappedCache(8192, 32)
        with pytest.raises(ConfigurationError):
            cache.access_span_report(-4, 8)
        with pytest.raises(ConfigurationError):
            cache.access_line(-1)

    def test_line_array_access(self):
        cache = DirectMappedCache(8192, 32)
        lines = np.arange(10, 20, dtype=np.int64)
        assert cache.access_line_array_report(lines).tolist() == list(range(10, 20))
        assert cache.access_line_array_report(lines).size == 0

    def test_line_array_empty(self):
        cache = DirectMappedCache(8192, 32)
        assert cache.access_line_array_report(np.empty(0, dtype=np.int64)).size == 0

    def test_contains(self):
        cache = DirectMappedCache(8192, 32)
        cache.access(64, 4)
        assert cache.contains(64)
        assert cache.contains(95)
        assert not cache.contains(96)

    def test_resident_lines(self):
        cache = DirectMappedCache(1024, 32)
        cache.access_line(3)
        cache.access_line(7)
        assert cache.resident_lines() == {3, 7}

    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 4096), st.integers(1, 200)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_span_always_equals_scalar(self, ops):
        """Property: the vectorized span path is exactly the scalar path."""
        fast = DirectMappedCache(1024, 32)
        slow = DirectMappedCache(1024, 32)
        for addr, size in ops:
            fast_misses = fast.access_span_report(addr, size).size
            slow_misses = slow.access(addr, size)
            assert fast_misses == slow_misses
        assert fast.resident_lines() == slow.resident_lines()
        assert fast.stats.evictions == slow.stats.evictions


class TestSetAssociativeCache:
    def test_one_way_matches_direct_mapped(self):
        direct = DirectMappedCache(1024, 32)
        assoc = SetAssociativeCache(1024, 32, ways=1)
        rng = np.random.default_rng(7)
        for line in rng.integers(0, 200, size=500):
            assert direct.access_line(int(line)) == assoc.access_line(int(line))

    def test_two_way_avoids_pingpong(self):
        # Two lines mapping to the same set ping-pong in a direct-mapped
        # cache but coexist in a 2-way cache.
        assoc = SetAssociativeCache(1024, 32, ways=2)
        a, b = 0, assoc.num_sets  # same set
        assoc.access_line(a)
        assoc.access_line(b)
        assert assoc.access_line(a) is False
        assert assoc.access_line(b) is False

    def test_lru_evicts_least_recent(self):
        assoc = SetAssociativeCache(1024, 32, ways=2)
        sets = assoc.num_sets
        a, b, c = 0, sets, 2 * sets  # all in set 0
        assoc.access_line(a)
        assoc.access_line(b)
        assoc.access_line(a)  # a is now most recent
        assoc.access_line(c)  # evicts b
        assert assoc.contains_line(a)
        assert not assoc.contains_line(b)
        assert assoc.contains_line(c)

    def test_fully_associative(self):
        assoc = SetAssociativeCache(1024, 32, ways=32)
        assert assoc.num_sets == 1
        for line in range(32):
            assoc.access_line(line)
        assert all(assoc.contains_line(line) for line in range(32))
        assoc.access_line(32)  # evicts line 0 (LRU)
        assert not assoc.contains_line(0)

    def test_rejects_excess_ways(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1024, 32, ways=64)

    def test_rejects_unknown_policy(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeCache(1024, 32, ways=2, policy="random")

    def test_fifo_hit_does_not_refresh(self):
        # The same trace as test_lru_evicts_least_recent: under FIFO the
        # hit on `a` does not refresh it, so `c` evicts `a` (the oldest
        # *insertion*), not `b`.
        assoc = SetAssociativeCache(1024, 32, ways=2, policy="fifo")
        sets = assoc.num_sets
        a, b, c = 0, sets, 2 * sets  # all in set 0
        assoc.access_line(a)
        assoc.access_line(b)
        assert assoc.access_line(a) is False  # hit; FIFO order unchanged
        assoc.access_line(c)  # evicts a, the least recently inserted
        assert not assoc.contains_line(a)
        assert assoc.contains_line(b)
        assert assoc.contains_line(c)

    def test_fifo_fully_associative_round_robin(self):
        # With one set, FIFO degenerates to round-robin over insertions.
        assoc = SetAssociativeCache(128, 32, ways=4, policy="fifo")
        for line in range(4):
            assoc.access_line(line)
        assoc.access_line(0)  # hit; does not move line 0 to the back
        assoc.access_line(4)  # evicts line 0 anyway
        assert not assoc.contains_line(0)
        assert all(assoc.contains_line(line) for line in (1, 2, 3, 4))

    def test_flush(self):
        assoc = SetAssociativeCache(1024, 32, ways=2)
        assoc.access_line(3)
        assoc.flush()
        assert not assoc.contains_line(3)

    def test_contains_line_rejects_negative(self):
        # Regression: a negative probe used to compare equal to the -1
        # invalid-slot sentinel in DirectMappedCache and report an empty
        # set as resident; both classes now reject it like access_line.
        direct = DirectMappedCache(1024, 32)
        assoc = SetAssociativeCache(1024, 32, ways=2)
        for cache in (direct, assoc):
            with pytest.raises(ConfigurationError):
                cache.contains_line(-1)
            with pytest.raises(ConfigurationError):
                cache.access_line(-1)

    def test_empty_slot_not_reported_resident(self):
        # The observable half of the sentinel bug: a cold cache holds
        # nothing, including at the set a negative line would alias.
        cache = DirectMappedCache(1024, 32)
        assert cache.resident_lines() == set()
        assert not cache.contains_line(0)
        assert not cache.contains_line(cache.num_lines - 1)

    @given(lines=st.lists(st.integers(0, 300), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_one_way_equals_direct_mapped_property(self, lines):
        """Property: 1-way set-associative is exactly direct-mapped."""
        direct = DirectMappedCache(1024, 32)
        assoc = SetAssociativeCache(1024, 32, ways=1)
        for line in lines:
            assert direct.access_line(line) == assoc.access_line(line)
        assert direct.resident_lines() == assoc.resident_lines()
        assert direct.stats.evictions == assoc.stats.evictions

    @given(lines=st.lists(st.integers(0, 300), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_misses_at_least_cold_misses(self, lines):
        """Property: any cache must miss at least once per distinct line."""
        for cache in (
            DirectMappedCache(1024, 32),
            SetAssociativeCache(1024, 32, ways=4),
        ):
            misses = sum(cache.access_line(line) for line in lines)
            assert misses >= len(set(lines))
            assert cache.stats.accesses == len(lines)
