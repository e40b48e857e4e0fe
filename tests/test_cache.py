"""Tests for LRU replacement and the set-associative cache."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import Cache
from repro.cache.replacement import LruPolicy
from repro.coherence.states import LineState
from repro.errors import ConfigurationError


class TestLruPolicy:
    def test_untouched_way_is_preferred_victim(self):
        policy = LruPolicy(4)
        policy.touch(0)
        policy.touch(1)
        assert policy.victim([0, 1, 2, 3]) == 2

    def test_least_recently_touched_evicted(self):
        policy = LruPolicy(4)
        for way in (0, 1, 2, 3):
            policy.touch(way)
        policy.touch(0)
        assert policy.victim([0, 1, 2, 3]) == 1

    def test_reset_forgets_recency(self):
        policy = LruPolicy(2)
        policy.touch(0)
        policy.touch(1)
        policy.reset(0)
        # Way 0 now looks untouched, making it the victim again.
        assert policy.victim([0, 1]) == 0

    def test_recency_order_exposed(self):
        policy = LruPolicy(4)
        policy.touch(2)
        policy.touch(0)
        assert policy.recency_order() == [2, 0]

    def test_victim_requires_occupancy(self):
        policy = LruPolicy(4)
        with pytest.raises(ConfigurationError):
            policy.victim([])

    def test_way_bounds_checked(self):
        policy = LruPolicy(4)
        with pytest.raises(ConfigurationError):
            policy.touch(4)


class TestCacheBasics:
    def make_cache(self, **kwargs) -> Cache:
        defaults = dict(name="test", size_bytes=4096, associativity=4, line_size=64)
        defaults.update(kwargs)
        return Cache(**defaults)

    def test_geometry(self):
        cache = self.make_cache()
        assert cache.set_count == 16
        assert cache.capacity_lines == 64

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_cache(size_bytes=4000)
        with pytest.raises(ConfigurationError):
            self.make_cache(associativity=0)
        with pytest.raises(ConfigurationError):
            self.make_cache(line_size=100)

    def test_miss_then_hit(self):
        cache = self.make_cache()
        assert cache.lookup(0x100) is None
        cache.fill(0x100, LineState.EXCLUSIVE)
        line = cache.lookup(0x100)
        assert line is not None
        assert line.state is LineState.EXCLUSIVE
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_probe_does_not_touch_stats(self):
        cache = self.make_cache()
        cache.fill(0x100, LineState.SHARED)
        before = (cache.stats.hits, cache.stats.misses)
        assert cache.probe(0x100) is not None
        assert cache.probe(0x140) is None
        assert (cache.stats.hits, cache.stats.misses) == before

    def test_fill_rejects_invalid_state(self):
        cache = self.make_cache()
        with pytest.raises(ConfigurationError):
            cache.fill(0x100, LineState.INVALID)

    def test_eviction_on_conflict(self):
        cache = self.make_cache(size_bytes=1024, associativity=2)
        # 8 sets; addresses 64*8 apart share a set.
        stride = 64 * 8
        cache.fill(0 * stride, LineState.EXCLUSIVE)
        cache.fill(1 * stride, LineState.EXCLUSIVE)
        victim = cache.fill(2 * stride, LineState.EXCLUSIVE)
        assert victim is not None
        assert cache.stats.evictions == 1
        assert not cache.contains(victim.line_address)

    def test_dirty_eviction_counted(self):
        cache = self.make_cache(size_bytes=1024, associativity=2)
        stride = 64 * 8
        cache.fill(0 * stride, LineState.MODIFIED)
        cache.fill(1 * stride, LineState.EXCLUSIVE)
        victim = cache.fill(2 * stride, LineState.SHARED)
        assert victim is not None and victim.dirty
        assert victim.line_address == 0
        assert cache.stats.evictions == 1

    def test_invalidate_returns_prior_state(self):
        cache = self.make_cache()
        cache.fill(0x200, LineState.MODIFIED)
        line = cache.invalidate(0x200)
        assert line is not None and line.state is LineState.MODIFIED
        assert not cache.contains(0x200)
        assert cache.invalidate(0x200) is None

    def test_set_state_rejects_missing_line(self):
        cache = self.make_cache()
        with pytest.raises(ConfigurationError):
            cache.set_state(0x200, LineState.SHARED)

    def test_set_state_rejects_invalid(self):
        cache = self.make_cache()
        cache.fill(0x200, LineState.SHARED)
        with pytest.raises(ConfigurationError):
            cache.set_state(0x200, LineState.INVALID)

    def test_flush_returns_dirty_lines(self):
        cache = self.make_cache()
        cache.fill(0x100, LineState.MODIFIED)
        cache.fill(0x140, LineState.SHARED)
        dirty = cache.flush()
        assert [line.line_address for line in dirty] == [0x100]
        assert cache.occupancy() == 0

    def test_refill_updates_state_without_eviction(self):
        cache = self.make_cache()
        cache.fill(0x100, LineState.SHARED)
        victim = cache.fill(0x100, LineState.MODIFIED)
        assert victim is None
        assert cache.probe(0x100).state is LineState.MODIFIED
        assert cache.occupancy() == 1

    def test_miss_rate(self):
        cache = self.make_cache()
        cache.lookup(0x100)
        cache.fill(0x100, LineState.SHARED)
        cache.lookup(0x100)
        assert cache.stats.miss_rate == pytest.approx(0.5)
        assert cache.stats.summary()["miss_rate"] == pytest.approx(0.5)

    def test_as_dict_is_pure_int_counters(self):
        # Regression: as_dict() used to mix int counters with the derived
        # float miss_rate under a Dict[str, float] annotation, so snapshot
        # JSON round-trips silently coerced counter types.  Counters and
        # derived rates are now split between as_dict() and summary().
        import json

        cache = self.make_cache()
        cache.lookup(0x100)
        cache.fill(0x100, LineState.SHARED)
        cache.lookup(0x100)

        counters = cache.stats.as_dict()
        assert "miss_rate" not in counters
        assert all(type(value) is int for value in counters.values())
        round_tripped = json.loads(json.dumps(counters))
        assert round_tripped == counters
        assert all(type(value) is int for value in round_tripped.values())

        summary = cache.stats.summary()
        assert set(summary) == set(counters) | {"miss_rate"}


class TestCacheProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, line_indices):
        cache = Cache("prop", size_bytes=2048, associativity=2, line_size=64)
        for index in line_indices:
            cache.fill(index * 64, LineState.EXCLUSIVE)
        assert cache.occupancy() <= cache.capacity_lines

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=255), min_size=1, max_size=300))
    def test_most_recent_fill_always_resident(self, line_indices):
        cache = Cache("prop", size_bytes=2048, associativity=2, line_size=64)
        for index in line_indices:
            address = index * 64
            cache.fill(address, LineState.EXCLUSIVE)
            assert cache.contains(address)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=127), st.booleans()),
            min_size=1,
            max_size=200,
        )
    )
    def test_fills_plus_evictions_balance_occupancy(self, operations):
        cache = Cache("prop", size_bytes=1024, associativity=4, line_size=64)
        resident = set()
        for index, invalidate in operations:
            address = index * 64
            if invalidate:
                cache.invalidate(address)
                resident.discard(address)
            else:
                victim = cache.fill(address, LineState.SHARED)
                if victim is not None:
                    resident.remove(victim.line_address)
                resident.add(address)
        assert cache.occupancy() == len(resident)
        assert {line.line_address for line in cache.resident_lines()} == resident
