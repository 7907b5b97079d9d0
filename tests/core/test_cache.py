"""Tests for the bounded LRU cache behind the session and service layers."""

import pytest

from repro.core.cache import CacheStats, LRUCache


class TestLRUCache:
    def test_get_put_round_trip(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.get("missing") is None
        assert cache.get("missing", default=42) == 42

    def test_eviction_drops_least_recently_used(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refreshes "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 1
        assert cache.get("c") == 3

    def test_put_refreshes_recency(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # re-put refreshes, does not grow
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_unlimited_capacity_never_evicts(self):
        cache = LRUCache(capacity=None)
        for index in range(10_000):
            cache.put(index, index)
        assert len(cache) == 10_000
        assert cache.stats().evictions == 0

    def test_zero_capacity_caches_nothing(self):
        cache = LRUCache(capacity=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None
        assert cache.stats().misses == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(capacity=-1)

    def test_stats_accounting(self):
        cache = LRUCache(capacity=1)
        cache.put("a", 1)
        cache.get("a")
        cache.get("b")
        cache.put("b", 2)  # evicts "a"
        stats = cache.stats()
        assert stats == CacheStats(hits=1, misses=1, evictions=1, size=1, capacity=1)
        assert stats.lookups == 2
        assert stats.hit_rate == 0.5

    def test_stats_to_dict_is_json_compatible(self):
        stats = LRUCache(capacity=8).stats()
        payload = stats.to_dict()
        assert payload["capacity"] == 8
        assert payload["hit_rate"] == 0.0
        assert set(payload) == {
            "hits", "misses", "evictions", "size", "capacity", "hit_rate",
        }

    def test_contains_and_getitem_do_not_count(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        assert "a" in cache
        assert cache["a"] == 1
        assert cache.stats().hits == 0
        assert cache.stats().misses == 0

    def test_replace_if_swaps_values_in_place(self):
        cache = LRUCache(capacity=3)
        for key, value in (("a1", 1), ("b", 2), ("a2", 3)):
            cache.put(key, value)
        assert cache.replace_if(lambda key: key.startswith("a"), lambda value: -value) == 2
        assert [(key, cache[key]) for key in cache] == [("a1", -1), ("b", 2), ("a2", -3)]
        assert cache.stats().hits == cache.stats().misses == 0
        # Recency is kept: "a1" is still the least recently used.
        cache.put("c", 4)
        assert "a1" not in cache

    def test_clear_keeps_counters(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats().hits == 1
