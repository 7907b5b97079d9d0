"""A small bounded LRU cache with hit/miss/eviction accounting.

The batch session (:class:`repro.core.api.PerfXplainSession`) memoises four
kinds of intermediate work — whole explanations, encoded training matrices,
pair-of-interest selections and pair-feature vectors.  Against a long-lived
service (:mod:`repro.service`) those caches see unbounded traffic, so each
one is an :class:`LRUCache`: capacity-bounded with least-recently-used
eviction, or unlimited when constructed with ``capacity=None``.

Every cache keeps running :class:`CacheStats` counters so operators can see
how much work the session layer is actually saving
(:meth:`repro.core.api.PerfXplainSession.cache_stats`, surfaced per log by
:meth:`repro.service.PerfXplainService.stats`).

The cache is thread-safe: every operation — lookup, insertion, eviction,
selective invalidation, stats — runs under one internal mutex, so
concurrent readers (the service's reader-writer sessions) can probe and
fill a shared cache without torn recency state or lost counters.  The
critical sections are dictionary probes, never computations; pair the
cache with :class:`repro.core.locks.SingleFlight` to make cold-key
computations run once instead of racing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterator

__all__ = ["CacheStats", "LRUCache"]

_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's accounting counters.

    :param hits: lookups that found their key.
    :param misses: lookups that did not.
    :param evictions: entries dropped because the cache was at capacity.
    :param size: entries currently held.
    :param capacity: maximum entries held (``None`` = unlimited).
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int | None

    @property
    def lookups(self) -> int:
        """Total lookups observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0.0 when nothing was looked up)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def to_dict(self) -> dict[str, Any]:
        """A JSON-compatible form (used by the service stats endpoint)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": self.size,
            "capacity": self.capacity,
            "hit_rate": round(self.hit_rate, 6),
        }


class LRUCache:
    """A mapping bounded by entry count with least-recently-used eviction.

    ``capacity=None`` disables eviction entirely (the cache degenerates to
    a counting dict); ``capacity=0`` caches nothing, so every lookup misses
    — useful for switching memoisation off without touching call sites.

    Lookups go through :meth:`get` (which counts a hit or a miss and
    refreshes recency); insertion goes through :meth:`put`.  The
    ``key in cache`` / ``cache[key]`` protocol is supported for tests and
    introspection but deliberately does *not* touch the counters or the
    recency order.
    """

    __slots__ = ("_capacity", "_entries", "_hits", "_misses", "_evictions", "_lock")

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError("capacity must be >= 0 or None for unlimited")
        self._capacity = capacity
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._lock = threading.Lock()

    @property
    def capacity(self) -> int | None:
        """The configured bound (``None`` = unlimited)."""
        return self._capacity

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The cached value for ``key`` (counted, recency-refreshed)."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU one if needed."""
        if self._capacity == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            if self._capacity is not None and len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def stats(self) -> CacheStats:
        """A snapshot of the accounting counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                capacity=self._capacity,
            )

    def discard_if(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``.

        Selective invalidation for append-only log growth: the session
        keeps entries whose clause signature never touches the grown
        record kind and discards only the rest.  Returns the number of
        entries dropped; discards are not counted as evictions (the
        cache was not at capacity — the entries went stale).
        """
        with self._lock:
            stale = [key for key in self._entries if predicate(key)]
            for key in stale:
                del self._entries[key]
            return len(stale)

    def replace_if(
        self, predicate: Callable[[Hashable], bool], replace: Callable[[Any], Any]
    ) -> int:
        """Swap the value of every entry whose key satisfies ``predicate``
        for ``replace(value)``, keeping its recency.  Returns the number of
        entries swapped; nothing is counted."""
        with self._lock:
            keys = [key for key in self._entries if predicate(key)]
            for key in keys:
                self._entries[key] = replace(self._entries[key])
            return len(keys)

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._entries

    def __getitem__(self, key: Hashable) -> Any:
        return self._entries[key]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._entries)
