"""Bounded LRU cache with explicit hit/miss accounting.

The serving layer's determinism contract forbids unbounded growth (lint
rule RL009 flags ``lru_cache`` without a ``maxsize`` and module-level
dict caches) and its metrics contract requires that every lookup is
countable: ``hits + misses == lookups`` must reconcile exactly in the
``serve.*`` metrics (``tests/test_serve_batch.py``).  A tiny explicit
class keeps both properties visible instead of buried in a decorator.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Generic, Hashable, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

_MISSING = object()


class BoundedLRUCache(Generic[K, V]):
    """A dict with least-recently-used eviction and lookup counters.

    Parameters
    ----------
    maxsize:
        Maximum number of retained entries.  ``0`` disables retention
        entirely — every lookup is a counted miss — which the load
        generator uses to benchmark the uncached query path without
        changing any code path shapes.
    """

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    def __init__(self, maxsize: int = 1024):
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[K, V] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def get(self, key: K) -> V | object:
        """Return the cached value (marking a hit) or :data:`MISSING`."""
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.misses += 1
            return _MISSING
        self.hits += 1
        self._entries.move_to_end(key)
        return value

    def put(self, key: K, value: V) -> None:
        """Insert/refresh an entry, evicting the LRU one when full."""
        if self.maxsize == 0:
            return
        if key in self._entries:
            self._entries.move_to_end(key)
        self._entries[key] = value
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


#: Sentinel returned by :meth:`BoundedLRUCache.get` on a miss.
MISSING = _MISSING
