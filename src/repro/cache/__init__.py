"""Cache hierarchy: set-associative caches and LRU replacement."""

from repro.cache.cache import Cache, CacheLine, CacheStats
from repro.cache.hierarchy import AccessResult, CacheHierarchy, EvictedLine, HitLevel
from repro.cache.packed import PackedCache, PackedHierarchy
from repro.cache.replacement import LruPolicy

__all__ = [
    "Cache",
    "CacheLine",
    "CacheStats",
    "CacheHierarchy",
    "AccessResult",
    "EvictedLine",
    "HitLevel",
    "PackedCache",
    "PackedHierarchy",
    "LruPolicy",
]
