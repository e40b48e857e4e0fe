"""Cache hierarchy: set-associative caches, LRU replacement, MSHRs."""

from repro.cache.cache import Cache, CacheLine, CacheStats
from repro.cache.hierarchy import AccessResult, CacheHierarchy, EvictedLine, HitLevel
from repro.cache.mshr import MshrEntry, MshrFile, MshrStats
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
    "MshrEntry",
    "MshrFile",
    "MshrStats",
    "PackedCache",
    "PackedHierarchy",
    "LruPolicy",
]
