"""LRU replacement for caches and sparse directories.

The paper's probe filter and caches use LRU replacement, and so does
this model: it is the only policy (see ``docs/model.md``).

A policy instance manages *one* set.  Caches and probe filters create
one :class:`LruPolicy` per set, keeping the per-set recency stacks
isolated and easy to test.  The packed engine keeps the same recency as
per-slot touch stamps and is diffed against these stacks.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError


class LruPolicy:
    """True least-recently-used replacement using an explicit recency stack."""

    def __init__(self, associativity: int) -> None:
        if associativity <= 0:
            raise ConfigurationError("associativity must be positive")
        self.associativity = associativity
        # Most recent at the end; ways absent from the stack are treated as
        # least recent (never touched, or explicitly reset).
        self._stack: List[int] = []

    def _check_way(self, way: int) -> None:
        if way < 0 or way >= self.associativity:
            raise ConfigurationError(
                f"way {way} out of range for associativity {self.associativity}"
            )

    def touch(self, way: int) -> None:
        """Record a hit (or fill) of *way*, making it most recent."""
        self._check_way(way)
        if way in self._stack:
            self._stack.remove(way)
        self._stack.append(way)

    def victim(self, occupied_ways: List[int]) -> int:
        """Choose a victim way among *occupied_ways* (all ways are full)."""
        if not occupied_ways:
            raise ConfigurationError("victim() called with no occupied ways")
        occupied = set(occupied_ways)
        # Prefer an occupied way we have never touched, then the least
        # recently used one.
        for way in occupied_ways:
            if way not in self._stack:
                return way
        for way in self._stack:
            if way in occupied:
                return way
        raise ConfigurationError("LRU state inconsistent with occupancy")

    def reset(self, way: int) -> None:
        """Forget recency information for *way* (after an invalidation)."""
        self._check_way(way)
        if way in self._stack:
            self._stack.remove(way)

    def recency_order(self) -> List[int]:
        """Return ways from least to most recently used (for tests)."""
        return list(self._stack)
