"""The sparse directory (probe filter).

Each node's directory controller owns a probe filter: a set-associative
structure whose entries track which caches hold lines homed at this node.
Table I sizes it to cover 512 kB of cached data — 2x the capacity of one
private L2, matching deployed AMD Hammer systems.

An entry records the owner (the cache responsible for supplying data) and
the set of sharers.  When a set is full, allocating a new entry evicts a
victim; the eviction forces an invalidation of the victim line in every
cache holding it, which is precisely the overhead ALLARM removes for
thread-private lines (Figures 3b, 4b, 4e of the paper count these
evictions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.cache.replacement import LruPolicy
from repro.errors import ConfigurationError, ProtocolError
from repro.memory.address import is_power_of_two


@dataclass
class ProbeFilterEntry:
    """Directory state for a single tracked cache line."""

    line_address: int
    owner: Optional[int]
    sharers: Set[int] = field(default_factory=set)
    way: int = 0

    @property
    def holders(self) -> Set[int]:
        """Every cache that may hold the line (owner plus sharers)."""
        result = set(self.sharers)
        if self.owner is not None:
            result.add(self.owner)
        return result

    @property
    def holder_count(self) -> int:
        """Number of caches holding the line."""
        return len(self.holders)


@dataclass
class ProbeFilterStats:
    """Counters for one probe filter (per-directory)."""

    hits: int = 0
    misses: int = 0
    allocations: int = 0
    evictions: int = 0
    deallocations: int = 0
    eviction_invalidations: int = 0
    reads: int = 0
    writes: int = 0


@dataclass
class _FilterSet:
    entries: Dict[int, ProbeFilterEntry] = field(default_factory=dict)
    policy: Optional[LruPolicy] = None


class ProbeFilter:
    """Set-associative sparse directory for one home node.

    A full set evicts its least recently used entry.

    Parameters
    ----------
    node_id:
        The node this probe filter belongs to.
    coverage_bytes:
        Amount of cached data the filter can track (512 kB in Table I);
        the entry count is ``coverage_bytes / line_size``.
    associativity:
        Ways per set (deployed probe filters use 4; we default to 4).
    line_size:
        Cache line size in bytes.
    """

    def __init__(
        self,
        node_id: int,
        coverage_bytes: int = 512 * 1024,
        associativity: int = 4,
        line_size: int = 64,
    ) -> None:
        if coverage_bytes <= 0:
            raise ConfigurationError("probe filter coverage must be positive")
        if not is_power_of_two(line_size):
            raise ConfigurationError("probe filter line size must be a power of two")
        if coverage_bytes % (associativity * line_size) != 0:
            raise ConfigurationError(
                "probe filter coverage must be a multiple of associativity * line_size"
            )
        entry_count = coverage_bytes // line_size
        set_count = entry_count // associativity
        if not is_power_of_two(set_count):
            raise ConfigurationError(
                f"probe filter set count {set_count} must be a power of two"
            )
        self.node_id = node_id
        self.coverage_bytes = coverage_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.set_count = set_count
        self.entry_count = entry_count
        # Memoized index decomposition (same layout contract as Cache).
        self.line_shift = line_size.bit_length() - 1
        self.set_mask = set_count - 1
        self.stats = ProbeFilterStats()
        self._sets: List[_FilterSet] = [
            _FilterSet(policy=LruPolicy(associativity)) for _ in range(set_count)
        ]

    # ------------------------------------------------------------------
    def set_index(self, line_address: int) -> int:
        """Return the set index for a line-aligned address."""
        return (line_address >> self.line_shift) & self.set_mask

    def lookup(self, line_address: int) -> Optional[ProbeFilterEntry]:
        """Look up a line; counts a read access and hit/miss."""
        self.stats.reads += 1
        fset = self._sets[self.set_index(line_address)]
        for entry in fset.entries.values():
            if entry.line_address == line_address:
                self.stats.hits += 1
                fset.policy.touch(entry.way)
                return entry
        self.stats.misses += 1
        return None

    def peek(self, line_address: int) -> Optional[ProbeFilterEntry]:
        """Look up without disturbing statistics or recency (tests/debug)."""
        fset = self._sets[self.set_index(line_address)]
        for entry in fset.entries.values():
            if entry.line_address == line_address:
                return entry
        return None

    # ------------------------------------------------------------------
    def allocate(
        self, line_address: int, owner: Optional[int], sharers: Optional[Set[int]] = None
    ) -> "AllocationOutcome":
        """Allocate an entry for *line_address*, evicting a victim if needed.

        Returns an :class:`AllocationOutcome` carrying the new entry and
        the evicted victim (if any).  The caller — the directory
        controller — is responsible for turning the victim into
        invalidation messages and cache-line invalidations.
        """
        if self.peek(line_address) is not None:
            raise ProtocolError(
                f"probe filter {self.node_id}: duplicate allocation for "
                f"{line_address:#x}"
            )
        fset = self._sets[self.set_index(line_address)]
        victim: Optional[ProbeFilterEntry] = None
        free_ways = [w for w in range(self.associativity) if w not in fset.entries]
        if free_ways:
            way = free_ways[0]
        else:
            way = fset.policy.victim(sorted(fset.entries.keys()))
            victim = fset.entries.pop(way)
            fset.policy.reset(way)
            self.stats.evictions += 1
            self.stats.eviction_invalidations += victim.holder_count
            # An eviction reads out the victim's tag+state and then writes
            # the replacement: count both array accesses for energy.
            self.stats.reads += 1

        entry = ProbeFilterEntry(
            line_address=line_address,
            owner=owner,
            sharers=set(sharers or ()),
            way=way,
        )
        fset.entries[way] = entry
        fset.policy.touch(way)
        self.stats.allocations += 1
        self.stats.writes += 1
        return AllocationOutcome(entry=entry, victim=victim)

    def deallocate(self, line_address: int) -> ProbeFilterEntry:
        """Remove the entry for a line (e.g. after the last holder evicts it)."""
        fset = self._sets[self.set_index(line_address)]
        for way, entry in list(fset.entries.items()):
            if entry.line_address == line_address:
                del fset.entries[way]
                fset.policy.reset(way)
                self.stats.deallocations += 1
                self.stats.writes += 1
                return entry
        raise ProtocolError(
            f"probe filter {self.node_id}: deallocation of untracked line "
            f"{line_address:#x}"
        )

    def update(self, entry: ProbeFilterEntry) -> None:
        """Record a state update to an existing entry (energy accounting)."""
        self.stats.writes += 1

    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        """Number of entries currently allocated."""
        return sum(len(s.entries) for s in self._sets)

    def entries(self) -> Iterator[ProbeFilterEntry]:
        """Iterate over all allocated entries."""
        for fset in self._sets:
            yield from fset.entries.values()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProbeFilter(node={self.node_id}, coverage={self.coverage_bytes}B, "
            f"{self.associativity}-way)"
        )


@dataclass
class AllocationOutcome:
    """Result of :meth:`ProbeFilter.allocate`."""

    entry: ProbeFilterEntry
    victim: Optional[ProbeFilterEntry]

    @property
    def caused_eviction(self) -> bool:
        """True when the allocation displaced an existing entry."""
        return self.victim is not None
