"""Set-associative cache model with MOESI line states.

This is the building block for the per-core L1 instruction, L1 data and
private L2 caches (Table I: 32 kB 4-way L1s, 256 kB 4-way L2).  The cache
operates on physical line addresses; tag/index decomposition follows the
usual power-of-two geometry.

Only state, occupancy and replacement are modelled — there is no data
payload, because the evaluation depends on hit/miss behaviour, eviction
traffic and coherence state, never on values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.cache.replacement import LruPolicy
from repro.coherence.states import LineState
from repro.errors import ConfigurationError
from repro.memory.address import is_power_of_two


@dataclass
class CacheLine:
    """Metadata for one resident cache line."""

    line_address: int
    state: LineState
    way: int

    @property
    def dirty(self) -> bool:
        """True when eviction of this line requires a writeback."""
        return self.state.is_dirty


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for a single cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total lookups that were classified as a hit or a miss."""
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        """Miss rate over all classified lookups (0.0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses

    def as_dict(self) -> Dict[str, int]:
        """Return the raw counters (all ints) as a plain dictionary.

        Only event counts live here, so the dictionary JSON round-trips
        without any int/float coercion; derived rates are available via
        :meth:`summary`.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }

    def summary(self) -> Dict[str, float]:
        """Counters plus derived rates (for human-facing reports)."""
        data: Dict[str, float] = dict(self.as_dict())
        data["miss_rate"] = self.miss_rate
        return data


@dataclass
class _CacheSet:
    """One set: mapping from way index to resident line."""

    lines: Dict[int, CacheLine] = field(default_factory=dict)
    policy: Optional[LruPolicy] = None


class Cache:
    """A set-associative cache keyed by physical line address.

    A full set evicts its least recently used line.

    Parameters
    ----------
    name:
        Human-readable name used in statistics reports (e.g. ``"L2[3]"``).
    size_bytes, associativity, line_size:
        Standard cache geometry; ``size_bytes`` must equal
        ``sets * associativity * line_size`` for a power-of-two set count.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        line_size: int = 64,
    ) -> None:
        if size_bytes <= 0:
            raise ConfigurationError("cache size must be positive")
        if associativity <= 0:
            raise ConfigurationError("associativity must be positive")
        if not is_power_of_two(line_size):
            raise ConfigurationError("line size must be a power of two")
        if size_bytes % (associativity * line_size) != 0:
            raise ConfigurationError(
                f"cache {name}: size {size_bytes} not divisible by "
                f"associativity*line_size ({associativity * line_size})"
            )
        sets = size_bytes // (associativity * line_size)
        if not is_power_of_two(sets):
            raise ConfigurationError(
                f"cache {name}: set count {sets} must be a power of two"
            )

        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.set_count = sets
        # Memoized tag/index decomposition: line size and set count are
        # powers of two, so ``// line_size % set_count`` is a shift and a
        # mask.  These two attributes are the layout contract shared with
        # the packed engine (repro.cache.packed), which indexes its flat
        # arrays with the same decomposition.
        self.line_shift = line_size.bit_length() - 1
        self.set_mask = sets - 1
        self.stats = CacheStats()

        self._sets: List[_CacheSet] = [
            _CacheSet(policy=LruPolicy(associativity)) for _ in range(sets)
        ]

    # ------------------------------------------------------------------
    # Geometry helpers
    # ------------------------------------------------------------------
    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.set_count * self.associativity

    def set_index(self, line_address: int) -> int:
        """Return the set index for a line-aligned physical address."""
        return (line_address >> self.line_shift) & self.set_mask

    # ------------------------------------------------------------------
    # Lookup / fill / evict
    # ------------------------------------------------------------------
    def lookup(self, line_address: int, update_stats: bool = True) -> Optional[CacheLine]:
        """Return the resident line for *line_address*, or ``None`` on miss.

        When *update_stats* is true the access is counted as a hit or miss
        and LRU state is refreshed on a hit.  Pass ``False`` for coherence
        probes that should not perturb replacement or hit-rate statistics.
        """
        cache_set = self._sets[(line_address >> self.line_shift) & self.set_mask]
        for line in cache_set.lines.values():
            if line.line_address == line_address and line.state.is_valid:
                if update_stats:
                    self.stats.hits += 1
                    cache_set.policy.touch(line.way)
                return line
        if update_stats:
            self.stats.misses += 1
        return None

    def probe(self, line_address: int) -> Optional[CacheLine]:
        """Coherence probe: look up without touching stats or recency."""
        return self.lookup(line_address, update_stats=False)

    def contains(self, line_address: int) -> bool:
        """True when the line is resident in a valid state."""
        return self.probe(line_address) is not None

    def fill(self, line_address: int, state: LineState) -> Optional[CacheLine]:
        """Install a line, returning the evicted victim line if any.

        The caller is responsible for generating any writeback traffic
        implied by a dirty victim.
        """
        if not state.is_valid:
            raise ConfigurationError("cannot fill a line in the INVALID state")
        cache_set = self._sets[self.set_index(line_address)]
        policy = cache_set.policy

        existing = self.probe(line_address)
        if existing is not None:
            # Refill of a resident line is a state change, not an allocation.
            existing.state = state
            policy.touch(existing.way)
            return None

        victim: Optional[CacheLine] = None
        free_ways = [w for w in range(self.associativity) if w not in cache_set.lines]
        if free_ways:
            way = free_ways[0]
        else:
            occupied = sorted(cache_set.lines.keys())
            way = policy.victim(occupied)
            victim = cache_set.lines.pop(way)
            policy.reset(way)
            self.stats.evictions += 1

        line = CacheLine(line_address=line_address, state=state, way=way)
        cache_set.lines[way] = line
        policy.touch(way)
        return victim

    def invalidate(self, line_address: int) -> Optional[CacheLine]:
        """Invalidate a line in response to a coherence request.

        Returns the line (with its pre-invalidation state) when it was
        resident, so the caller can decide whether a writeback is needed.
        """
        cache_set = self._sets[self.set_index(line_address)]
        for way, line in list(cache_set.lines.items()):
            if line.line_address == line_address and line.state.is_valid:
                del cache_set.lines[way]
                cache_set.policy.reset(way)
                return line
        return None

    def set_state(self, line_address: int, state: LineState) -> CacheLine:
        """Change the coherence state of a resident line."""
        line = self.probe(line_address)
        if line is None:
            raise ConfigurationError(
                f"{self.name}: cannot change state of non-resident line "
                f"{line_address:#x}"
            )
        if state is LineState.INVALID:
            raise ConfigurationError("use invalidate() to drop a line")
        line.state = state
        return line

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate over all valid resident lines (unspecified order)."""
        for cache_set in self._sets:
            yield from cache_set.lines.values()

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(s.lines) for s in self._sets)

    def flush(self) -> List[CacheLine]:
        """Drop every resident line and return the dirty ones.

        Used when ALLARM is disabled for a physical range at run time
        (Section II-C: moving from ALLARM to non-ALLARM mode requires
        flushing the range from the local core).
        """
        dirty: List[CacheLine] = []
        for cache_set in self._sets:
            policy = cache_set.policy
            for way, line in list(cache_set.lines.items()):
                if line.dirty:
                    dirty.append(line)
                del cache_set.lines[way]
                policy.reset(way)
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Cache({self.name!r}, {self.size_bytes}B, "
            f"{self.associativity}-way, {self.set_count} sets)"
        )
