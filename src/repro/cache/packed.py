"""Packed array-based cache model: the fast engine's data layout.

The reference :class:`~repro.cache.cache.Cache` stores one ``CacheLine``
dataclass per resident line inside per-set dictionaries and delegates
recency to per-set :class:`~repro.cache.replacement.ReplacementPolicy`
objects.  That object graph is expressive but costs a dictionary walk,
several enum-property calls and a dataclass allocation on *every*
simulated access — and the paper's evaluation replays multi-million
access streams per sweep point.

:class:`PackedCache` keeps the same externally observable behaviour in
flat per-cache arrays indexed by ``set * associativity + way``:

* ``tags`` — an ``array('q')`` of line addresses (``-1`` marks a free
  way), so the hit path is one C-level ``array.index`` scan;
* ``states`` — a ``bytearray`` of MOESI codes (int comparisons and table
  lookups replace enum properties);
* ``stamps`` — an ``array('q')`` of monotonically increasing touch
  stamps implementing exact LRU (``0`` = never touched / reset);
* per-set tree-PLRU bit words and lazily created per-set seeded RNGs for
  the other replacement policies.

**Bit-identical parity with the reference engine is a hard contract**,
verified by ``tests/test_packed_engine.py`` and the cross-engine
property suite: for any op sequence, a ``PackedCache`` must produce the
same hits, misses, fills, eviction victims (same way!), states and
stats as a ``Cache`` built with the same parameters — including the
reference quirks (LRU prefers an untouched occupied way in ascending
way order; the per-set random RNG is seeded ``seed + set_index + 1``
and consumes one ``choice`` per eviction).

:class:`PackedHierarchy` mirrors :class:`~repro.cache.hierarchy.CacheHierarchy`
(L1I + L1D + inclusive L2) on top of packed caches, exposing the same
invalidate/downgrade probes the packed directory fast path drives and
the same counters the statistics collector reads.
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, Iterator, List, Optional

from repro.cache.cache import Cache, CacheLine, CacheStats
from repro.cache.hierarchy import AccessResult, EvictedLine, HitLevel
from repro.cache.mshr import MshrFile
from repro.coherence.states import LineState
from repro.errors import ConfigurationError
from repro.memory.address import is_power_of_two

# ----------------------------------------------------------------------
# MOESI state encoding
# ----------------------------------------------------------------------
#: Packed state codes.  INVALID must be 0 so a zeroed ``states`` array is
#: an empty cache.
STATE_INVALID = 0
STATE_SHARED = 1
STATE_OWNED = 2
STATE_EXCLUSIVE = 3
STATE_MODIFIED = 4

#: Enum -> code and code -> enum translations.
STATE_TO_CODE: Dict[LineState, int] = {
    LineState.INVALID: STATE_INVALID,
    LineState.SHARED: STATE_SHARED,
    LineState.OWNED: STATE_OWNED,
    LineState.EXCLUSIVE: STATE_EXCLUSIVE,
    LineState.MODIFIED: STATE_MODIFIED,
}
CODE_TO_STATE = (
    LineState.INVALID,
    LineState.SHARED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.MODIFIED,
)

#: Per-code predicate tables mirroring the ``LineState`` properties.
CODE_CAN_WRITE = (False, False, False, True, True)  # M, E
CODE_IS_DIRTY = (False, False, True, False, True)  # M, O
CODE_IS_OWNER = (False, False, True, True, True)  # M, O, E

#: Code-level ``LineState.after_remote_read`` transition table
#: (M -> O, E -> S, O/S stay; INVALID has no legal remote read and maps
#: to 0 only so the table is total).
CODE_AFTER_REMOTE_READ = (
    STATE_INVALID,
    STATE_SHARED,
    STATE_OWNED,
    STATE_SHARED,
    STATE_OWNED,
)

#: Replacement policy kinds (`PackedCache.kind`).
POLICY_LRU = 0
POLICY_PLRU = 1
POLICY_RANDOM = 2
_POLICY_KINDS = {"lru": POLICY_LRU, "plru": POLICY_PLRU, "random": POLICY_RANDOM}

#: Access classification codes returned by
#: :meth:`PackedHierarchy.access_fast`.  Codes below ``ACCESS_MISS`` are
#: hits; codes above are upgrades (present but not writable).
ACCESS_HIT_L1 = 0
ACCESS_HIT_L2 = 1
ACCESS_MISS = 2
ACCESS_UPGRADE_L1 = 3
ACCESS_UPGRADE_L2 = 4


# ----------------------------------------------------------------------
# Tree-PLRU helpers (bit-word form of replacement.TreePlruPolicy)
# ----------------------------------------------------------------------
def plru_touch(bits: int, way: int, associativity: int) -> int:
    """Return the PLRU bit word after touching *way* (points away from it)."""
    node = 1
    span = associativity
    base = 0
    while span > 1:
        half = span >> 1
        if way < base + half:
            bits |= 1 << node  # point away: to the right half
            node <<= 1
        else:
            bits &= ~(1 << node)  # point to the left half
            node = (node << 1) | 1
            base += half
        span = half
    return bits


def plru_victim(bits: int, associativity: int) -> int:
    """Return the way the PLRU bit word points at (for a full set)."""
    node = 1
    span = associativity
    base = 0
    while span > 1:
        half = span >> 1
        if (bits >> node) & 1 == 0:
            node <<= 1
        else:
            node = (node << 1) | 1
            base += half
        span = half
    return base


class PackedCache:
    """A set-associative cache stored in flat arrays.

    Construction parameters and validation match
    :class:`~repro.cache.cache.Cache` exactly.  The public API mirrors
    the reference cache, with two documented differences:

    * ``lookup``/``probe``/``resident_lines`` return freshly built
      :class:`~repro.cache.cache.CacheLine` *views* — mutating them does
      not change cache state (use :meth:`set_state`/:meth:`invalidate`);
    * ``stats`` is a property materialising a
      :class:`~repro.cache.cache.CacheStats` from the flat counters, so
      it too is a read-only snapshot.
    """

    __slots__ = (
        "name",
        "size_bytes",
        "associativity",
        "line_size",
        "set_count",
        "set_mask",
        "line_shift",
        "kind",
        "tags",
        "states",
        "stamps",
        "stamp",
        "plru_bits",
        "_rng_seed",
        "_rngs",
        "hits",
        "misses",
        "fills",
        "evictions",
        "dirty_evictions",
        "invalidations_received",
        "upgrades",
    )

    def __init__(
        self,
        name: str,
        size_bytes: int,
        associativity: int,
        line_size: int = 64,
        replacement: str = "lru",
        seed: int = 0,
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
        try:
            kind = _POLICY_KINDS[replacement]
        except KeyError:
            raise ConfigurationError(
                f"unknown replacement policy {replacement!r}; expected one of "
                f"('lru', 'plru', 'random')"
            ) from None
        if kind == POLICY_PLRU and associativity & (associativity - 1) != 0:
            raise ConfigurationError("tree PLRU needs power-of-two associativity")

        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.set_count = sets
        self.set_mask = sets - 1
        self.line_shift = line_size.bit_length() - 1
        self.kind = kind

        capacity = sets * associativity
        self.tags = array("q", [-1]) * capacity
        self.states = bytearray(capacity)
        self.stamps = array("q", [0]) * capacity
        self.stamp = 0
        self.plru_bits: List[int] = [0] * sets if kind == POLICY_PLRU else []
        # Reference parity: ReplacementPolicyFactory seeds set i's RNG
        # with ``seed + i + 1`` (its counter pre-increments).  RNGs are
        # created lazily — their state depends only on how many victim
        # choices the set has made, never on creation time.
        self._rng_seed = seed
        self._rngs: Dict[int, random.Random] = {}

        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.invalidations_received = 0
        self.upgrades = 0

    # ------------------------------------------------------------------
    # Geometry / introspection
    # ------------------------------------------------------------------
    @property
    def capacity_lines(self) -> int:
        """Total number of lines the cache can hold."""
        return self.set_count * self.associativity

    @property
    def stats(self) -> CacheStats:
        """Read-only snapshot of the counters as a ``CacheStats``."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            fills=self.fills,
            evictions=self.evictions,
            dirty_evictions=self.dirty_evictions,
            invalidations_received=self.invalidations_received,
            upgrades=self.upgrades,
        )

    def set_index(self, line_address: int) -> int:
        """Return the set index for a line-aligned physical address."""
        return (line_address >> self.line_shift) & self.set_mask

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot of every mutable field of this cache.

        Covers the flat arrays (tags, MOESI state codes, LRU stamps),
        the global stamp counter, per-set PLRU words, the states of all
        lazily created per-set RNGs (keyed by set index — RNGs never
        consulted are omitted, preserving lazy-creation semantics), and
        the seven stat counters.
        """
        return {
            "tags": self.tags.tobytes(),
            "states": bytes(self.states),
            "stamps": self.stamps.tobytes(),
            "stamp": self.stamp,
            "plru_bits": list(self.plru_bits),
            "rngs": {idx: rng.getstate() for idx, rng in self._rngs.items()},
            "counters": (
                self.hits,
                self.misses,
                self.fills,
                self.evictions,
                self.dirty_evictions,
                self.invalidations_received,
                self.upgrades,
            ),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The backing ``tags``/``states``/``stamps`` buffers are updated
        with equal-length slice assignment and never reallocated, so
        zero-copy views bound over them stay attached to live storage.
        """
        tags = array("q")
        tags.frombytes(state["tags"])
        stamps = array("q")
        stamps.frombytes(state["stamps"])
        if len(tags) != len(self.tags) or len(state["states"]) != len(self.states):
            raise ConfigurationError(
                f"cache {self.name}: checkpoint does not match this geometry"
            )
        self.tags[:] = tags
        self.states[:] = state["states"]
        self.stamps[:] = stamps
        self.stamp = state["stamp"]
        self.plru_bits[:] = state["plru_bits"]
        self._rngs.clear()
        for idx, rng_state in state["rngs"].items():
            rng = random.Random()
            rng.setstate(rng_state)
            self._rngs[idx] = rng
        (
            self.hits,
            self.misses,
            self.fills,
            self.evictions,
            self.dirty_evictions,
            self.invalidations_received,
            self.upgrades,
        ) = state["counters"]

    # ------------------------------------------------------------------
    # Internal packed primitives
    # ------------------------------------------------------------------
    def find(self, line_address: int) -> int:
        """Return the flat slot of a resident line, or ``-1``.

        Occupied slots always hold a valid line (invalidation frees the
        slot), so a tag match alone identifies residency.
        """
        base = (
            (line_address >> self.line_shift) & self.set_mask
        ) * self.associativity
        try:
            return self.tags.index(line_address, base, base + self.associativity)
        except ValueError:
            return -1

    def touch(self, slot: int) -> None:
        """Record a hit/fill of *slot*, updating replacement state."""
        kind = self.kind
        if kind == POLICY_LRU:
            stamp = self.stamp + 1
            self.stamp = stamp
            self.stamps[slot] = stamp
        elif kind == POLICY_PLRU:
            assoc = self.associativity
            set_index, way = divmod(slot, assoc)
            self.plru_bits[set_index] = plru_touch(
                self.plru_bits[set_index], way, assoc
            )
        # POLICY_RANDOM keeps no recency state.

    def _reset(self, slot: int) -> None:
        """Forget recency information for a freed *slot*."""
        if self.kind == POLICY_LRU:
            self.stamps[slot] = 0

    def victim_way(self, set_index: int) -> int:
        """Choose the eviction victim way of a *full* set.

        Reproduces the reference policies exactly: LRU prefers an
        occupied-but-never-touched way in ascending way order, then the
        minimum stamp; PLRU walks the tree bits; random consumes one
        ``Random.choice`` from the per-set RNG.
        """
        kind = self.kind
        assoc = self.associativity
        if kind == POLICY_LRU:
            # Touched ways carry distinct positive stamps, so the first
            # minimum is the first never-touched (0) way if there is one,
            # else the least recently used way.
            base = set_index * assoc
            window = self.stamps[base:base + assoc]
            return window.index(min(window))
        if kind == POLICY_PLRU:
            return plru_victim(self.plru_bits[set_index], assoc)
        rng = self._rngs.get(set_index)
        if rng is None:
            rng = self._rngs[set_index] = random.Random(
                self._rng_seed + set_index + 1
            )
        return rng.choice(range(assoc))

    # ------------------------------------------------------------------
    # Reference-compatible API
    # ------------------------------------------------------------------
    def _view(self, slot: int) -> CacheLine:
        return CacheLine(
            line_address=self.tags[slot],
            state=CODE_TO_STATE[self.states[slot]],
            way=slot % self.associativity,
        )

    def lookup(
        self, line_address: int, update_stats: bool = True
    ) -> Optional[CacheLine]:
        """Return a view of the resident line, or ``None`` on a miss."""
        slot = self.find(line_address)
        if slot >= 0:
            if update_stats:
                self.hits += 1
                self.touch(slot)
            return self._view(slot)
        if update_stats:
            self.misses += 1
        return None

    def probe(self, line_address: int) -> Optional[CacheLine]:
        """Coherence probe: look up without touching stats or recency."""
        slot = self.find(line_address)
        return self._view(slot) if slot >= 0 else None

    def contains(self, line_address: int) -> bool:
        """True when the line is resident in a valid state."""
        return self.find(line_address) >= 0

    def fill(self, line_address: int, state: LineState) -> Optional[CacheLine]:
        """Install a line, returning the evicted victim line if any."""
        if state is LineState.INVALID:
            raise ConfigurationError("cannot fill a line in the INVALID state")
        code = STATE_TO_CODE[state]
        slot = self.find(line_address)
        if slot >= 0:
            # Refill of a resident line is a state change, not an allocation.
            self.states[slot] = code
            self.touch(slot)
            return None
        victim = self._fill_code(line_address, code)
        if victim is None:
            return None
        return CacheLine(line_address=victim[0], state=CODE_TO_STATE[victim[1]], way=victim[2])

    def _fill_code(self, line_address: int, code: int):
        """Allocate a non-resident line; return ``(tag, code, way)`` victim or None.

        Hot-path form of :meth:`fill`: no enum translation, no view
        allocation unless a victim exists.  The caller guarantees the
        line is not resident.
        """
        assoc = self.associativity
        base = ((line_address >> self.line_shift) & self.set_mask) * assoc
        tags = self.tags
        victim = None
        try:
            slot = tags.index(-1, base, base + assoc)
        except ValueError:
            way = self.victim_way(base // assoc)
            slot = base + way
            victim = (tags[slot], self.states[slot], way)
            self.evictions += 1
            if CODE_IS_DIRTY[victim[1]]:
                self.dirty_evictions += 1
        tags[slot] = line_address
        self.states[slot] = code
        self.touch(slot)
        self.fills += 1
        return victim

    def _drop(self, line_address: int) -> int:
        """Invalidate a line; return its prior state code, or 0 if absent.

        Hot-path form of :meth:`invalidate`: no view is built, and
        ``STATE_INVALID`` (0) doubles as "not resident".
        """
        assoc = self.associativity
        base = ((line_address >> self.line_shift) & self.set_mask) * assoc
        try:
            slot = self.tags.index(line_address, base, base + assoc)
        except ValueError:
            return STATE_INVALID
        code = self.states[slot]
        self.tags[slot] = -1
        self.states[slot] = STATE_INVALID
        if self.kind == POLICY_LRU:
            self.stamps[slot] = 0
        self.invalidations_received += 1
        return code

    def invalidate(self, line_address: int) -> Optional[CacheLine]:
        """Invalidate a line; return its pre-invalidation view if resident."""
        slot = self.find(line_address)
        if slot < 0:
            return None
        line = self._view(slot)
        self._drop(line_address)
        return line

    def set_state(self, line_address: int, state: LineState) -> CacheLine:
        """Change the coherence state of a resident line."""
        slot = self.find(line_address)
        if slot < 0:
            raise ConfigurationError(
                f"{self.name}: cannot change state of non-resident line "
                f"{line_address:#x}"
            )
        if state is LineState.INVALID:
            raise ConfigurationError("use invalidate() to drop a line")
        code = STATE_TO_CODE[state]
        if CODE_CAN_WRITE[code] and not CODE_CAN_WRITE[self.states[slot]]:
            self.upgrades += 1
        self.states[slot] = code
        return self._view(slot)

    # ------------------------------------------------------------------
    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate views of all valid resident lines (unspecified order)."""
        tags = self.tags
        for slot in range(len(tags)):
            if tags[slot] >= 0:
                yield self._view(slot)

    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return len(self.tags) - self.tags.count(-1)

    def flush(self) -> List[CacheLine]:
        """Drop every resident line and return the dirty ones."""
        dirty: List[CacheLine] = []
        tags = self.tags
        states = self.states
        for slot in range(len(tags)):
            if tags[slot] < 0:
                continue
            if CODE_IS_DIRTY[states[slot]]:
                dirty.append(self._view(slot))
            tags[slot] = -1
            states[slot] = STATE_INVALID
            self._reset(slot)
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedCache({self.name!r}, {self.size_bytes}B, "
            f"{self.associativity}-way, {self.set_count} sets)"
        )


class PackedHierarchy:
    """L1I + L1D + inclusive private L2 over :class:`PackedCache` arrays.

    Mirrors :class:`~repro.cache.hierarchy.CacheHierarchy`'s constructor,
    seeds and coherence-side probes, so the packed directory fast path
    and the statistics collector drive it like the reference.  The
    core-side access path is :meth:`access_fast`, an int-coded
    classification used by the packed machine's inlined hot loop;
    :meth:`access` wraps it in the reference ``AccessResult`` shape.
    """

    def __init__(
        self,
        core_id: int,
        l1i_size: int = 32 * 1024,
        l1d_size: int = 32 * 1024,
        l1_assoc: int = 4,
        l2_size: int = 256 * 1024,
        l2_assoc: int = 4,
        line_size: int = 64,
        replacement: str = "lru",
        mshr_capacity: int = 16,
    ) -> None:
        if l2_size < l1d_size or l2_size < l1i_size:
            raise ConfigurationError(
                "inclusive L2 must be at least as large as each L1"
            )
        self.core_id = core_id
        self.line_size = line_size
        self.l1i = PackedCache(
            f"L1I[{core_id}]", l1i_size, l1_assoc, line_size, replacement,
            seed=core_id * 3 + 1,
        )
        self.l1d = PackedCache(
            f"L1D[{core_id}]", l1d_size, l1_assoc, line_size, replacement,
            seed=core_id * 3 + 2,
        )
        self.l2 = PackedCache(
            f"L2[{core_id}]", l2_size, l2_assoc, line_size, replacement,
            seed=core_id * 3 + 3,
        )
        self.mshrs = MshrFile(mshr_capacity)

    # ------------------------------------------------------------------
    # Core-side access path
    # ------------------------------------------------------------------
    def access_fast(
        self,
        line_address: int,
        is_write: bool,
        is_instruction: bool,
        l1_slot: Optional[int] = None,
    ) -> int:
        """Classify and service one access; return an ``ACCESS_*`` code.

        Hit-path side effects (stat counters, recency, L1 refills, the
        silent L2 write upgrade to MODIFIED) are applied here, exactly
        as the reference hierarchy would.  *l1_slot* lets the machine's
        inlined hot loop pass an L1 scan result it already computed
        (``-1`` = scanned and absent).

        One deliberate divergence from the reference: the L2 inclusion
        probe on an L1 *read* hit — whose only effect is raising on a
        corrupted hierarchy — is skipped; the cross-engine property
        suite and the coherence invariant checker cover inclusion
        instead, and the hit path stays two array scans shorter.
        """
        l1 = self.l1i if is_instruction else self.l1d
        if l1_slot is None:
            l1_slot = l1.find(line_address)
        if l1_slot >= 0:
            l1.hits += 1
            l1.touch(l1_slot)
            if not is_write:
                return ACCESS_HIT_L1
            l2 = self.l2
            l2_slot = l2.find(line_address)
            if l2_slot < 0:
                raise ConfigurationError(
                    f"inclusion violated: line {line_address:#x} in "
                    f"{l1.name} but not in {l2.name}"
                )
            if CODE_CAN_WRITE[l2.states[l2_slot]]:
                l2.states[l2_slot] = STATE_MODIFIED
                return ACCESS_HIT_L1
            # Present but not writable: upgrade needed.
            return ACCESS_UPGRADE_L1

        l1.misses += 1
        l2 = self.l2
        l2_slot = l2.find(line_address)
        if l2_slot >= 0:
            l2.hits += 1
            l2.touch(l2_slot)
            code = l2.states[l2_slot]
            if not is_write:
                l1._fill_code(line_address, code)
                return ACCESS_HIT_L2
            if CODE_CAN_WRITE[code]:
                l2.states[l2_slot] = STATE_MODIFIED
                l1._fill_code(line_address, STATE_MODIFIED)
                return ACCESS_HIT_L2
            return ACCESS_UPGRADE_L2

        l2.misses += 1
        return ACCESS_MISS

    def access(
        self, line_address: int, is_write: bool, is_instruction: bool = False
    ) -> AccessResult:
        """Reference-shaped access entry point (compat for tests/tools)."""
        code = self.access_fast(line_address, is_write, is_instruction)
        if code in (ACCESS_HIT_L1, ACCESS_UPGRADE_L1):
            level = HitLevel.L1
        elif code in (ACCESS_HIT_L2, ACCESS_UPGRADE_L2):
            level = HitLevel.L2
        else:
            level = HitLevel.MISS
        return AccessResult(
            level=level,
            needs_coherence=code >= ACCESS_MISS,
            needs_upgrade=code > ACCESS_MISS,
            line_address=line_address,
        )

    def fill(
        self, line_address: int, state: LineState, is_instruction: bool = False
    ) -> List[EvictedLine]:
        """Install a line returned by the directory, in *state*."""
        evicted: List[EvictedLine] = []
        victim = self.l2.fill(line_address, state)
        if victim is not None:
            self._enforce_inclusion(victim.line_address)
            evicted.append(EvictedLine(victim.line_address, victim.state))
        l1 = self.l1i if is_instruction else self.l1d
        l1.fill(line_address, state)
        return evicted

    # ------------------------------------------------------------------
    # Directory-side probes (identical contract to CacheHierarchy)
    # ------------------------------------------------------------------
    def coherence_state(self, line_address: int) -> LineState:
        """Return the coherence-visible state of a line (L2 image)."""
        slot = self.l2.find(line_address)
        return CODE_TO_STATE[self.l2.states[slot]] if slot >= 0 else LineState.INVALID

    def invalidate_code(self, line_address: int) -> int:
        """Invalidate a line everywhere; return its prior L2 state code.

        Hot-path form of :meth:`handle_invalidate`: ``0``
        (``STATE_INVALID``) means the L2 did not hold the line.
        """
        self.l1i._drop(line_address)
        self.l1d._drop(line_address)
        return self.l2._drop(line_address)

    def handle_invalidate(self, line_address: int) -> Optional[LineState]:
        """Invalidate a line everywhere; return its prior L2 state if held."""
        code = self.invalidate_code(line_address)
        return CODE_TO_STATE[code] if code else None

    def handle_downgrade(self, line_address: int) -> Optional[LineState]:
        """Downgrade an owned line after a remote read; return new state."""
        slot = self.l2.find(line_address)
        if slot < 0:
            return None
        new_state = CODE_TO_STATE[self.l2.states[slot]].after_remote_read()
        self.l2.set_state(line_address, new_state)
        for l1 in (self.l1i, self.l1d):
            if l1.find(line_address) >= 0:
                l1.set_state(line_address, new_state)
        return new_state

    # ------------------------------------------------------------------
    # Statistics helpers
    # ------------------------------------------------------------------
    def l2_misses(self) -> int:
        """Number of L2 misses so far (the quantity in Figure 3e)."""
        return self.l2.misses

    def total_accesses(self) -> int:
        """Total L1 lookups presented by the core."""
        return (
            self.l1i.hits + self.l1i.misses + self.l1d.hits + self.l1d.misses
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot: all three caches plus the MSHR file."""
        return {
            "l1i": self.l1i.state_dict(),
            "l1d": self.l1d.state_dict(),
            "l2": self.l2.state_dict(),
            "mshrs": self.mshrs.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        self.l1i.load_state_dict(state["l1i"])
        self.l1d.load_state_dict(state["l1d"])
        self.l2.load_state_dict(state["l2"])
        self.mshrs.load_state_dict(state["mshrs"])

    # ------------------------------------------------------------------
    def _enforce_inclusion(self, line_address: int) -> None:
        self.l1i._drop(line_address)
        self.l1d._drop(line_address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedHierarchy(core={self.core_id})"
