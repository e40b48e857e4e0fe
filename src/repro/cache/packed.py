"""Packed array-based cache model: the fast engine's data layout.

The reference :class:`~repro.cache.cache.Cache` stores one ``CacheLine``
dataclass per resident line inside per-set dictionaries and delegates
recency to per-set :class:`~repro.cache.replacement.LruPolicy`
objects.  That object graph is expressive but costs a dictionary walk,
several enum-property calls and a dataclass allocation on *every*
simulated access — and the paper's evaluation replays multi-million
access streams per sweep point.

:class:`PackedCache` keeps the same externally observable behaviour in
flat per-cache arrays indexed by ``set * associativity + way``:

* ``tags`` — an ``array('q')`` of line addresses (``-1`` marks a free
  way);
* ``states`` — a ``bytearray`` of MOESI codes (int comparisons and table
  lookups replace enum properties);
* ``stamps`` — an ``array('q')`` of monotonically increasing touch
  stamps implementing exact LRU (``0`` = free);
* ``where`` — a ``dict`` mapping each resident line to its slot, the
  residency map every lookup reads: a hit or a miss is one ``dict``
  probe, and a miss raises nothing.

**Bit-identical parity with the reference engine is a hard contract**,
verified by ``tests/test_packed_engine.py`` and the cross-engine
property suite: for any op sequence, a ``PackedCache`` must produce the
same hits, misses, eviction victims (same way!), states and stats as a
``Cache`` built with the same parameters — including the reference
quirk that LRU prefers an untouched occupied way in ascending way
order.

Way choice is one C-level scan: ``window.index(min(window))`` over the
set's stamps.  Every fill stamps its slot with a positive stamp and
every free slot holds ``0`` (``check_packed_eviction_bookkeeping``
asserts both), so the first minimum is the first free way when the set
has one, else the least recently used way.

:class:`PackedHierarchy` mirrors :class:`~repro.cache.hierarchy.CacheHierarchy`
(L1I + L1D + inclusive L2) on top of packed caches, exposing the same
invalidate/downgrade probes the packed directory fast path drives and
the same counters the statistics collector reads.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.cache import CacheLine, CacheStats
from repro.cache.hierarchy import AccessResult, EvictedLine, HitLevel
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
        "tags",
        "states",
        "stamps",
        "stamp",
        "where",
        "hits",
        "misses",
        "evictions",
    )

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
        self.set_mask = sets - 1
        self.line_shift = line_size.bit_length() - 1

        capacity = sets * associativity
        self.tags = array("q", [-1]) * capacity
        self.states = bytearray(capacity)
        self.stamps = array("q", [0]) * capacity
        self.stamp = 0
        self.where: Dict[int, int] = {}

        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    # Geometry / introspection
    # ------------------------------------------------------------------
    @property
    def stats(self) -> CacheStats:
        """Read-only snapshot of the counters as a ``CacheStats``."""
        return CacheStats(
            hits=self.hits, misses=self.misses, evictions=self.evictions
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
        the global stamp counter and the three stat counters.  The
        residency map is derived from ``tags`` and not stored.
        """
        return {
            "tags": self.tags.tobytes(),
            "states": bytes(self.states),
            "stamps": self.stamps.tobytes(),
            "stamp": self.stamp,
            "counters": (self.hits, self.misses, self.evictions),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The backing ``tags``/``states``/``stamps`` buffers are updated
        with equal-length slice assignment and never reallocated, so
        zero-copy views bound over them stay attached to live storage.
        The residency map is rebuilt from the restored tags.
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
        self.where.clear()
        self.where.update(
            (tag, slot) for slot, tag in enumerate(tags) if tag >= 0
        )
        self.hits, self.misses, self.evictions = state["counters"]

    # ------------------------------------------------------------------
    # Internal packed primitives
    # ------------------------------------------------------------------
    def install(self, line_address: int, code: int) -> Tuple[int, int]:
        """Place a non-resident line in state *code*.

        Returns ``(victim, victim_code)``, the line the fill displaced
        and its state code, or ``(-1, 0)`` when the way was free.  The
        way is the first free way, else the LRU way: one ``min`` over
        the set's stamps.  Every fill on the packed engine comes here.
        """
        assoc = self.associativity
        base = ((line_address >> self.line_shift) & self.set_mask) * assoc
        stamps = self.stamps
        window = stamps[base:base + assoc]
        slot = base + window.index(min(window))
        tags = self.tags
        where = self.where
        victim = tags[slot]
        victim_code = self.states[slot]  # STATE_INVALID when free
        if victim >= 0:
            del where[victim]
            self.evictions += 1
        tags[slot] = line_address
        where[line_address] = slot
        self.states[slot] = code
        stamp = self.stamp + 1
        self.stamp = stamp
        stamps[slot] = stamp
        return victim, victim_code

    def _drop(self, line_address: int) -> int:
        """Invalidate a line; return its prior state code, or 0 if absent.

        Hot-path form of :meth:`invalidate`: no view is built, and
        ``STATE_INVALID`` (0) doubles as "not resident".
        """
        slot = self.where.pop(line_address, -1)
        if slot < 0:
            return STATE_INVALID
        code = self.states[slot]
        self.tags[slot] = -1
        self.states[slot] = STATE_INVALID
        self.stamps[slot] = 0
        return code

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
        slot = self.where.get(line_address, -1)
        if slot >= 0:
            if update_stats:
                self.hits += 1
                self.stamp += 1
                self.stamps[slot] = self.stamp
            return self._view(slot)
        if update_stats:
            self.misses += 1
        return None

    def probe(self, line_address: int) -> Optional[CacheLine]:
        """Coherence probe: look up without touching stats or recency."""
        slot = self.where.get(line_address, -1)
        return self._view(slot) if slot >= 0 else None

    def contains(self, line_address: int) -> bool:
        """True when the line is resident in a valid state."""
        return line_address in self.where

    def fill(self, line_address: int, state: LineState) -> Optional[CacheLine]:
        """Install a line, returning the evicted victim line if any."""
        if state is LineState.INVALID:
            raise ConfigurationError("cannot fill a line in the INVALID state")
        code = STATE_TO_CODE[state]
        slot = self.where.get(line_address, -1)
        if slot >= 0:
            # A refill of a resident line is a state change, not an
            # allocation.
            self.states[slot] = code
            self.stamp += 1
            self.stamps[slot] = self.stamp
            return None
        victim, victim_code = self.install(line_address, code)
        if victim < 0:
            return None
        return CacheLine(
            line_address=victim,
            state=CODE_TO_STATE[victim_code],
            way=self.where[line_address] % self.associativity,
        )

    def invalidate(self, line_address: int) -> Optional[CacheLine]:
        """Invalidate a line; return its pre-invalidation view if resident."""
        slot = self.where.get(line_address, -1)
        if slot < 0:
            return None
        line = self._view(slot)
        self._drop(line_address)
        return line

    def set_state(self, line_address: int, state: LineState) -> CacheLine:
        """Change the coherence state of a resident line."""
        slot = self.where.get(line_address, -1)
        if slot < 0:
            raise ConfigurationError(
                f"{self.name}: cannot change state of non-resident line "
                f"{line_address:#x}"
            )
        if state is LineState.INVALID:
            raise ConfigurationError("use invalidate() to drop a line")
        self.states[slot] = STATE_TO_CODE[state]
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
        dirty = [
            self._view(slot)
            for slot in sorted(self.where.values())
            if CODE_IS_DIRTY[self.states[slot]]
        ]
        capacity = len(self.tags)
        self.tags[:] = array("q", [-1]) * capacity
        self.states[:] = bytes(capacity)
        self.stamps[:] = array("q", [0]) * capacity
        self.where.clear()
        return dirty

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedCache({self.name!r}, {self.size_bytes}B, "
            f"{self.associativity}-way, {self.set_count} sets)"
        )


class PackedHierarchy:
    """L1I + L1D + inclusive private L2 over :class:`PackedCache` arrays.

    Mirrors :class:`~repro.cache.hierarchy.CacheHierarchy`'s constructor
    and coherence-side probes, so the packed directory fast path
    and the statistics collector drive it like the reference.  The
    packed machine inlines the lookups into
    ``PackedMachine.perform_access`` and fills through
    :meth:`fill_code` and :meth:`PackedCache.install`, the same code
    :meth:`fill` runs; :meth:`access` is the reference-shaped lookup.
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
    ) -> None:
        if l2_size < l1d_size or l2_size < l1i_size:
            raise ConfigurationError(
                "inclusive L2 must be at least as large as each L1"
            )
        self.core_id = core_id
        self.line_size = line_size
        self.l1i = PackedCache(f"L1I[{core_id}]", l1i_size, l1_assoc, line_size)
        self.l1d = PackedCache(f"L1D[{core_id}]", l1d_size, l1_assoc, line_size)
        self.l2 = PackedCache(f"L2[{core_id}]", l2_size, l2_assoc, line_size)

    # ------------------------------------------------------------------
    # Core-side access path (reference-shaped)
    # ------------------------------------------------------------------
    def access(
        self, line_address: int, is_write: bool, is_instruction: bool = False
    ) -> AccessResult:
        """Classify one access as an L1 hit, L2 hit or miss.

        Same side effects as the reference (stat counters, recency, L1
        refills, the silent write upgrade to MODIFIED).  The machine
        inlines these lookups for speed; the cross-engine suites check
        that copy against the reference machine.
        """
        l1 = self.l1i if is_instruction else self.l1d
        l2 = self.l2
        if l1.lookup(line_address) is not None:
            l2_slot = l2.where.get(line_address, -1)
            if l2_slot < 0:
                raise ConfigurationError(
                    f"inclusion violated: line {line_address:#x} in "
                    f"{l1.name} but not in {l2.name}"
                )
            if not is_write:
                return AccessResult(HitLevel.L1, False, False, line_address)
            if CODE_CAN_WRITE[l2.states[l2_slot]]:
                l2.states[l2_slot] = STATE_MODIFIED
                return AccessResult(HitLevel.L1, False, False, line_address)
            return AccessResult(HitLevel.L1, True, True, line_address)

        line = l2.lookup(line_address)
        if line is None:
            return AccessResult(HitLevel.MISS, True, False, line_address)
        if is_write:
            if not line.state.can_write:
                return AccessResult(HitLevel.L2, True, True, line_address)
            line = l2.set_state(line_address, LineState.MODIFIED)
        l1.fill(line_address, line.state)
        return AccessResult(HitLevel.L2, False, False, line_address)

    def fill(
        self, line_address: int, state: LineState, is_instruction: bool = False
    ) -> List[EvictedLine]:
        """Install a line returned by the directory, in *state*.

        Like every packed fill, this follows a miss: the line must not
        be resident in the L2.
        """
        if state is LineState.INVALID:
            raise ConfigurationError("cannot fill a line in the INVALID state")
        if line_address in self.l2.where:
            raise ConfigurationError(
                f"{self.l2.name}: fill of resident line {line_address:#x}"
            )
        victim, victim_code = self.fill_code(
            line_address, STATE_TO_CODE[state], is_instruction
        )
        if victim < 0:
            return []
        return [EvictedLine(victim, CODE_TO_STATE[victim_code])]

    def fill_code(
        self, line_address: int, code: int, is_instruction: bool
    ) -> Tuple[int, int]:
        """Install a missed line in the L2 and an L1 in state *code*.

        The form of :meth:`fill` that ``PackedMachine.perform_access``
        runs.  Returns the L2 victim as :meth:`PackedCache.install` does;
        the victim leaves both L1s (inclusion), while an L1 victim
        leaves silently, since the L2 still holds it.
        """
        victim, victim_code = self.l2.install(line_address, code)
        if victim >= 0:
            self.l1i._drop(victim)
            self.l1d._drop(victim)
        (self.l1i if is_instruction else self.l1d).install(line_address, code)
        return victim, victim_code

    # ------------------------------------------------------------------
    # Directory-side probes (identical contract to CacheHierarchy)
    # ------------------------------------------------------------------
    def coherence_state(self, line_address: int) -> LineState:
        """Return the coherence-visible state of a line (L2 image)."""
        slot = self.l2.where.get(line_address, -1)
        return CODE_TO_STATE[self.l2.states[slot]] if slot >= 0 else LineState.INVALID

    def invalidate_code(self, line_address: int) -> int:
        """Invalidate a line everywhere; return its prior L2 state code.

        Hot-path form of :meth:`handle_invalidate`: ``0``
        (``STATE_INVALID``) means the L2 did not hold the line.  The L2
        is inclusive, so a line it does not hold is in neither L1 and
        costs one map probe.
        """
        code = self.l2._drop(line_address)
        if code:
            self.l1i._drop(line_address)
            self.l1d._drop(line_address)
        return code

    def handle_invalidate(self, line_address: int) -> Optional[LineState]:
        """Invalidate a line everywhere; return its prior L2 state if held."""
        code = self.invalidate_code(line_address)
        return CODE_TO_STATE[code] if code else None

    def downgrade_code(self, line_address: int) -> int:
        """Downgrade a line after a remote read; return the new state code.

        Hot-path form of :meth:`handle_downgrade`: the L2 state goes
        through ``CODE_AFTER_REMOTE_READ`` and each level holding the
        line takes the new code.  ``0`` means the L2 did not hold it.
        """
        l2 = self.l2
        slot = l2.where.get(line_address, -1)
        if slot < 0:
            return STATE_INVALID
        code = CODE_AFTER_REMOTE_READ[l2.states[slot]]
        l2.states[slot] = code
        for l1 in (self.l1i, self.l1d):
            slot = l1.where.get(line_address, -1)
            if slot >= 0:
                l1.states[slot] = code
        return code

    def handle_downgrade(self, line_address: int) -> Optional[LineState]:
        """Downgrade an owned line after a remote read; return new state."""
        code = self.downgrade_code(line_address)
        return CODE_TO_STATE[code] if code else None

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
        """Serializable snapshot of all three caches."""
        return {
            "l1i": self.l1i.state_dict(),
            "l1d": self.l1d.state_dict(),
            "l2": self.l2.state_dict(),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        self.l1i.load_state_dict(state["l1i"])
        self.l1d.load_state_dict(state["l1d"])
        self.l2.load_state_dict(state["l2"])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedHierarchy(core={self.core_id})"
