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

The module holds only the primitives the packed engine runs.
``PackedMachine.perform_access`` does its own lookups (one ``where``
probe per level) and its own fills, in its body; the packed directory
probes a node's caches through :meth:`PackedHierarchy.invalidate_code`
and :meth:`PackedHierarchy.downgrade_code`.  Views
(:meth:`PackedCache.resident_lines`, :meth:`PackedCache.contains`,
``stats``) serve the snapshot collector, the invariant checks and the
tests.

**Bit-identity with the reference engine is a hard contract.**  The
lock-step fuzzer (``tests/test_conformance_fuzz.py``) compares every
node's resident lines — state and way, in L1I, L1D and L2 — and its
probe-filter entries with the reference machine's at every cadence
step, so a wrong victim way fails there even before it moves a counter.

A fill's way choice is one C-level scan: ``window.index(min(window))``
over the set's stamps.  Every fill stamps its slot with a positive stamp and
every free slot holds ``0`` (``check_packed_eviction_bookkeeping``
asserts both), so the first minimum is the first free way when the set
has one, else the least recently used way — the reference LRU's choice,
including its preference for an untouched occupied way in ascending way
order.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator

from repro.cache.cache import CacheLine, CacheStats
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

#: Code -> enum translation (for views).
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
    :class:`~repro.cache.cache.Cache` exactly.  The engine changes it
    through :meth:`_drop` and through its own inlined lookups and
    fills; :meth:`resident_lines` and ``stats`` are read-only
    views: freshly built :class:`~repro.cache.cache.CacheLine` and
    :class:`~repro.cache.cache.CacheStats` objects.
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

    @property
    def stats(self) -> CacheStats:
        """Read-only snapshot of the counters as a ``CacheStats``."""
        return CacheStats(
            hits=self.hits, misses=self.misses, evictions=self.evictions
        )

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
    def _drop(self, line_address: int) -> int:
        """Invalidate a line; return its prior state code, or 0 if absent.

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
    # Read-only views (snapshot collector, invariant checks, tests)
    # ------------------------------------------------------------------
    def _view(self, slot: int) -> CacheLine:
        return CacheLine(
            line_address=self.tags[slot],
            state=CODE_TO_STATE[self.states[slot]],
            way=slot % self.associativity,
        )

    def contains(self, line_address: int) -> bool:
        """True when the line is resident in a valid state."""
        return line_address in self.where

    def resident_lines(self) -> Iterator[CacheLine]:
        """Iterate views of all valid resident lines (unspecified order)."""
        tags = self.tags
        for slot in range(len(tags)):
            if tags[slot] >= 0:
                yield self._view(slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedCache({self.name!r}, {self.size_bytes}B, "
            f"{self.associativity}-way, {self.set_count} sets)"
        )


class PackedHierarchy:
    """L1I + L1D + inclusive private L2 over :class:`PackedCache` arrays.

    Takes :class:`~repro.cache.hierarchy.CacheHierarchy`'s constructor,
    so :class:`~repro.system.machine.Machine` builds either.  The
    packed machine inlines the lookups and fills into
    ``PackedMachine.perform_access``; the packed directory probes
    through :meth:`invalidate_code` and :meth:`downgrade_code`.
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
    # Directory-side probes (CacheHierarchy's, in state codes)
    # ------------------------------------------------------------------
    def invalidate_code(self, line_address: int) -> int:
        """Invalidate a line everywhere; return its prior L2 state code.

        The coded ``CacheHierarchy.handle_invalidate``: ``0``
        (``STATE_INVALID``) means the L2 did not hold the line.  The L2
        is inclusive, so a line it does not hold is in neither L1 and
        costs one map probe.
        """
        code = self.l2._drop(line_address)
        if code:
            self.l1i._drop(line_address)
            self.l1d._drop(line_address)
        return code

    def downgrade_code(self, line_address: int) -> int:
        """Downgrade a line after a remote read; return the new state code.

        The coded ``CacheHierarchy.handle_downgrade``: the L2 state goes
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
