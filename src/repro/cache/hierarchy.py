"""Per-core cache hierarchy: L1 instruction, L1 data and private L2.

The paper's configuration (Table I) gives each core a 32 kB 4-way L1I,
a 32 kB 4-way L1D and a 256 kB 4-way private L2.  The paper's L2 is
exclusive of the L1s; we model an *inclusive* L2 instead, which keeps a
single coherence-visible image of the core's cached lines in the L2 and
simplifies directory probes.  This substitution is documented in
``docs/model.md``: the directory-level behaviour (what fraction of lines is
tracked, when evictions happen, when probes find a line) is preserved
because the L1s are an order of magnitude smaller than the L2 and the
probe filter is sized against L2 capacity in both cases.

From the directory's point of view the hierarchy *is* the single "local
core cache" of its affinity domain (Section II-E of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional

from repro.cache.cache import Cache, CacheLine
from repro.coherence.states import LineState
from repro.errors import ConfigurationError


class HitLevel(Enum):
    """Where in the hierarchy an access was satisfied."""

    L1 = "L1"
    L2 = "L2"
    MISS = "miss"


@dataclass
class AccessResult:
    """Outcome of presenting one memory access to the hierarchy."""

    level: HitLevel
    needs_coherence: bool
    needs_upgrade: bool
    line_address: int

    @property
    def is_hit(self) -> bool:
        """True when no coherence transaction is required."""
        return not self.needs_coherence


@dataclass
class EvictedLine:
    """A coherence-visible line evicted from the L2 (victim of a fill)."""

    line_address: int
    state: LineState

    @property
    def dirty(self) -> bool:
        """True when the eviction produces a writeback."""
        return self.state.is_dirty

    @property
    def owned(self) -> bool:
        """True when the directory should be notified of the eviction.

        The paper's baseline notifies the directory when an exclusively
        owned block leaves the cache; we extend this to every state the
        cache is the owner of (M, O, E).
        """
        return self.state.is_owner


class CacheHierarchy:
    """L1I + L1D + inclusive private L2 for a single core."""

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
            raise ConfigurationError("inclusive L2 must be at least as large as each L1")
        self.core_id = core_id
        self.line_size = line_size
        self.l1i = Cache(f"L1I[{core_id}]", l1i_size, l1_assoc, line_size)
        self.l1d = Cache(f"L1D[{core_id}]", l1d_size, l1_assoc, line_size)
        self.l2 = Cache(f"L2[{core_id}]", l2_size, l2_assoc, line_size)

    # ------------------------------------------------------------------
    # Core-side access path
    # ------------------------------------------------------------------
    def access(
        self, line_address: int, is_write: bool, is_instruction: bool = False
    ) -> AccessResult:
        """Present one access; classify it as an L1 hit, L2 hit or miss.

        A write to a line held only in a SHARED/OWNED state is reported as
        ``needs_upgrade`` — the line is present but ownership must be
        obtained from the directory, which is a coherence transaction.
        """
        l1 = self.l1i if is_instruction else self.l1d
        l1_line = l1.lookup(line_address)
        if l1_line is not None:
            l2_line = self.l2.probe(line_address)
            if l2_line is None:
                raise ConfigurationError(
                    f"inclusion violated: line {line_address:#x} in "
                    f"{l1.name} but not in {self.l2.name}"
                )
            if not is_write or l2_line.state.can_write:
                if is_write:
                    self.l2.set_state(line_address, LineState.MODIFIED)
                # Keep L2 recency in step with L1 hits so the hottest lines
                # stay resident in the inclusive L2.
                self.l2.lookup(line_address, update_stats=False)
                return AccessResult(HitLevel.L1, False, False, line_address)
            # Present but not writable: upgrade needed.
            return AccessResult(HitLevel.L1, True, True, line_address)

        l2_line = self.l2.lookup(line_address)
        if l2_line is not None:
            if not is_write or l2_line.state.can_write:
                if is_write:
                    self.l2.set_state(line_address, LineState.MODIFIED)
                self._refill_l1(l1, line_address, l2_line.state)
                return AccessResult(HitLevel.L2, False, False, line_address)
            return AccessResult(HitLevel.L2, True, True, line_address)

        return AccessResult(HitLevel.MISS, True, False, line_address)

    def fill(
        self, line_address: int, state: LineState, is_instruction: bool = False
    ) -> List[EvictedLine]:
        """Install a line returned by the directory, in *state*.

        Returns the coherence-visible (L2) lines evicted to make room.
        Evicted L2 lines are also removed from the L1s to preserve
        inclusion.
        """
        evicted: List[EvictedLine] = []
        victim = self.l2.fill(line_address, state)
        if victim is not None:
            self._enforce_inclusion(victim.line_address)
            evicted.append(EvictedLine(victim.line_address, victim.state))
        l1 = self.l1i if is_instruction else self.l1d
        self._refill_l1(l1, line_address, state)
        return evicted

    # ------------------------------------------------------------------
    # Directory-side probes
    # ------------------------------------------------------------------
    def coherence_state(self, line_address: int) -> LineState:
        """Return the coherence-visible state of a line (L2 image)."""
        line = self.l2.probe(line_address)
        return line.state if line is not None else LineState.INVALID

    def holds_line(self, line_address: int) -> bool:
        """True when the line is resident in any valid state."""
        return self.l2.contains(line_address)

    def handle_invalidate(self, line_address: int) -> Optional[LineState]:
        """Invalidate a line everywhere; return its prior L2 state if held."""
        self._enforce_inclusion(line_address)
        line = self.l2.invalidate(line_address)
        return line.state if line is not None else None

    def handle_downgrade(self, line_address: int) -> Optional[LineState]:
        """Downgrade an owned line after a remote read; return new state.

        Modified lines become OWNED (dirty data retained and supplied to
        the requester), EXCLUSIVE lines become SHARED.  Returns ``None``
        when the line is not resident.
        """
        line = self.l2.probe(line_address)
        if line is None:
            return None
        new_state = line.state.after_remote_read()
        self.l2.set_state(line_address, new_state)
        for l1 in (self.l1i, self.l1d):
            l1_line = l1.probe(line_address)
            if l1_line is not None:
                l1.set_state(line_address, new_state)
        return new_state

    # ------------------------------------------------------------------
    def _refill_l1(self, l1: Cache, line_address: int, state: LineState) -> None:
        victim = l1.fill(line_address, state)
        # L1 victims need no action: the inclusive L2 still holds them, and
        # dirty data is propagated to the L2 via the state we maintain there.
        del victim

    def _enforce_inclusion(self, line_address: int) -> None:
        for l1 in (self.l1i, self.l1d):
            l1.invalidate(line_address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CacheHierarchy(core={self.core_id})"
