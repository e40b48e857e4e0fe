"""Miss status holding registers (MSHRs).

The transaction-level simulator services each miss atomically, so MSHRs
are not required for correctness.  They are modelled anyway because the
paper's baseline is "an already optimized implementation" and because the
MSHR file lets us (a) detect and merge redundant outstanding misses when
replaying bursty traces and (b) keep allocation, merge and peak-occupancy
counters that checkpoints carry and the lock-step conformance suite
compares across engines (no bench or figure reads them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.coherence.transactions import RequestKind
from repro.errors import ConfigurationError


@dataclass
class MshrEntry:
    """One outstanding miss: the line and the kinds of requests merged."""

    line_address: int
    kinds: List[RequestKind] = field(default_factory=list)

    @property
    def needs_write(self) -> bool:
        """True when any merged request requires ownership."""
        return any(kind.is_write for kind in self.kinds)

    @property
    def merged_count(self) -> int:
        """Number of requests coalesced into this entry."""
        return len(self.kinds)


@dataclass
class MshrStats:
    """Counters describing MSHR behaviour over a run."""

    allocations: int = 0
    merges: int = 0
    releases: int = 0
    peak_occupancy: int = 0
    full_stalls: int = 0


class MshrFile:
    """A fixed-capacity file of miss status holding registers."""

    def __init__(self, capacity: int = 16) -> None:
        if capacity <= 0:
            raise ConfigurationError("MSHR capacity must be positive")
        self.capacity = capacity
        self.stats = MshrStats()
        self._entries: Dict[int, MshrEntry] = {}

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        """Number of outstanding misses currently tracked."""
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        """True when no further distinct miss can be tracked."""
        return len(self._entries) >= self.capacity

    def lookup(self, line_address: int) -> Optional[MshrEntry]:
        """Return the outstanding entry for *line_address*, if any."""
        return self._entries.get(line_address)

    # ------------------------------------------------------------------
    def allocate(self, line_address: int, kind: RequestKind) -> MshrEntry:
        """Track a new miss, or merge into an existing entry for the line.

        Raises :class:`ConfigurationError` when the file is full and the
        line is not already tracked; callers should treat that as a stall
        (the simulator counts it and retries after draining).
        """
        entry = self._entries.get(line_address)
        if entry is not None:
            entry.kinds.append(kind)
            self.stats.merges += 1
            return entry
        if self.is_full:
            self.stats.full_stalls += 1
            raise ConfigurationError("MSHR file full")
        entry = MshrEntry(line_address=line_address, kinds=[kind])
        self._entries[line_address] = entry
        self.stats.allocations += 1
        self.stats.peak_occupancy = max(self.stats.peak_occupancy, self.occupancy)
        return entry

    def release(self, line_address: int) -> MshrEntry:
        """Retire the entry for *line_address* once its data has returned."""
        entry = self._entries.pop(line_address, None)
        if entry is None:
            raise ConfigurationError(
                f"release of untracked MSHR line {line_address:#x}"
            )
        self.stats.releases += 1
        return entry

    def allocate_release(self, line_address: int, kind: RequestKind) -> None:
        """Track a miss serviced atomically: :meth:`allocate`, then :meth:`release`.

        Leaves exactly the stats of that pair.  On an empty file (the
        only state the packed engine's miss path sees, since it never
        holds an entry across calls) only the counters move and no entry
        is built; otherwise the pair runs as is, so a pre-registered
        in-flight line merges and is retired, and a full file counts a
        stall and raises.
        """
        if self._entries:
            self.allocate(line_address, kind)
            self.release(line_address)
            return
        stats = self.stats
        stats.allocations += 1
        stats.releases += 1
        if stats.peak_occupancy < 1:
            stats.peak_occupancy = 1

    def drain(self) -> List[MshrEntry]:
        """Retire every outstanding entry (end-of-run cleanup)."""
        entries = list(self._entries.values())
        self.stats.releases += len(entries)
        self._entries.clear()
        return entries

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot of outstanding entries and counters."""
        return {
            "entries": [
                (line, [kind.value for kind in entry.kinds])
                for line, entry in self._entries.items()
            ],
            "stats": (
                self.stats.allocations,
                self.stats.merges,
                self.stats.releases,
                self.stats.peak_occupancy,
                self.stats.full_stalls,
            ),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot in place."""
        self._entries.clear()
        for line, kinds in state["entries"]:
            self._entries[line] = MshrEntry(
                line_address=line,
                kinds=[RequestKind(value) for value in kinds],
            )
        (
            self.stats.allocations,
            self.stats.merges,
            self.stats.releases,
            self.stats.peak_occupancy,
            self.stats.full_stalls,
        ) = state["stats"]
