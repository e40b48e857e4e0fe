"""DRAM device model.

Table I specifies a 60 ns access latency to memory; the off-die link is
the reason the ALLARM local probe (on-die SRAM, ~1 ns cache access plus a
few nanoseconds of on-die routing) can be hidden behind the DRAM access
for remote misses (Section II-D).  We model DRAM as a fixed-latency device
with one open row: an access to the open row takes the shorter row-hit
latency.  A line fill or writeback issued by the directory also pays a
fixed scheduling overhead in front of the DRAM access.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

#: Queuing/scheduling overhead (ns) the node's memory controller adds to
#: every line fill and writeback the directory issues.
SCHEDULING_OVERHEAD_NS = 2.0


@dataclass
class DramStats:
    """Access counters for one DRAM channel."""

    reads: int = 0
    writes: int = 0


class Dram:
    """One node's DRAM channel.

    Parameters
    ----------
    node_id:
        Owning node.
    access_latency_ns:
        Closed-page access latency (60 ns in Table I).
    row_hit_latency_ns:
        Latency when the access falls in the currently open row; modelled
        as a fraction of the full latency.
    row_bytes:
        Open-row (page) size used for the row-buffer hit heuristic.
    """

    def __init__(
        self,
        node_id: int,
        access_latency_ns: float = 60.0,
        row_hit_latency_ns: float = 40.0,
        row_bytes: int = 8192,
    ) -> None:
        if access_latency_ns <= 0 or row_hit_latency_ns <= 0:
            raise ConfigurationError("DRAM latencies must be positive")
        if row_hit_latency_ns > access_latency_ns:
            raise ConfigurationError("row hit latency cannot exceed miss latency")
        if row_bytes <= 0:
            raise ConfigurationError("row size must be positive")
        self.node_id = node_id
        self.access_latency_ns = access_latency_ns
        self.row_hit_latency_ns = row_hit_latency_ns
        self.row_bytes = row_bytes
        self.stats = DramStats()
        self._open_row: int = -1

    # ------------------------------------------------------------------
    def access(self, address: int, is_write: bool = False) -> float:
        """Read one line for the directory (or write it back, with
        *is_write*); return the latency in nanoseconds.

        The one DRAM rule both engines call: the scheduling overhead plus
        the row-hit latency when *address* falls in the open row, else
        the closed-page latency, after which its row is the open one.
        """
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        row = address // self.row_bytes
        if row == self._open_row:
            return SCHEDULING_OVERHEAD_NS + self.row_hit_latency_ns
        self._open_row = row
        return SCHEDULING_OVERHEAD_NS + self.access_latency_ns
