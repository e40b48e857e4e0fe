"""Per-node memory controller.

The memory controller sits between the directory controller and the DRAM
channel of its node (Figure 1).  In this transaction-level model it simply
forwards line reads and writebacks to the DRAM device, adding a small
queuing/scheduling overhead; the DRAM counts the reads and writes.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.memory.dram import Dram


class MemoryController:
    """Schedules line fills and writebacks onto one node's DRAM channel."""

    def __init__(
        self,
        node_id: int,
        dram: Dram,
        scheduling_overhead_ns: float = 2.0,
    ) -> None:
        if scheduling_overhead_ns < 0:
            raise ConfigurationError("scheduling overhead cannot be negative")
        self.node_id = node_id
        self.dram = dram
        self.scheduling_overhead_ns = scheduling_overhead_ns

    def read_line(self, address: int) -> float:
        """Fetch a line from DRAM; return total latency."""
        return self.scheduling_overhead_ns + self.dram.read(address)

    def writeback_line(self, address: int) -> float:
        """Write a dirty line back to DRAM; return total latency."""
        return self.scheduling_overhead_ns + self.dram.write(address)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MemoryController(node={self.node_id})"
