"""A single node of the machine: core, caches, directory, memory.

Figure 1 of the paper shows the node composition: a CPU with its private
caches, a router on the mesh, and one directory with its probe filter
(sparse directory) in front of one DRAM channel.  :class:`Node` bundles
these components except the router: every router has the same pipeline
latency, so the :class:`~repro.noc.network.Network` charges it per hop
and keeps no per-router state.  The memory controller is the DRAM
model's scheduling overhead constant.  Each engine builds one directory
per node, the one it runs: a reference
:class:`~repro.core.directory.DirectoryController` or a
:class:`~repro.core.packed_directory.PackedDirectory`.  The
:class:`~repro.system.machine.Machine` wires sixteen nodes onto the
network.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cache.hierarchy import CacheHierarchy
from repro.core.directory import DirectoryController
from repro.core.probe_filter import ProbeFilter
from repro.memory.dram import Dram


@dataclass(slots=True)
class CoreClock:
    """Per-core simulated time and memory-access count.

    Slotted because the replay loop updates both fields on every
    simulated access; slot descriptors are measurably cheaper than
    ``__dict__`` stores at that call rate.
    """

    now_ns: float = 0.0
    memory_accesses: int = 0


@dataclass
class Node:
    """One affinity domain: core + caches + directory + memory."""

    node_id: int
    caches: CacheHierarchy
    probe_filter: ProbeFilter
    dram: Dram
    directory: DirectoryController
    clock: CoreClock = field(default_factory=CoreClock)

    @property
    def core_id(self) -> int:
        """The core hosted on this node (one core per node in the paper)."""
        return self.node_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Node({self.node_id}, policy={self.directory.policy.name})"
