"""Physical page frame pools, one per NUMA node.

The operating-system model hands out physical frames from per-node pools.
First-touch allocation prefers the pool of the touching core's node and
spills to other nodes when that pool is exhausted — the paper relies on
this spill behaviour in the multi-process experiments, where "capacity
limitations at a single memory controller means some frequently used data
needs to be allocated remotely".  Frames are never returned, so a pool's
state is fully determined by how many frames it has handed out.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import AllocationError, ConfigurationError
from repro.memory.address import AddressMap


class FramePool:
    """Free list of physical page frames belonging to one node."""

    def __init__(self, node: int, frames: range) -> None:
        self.node = node
        self.frames = frames
        self.capacity = len(frames)
        self.restore(0)

    @property
    def free_count(self) -> int:
        """Number of frames still available."""
        return len(self._free)

    @property
    def allocated(self) -> int:
        """Number of frames handed out so far."""
        return self.capacity - len(self._free)

    @property
    def is_exhausted(self) -> bool:
        """True when no frame can be allocated from this pool."""
        return not self._free

    def allocate(self) -> int:
        """Allocate one frame; raise :class:`AllocationError` when empty."""
        if not self._free:
            raise AllocationError(f"node {self.node} frame pool exhausted")
        return self._free.pop()

    def restore(self, allocated: int) -> None:
        """Reset the pool to the state after *allocated* allocations."""
        # Reversed, so the lowest free frame number is popped first.
        self._free: List[int] = list(reversed(self.frames[allocated:]))


class FrameAllocator:
    """All per-node frame pools plus the spill policy between them.

    Parameters
    ----------
    address_map:
        Machine geometry; defines which frames belong to which node.
    frames_per_node:
        Optional cap on the usable frames per node.  The full 128 MB per
        node of the paper's machine is far more than any synthetic
        workload touches, so experiments that need memory pressure (the
        multi-process study) shrink the usable pool instead of inflating
        the workload.
    """

    def __init__(
        self,
        address_map: AddressMap,
        frames_per_node: Optional[int] = None,
    ) -> None:
        if frames_per_node is not None and frames_per_node <= 0:
            raise ConfigurationError("frames_per_node must be positive")
        self.pools: Dict[int, FramePool] = {}
        for node in range(address_map.node_count):
            frames = address_map.node_frame_range(node)
            if frames_per_node is not None:
                frames = frames[:frames_per_node]
            self.pools[node] = FramePool(node, frames)

    # ------------------------------------------------------------------
    def allocate_on(self, preferred_node: int) -> int:
        """Allocate a frame on *preferred_node*, spilling if necessary.

        The spill target is the node with the most free frames (the
        first in node order on a tie), mirroring a simple OS balancing
        heuristic.  Raises when every pool is empty.
        """
        pool = self.pools.get(preferred_node)
        if pool is None:
            raise ConfigurationError(f"unknown node {preferred_node}")
        if not pool.is_exhausted:
            return pool.allocate()
        fallback = self._most_free_pool()
        if fallback is None:
            raise AllocationError("all frame pools exhausted")
        return fallback.allocate()

    # ------------------------------------------------------------------
    def _most_free_pool(self) -> Optional[FramePool]:
        best: Optional[FramePool] = None
        for pool in self.pools.values():
            if pool.is_exhausted:
                continue
            if best is None or pool.free_count > best.free_count:
                best = pool
        return best
