"""NUMA OS model: per-node frame pools and first-touch/interleaved placement."""

from repro.numa.allocator import NumaAllocator, available_placement_policies
from repro.numa.frames import FrameAllocator, FramePool

__all__ = [
    "NumaAllocator",
    "available_placement_policies",
    "FrameAllocator",
    "FramePool",
]
