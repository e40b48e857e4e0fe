"""Memory subsystem: address maps, DRAM and memory controllers."""

from repro.memory.address import AddressMap, VirtualAddressSpace
from repro.memory.controller import MemoryController
from repro.memory.dram import Dram, DramStats

__all__ = [
    "AddressMap",
    "VirtualAddressSpace",
    "Dram",
    "DramStats",
    "MemoryController",
]
