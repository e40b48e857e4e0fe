"""Memory subsystem: address maps and DRAM."""

from repro.memory.address import AddressMap, VirtualAddressSpace
from repro.memory.dram import Dram, DramStats

__all__ = [
    "AddressMap",
    "VirtualAddressSpace",
    "Dram",
    "DramStats",
]
