"""NUMA page placement and the virtual→physical translator.

ALLARM's private-data detection relies entirely on the operating system's
NUMA placement policy: under first-touch allocation, thread-local data
lands on the toucher's node, so a request arriving at a directory from its
own local core is assumed private (Section II-A of the paper).  This
module implements that OS behaviour with one of two placements:

* **first-touch** — map a page on the node of the first core to access it
  (the default of mainstream operating systems, and of the paper).
* **interleaved** — round-robin pages across nodes by virtual page number
  (a pessimal baseline for ALLARM, used by the ablation bench).

Either way a page whose preferred pool is exhausted spills to the pool
with the most free frames.  A mapped page never moves or goes away, so
the translation map ``(process_id, virtual_page) → frame base`` is the
whole page table: workloads issue virtual addresses, and
:meth:`NumaAllocator.translate` returns the physical address whose home
node determines the responsible directory.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError
from repro.memory.address import AddressMap
from repro.numa.frames import FrameAllocator

_POLICIES = ("first-touch", "interleaved")


def available_placement_policies() -> Tuple[str, ...]:
    """Names accepted by :class:`NumaAllocator`."""
    return _POLICIES


class NumaAllocator:
    """OS memory-allocation model: page placement plus translation.

    Each core is its own NUMA node, as on the paper's one-core-per-node
    machine.

    Parameters
    ----------
    address_map:
        Physical memory geometry of the machine.
    policy:
        One of :func:`available_placement_policies`.
    frames_per_node:
        Optional cap on usable frames per node, to create memory pressure.
    """

    def __init__(
        self,
        address_map: AddressMap,
        policy: str = "first-touch",
        frames_per_node: Optional[int] = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown placement policy {policy!r}; "
                f"expected one of {available_placement_policies()}"
            )
        self.address_map = address_map
        self._interleaved = policy == "interleaved"
        self._cores = range(address_map.node_count)
        self.frames = FrameAllocator(address_map, frames_per_node)
        self._page_size = address_map.page_size
        # The page table: (process_id, virtual_page) -> frame base
        # address, filled on first touch and never changed afterwards.
        self._translation_cache: Dict[Tuple[int, int], int] = {}

    def translate(self, process_id: int, core: int, vaddr: int) -> int:
        """Translate a virtual address, allocating the page on first touch."""
        page_size = self._page_size
        vpage = vaddr // page_size
        frame_base = self._translation_cache.get((process_id, vpage))
        if frame_base is not None:
            # Same affinity check the slow path performs: a core outside
            # the machine must fail even on a warm page.
            if core not in self._cores:
                raise ConfigurationError(f"core {core} has no affinity domain")
            return frame_base + (vaddr - vpage * page_size)
        return self._translate_slow(process_id, core, vaddr, vpage)

    def _translate_slow(
        self, process_id: int, core: int, vaddr: int, vpage: int
    ) -> int:
        """First touch of a page not yet in the map: place it and map it."""
        if core not in self._cores:
            raise ConfigurationError(f"core {core} has no affinity domain")
        preferred = vpage % len(self._cores) if self._interleaved else core
        frame_base = self.address_map.frame_base(self.frames.allocate_on(preferred))
        self._translation_cache[(process_id, vpage)] = frame_base
        return frame_base + vaddr % self._page_size

    def home_node(self, paddr: int) -> int:
        """Return the directory responsible for a physical address."""
        return self.address_map.home_node(paddr)
