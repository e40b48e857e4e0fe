"""Per-process page tables mapping virtual pages to physical frames.

The page table records, for each mapped virtual page, the physical frame,
the node the frame lives on, the core that first touched the page, and how
often the page migrated; it counts no per-access activity (warm
translations are served from the NUMA allocator's memo).  The ALLARM
detection scheme itself is *stateless* (the directory only compares the
requester's node with its own), but the page table lets the workload
layer, the next-touch policy and the analysis figures reason about where
data ended up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, Optional

from repro.errors import AddressError


@dataclass(slots=True)
class PageMapping:
    """One virtual-page to physical-frame mapping."""

    virtual_page: int
    physical_frame: int
    node: int
    first_toucher: int
    migrations: int = 0


@dataclass(slots=True)
class PageTableStats:
    """Counters describing page-table activity."""

    mappings_created: int = 0
    faults: int = 0
    migrations: int = 0


class PageTable:
    """Virtual-to-physical mapping for a single simulated process."""

    def __init__(
        self,
        process_id: int = 0,
        page_size: int = 4096,
        on_invalidate: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.process_id = process_id
        self.page_size = page_size
        self.stats = PageTableStats()
        self._mappings: Dict[int, PageMapping] = {}
        #: Called with (process_id, virtual_page) whenever an existing
        #: mapping changes or disappears, so translation caches layered
        #: above (the NUMA allocator's memo) can drop stale entries.
        self._on_invalidate = on_invalidate

    # ------------------------------------------------------------------
    def is_mapped(self, virtual_page: int) -> bool:
        """True when *virtual_page* already has a physical frame."""
        return virtual_page in self._mappings

    def lookup(self, virtual_page: int) -> Optional[PageMapping]:
        """Return the mapping for *virtual_page*, counting a miss as a fault."""
        mapping = self._mappings.get(virtual_page)
        if mapping is None:
            self.stats.faults += 1
        return mapping

    def map_page(
        self, virtual_page: int, physical_frame: int, node: int, first_toucher: int
    ) -> PageMapping:
        """Create a mapping; raises if the page is already mapped."""
        if virtual_page in self._mappings:
            raise AddressError(f"virtual page {virtual_page} already mapped")
        mapping = PageMapping(
            virtual_page=virtual_page,
            physical_frame=physical_frame,
            node=node,
            first_toucher=first_toucher,
        )
        self._mappings[virtual_page] = mapping
        self.stats.mappings_created += 1
        return mapping

    def remap_page(
        self, virtual_page: int, physical_frame: int, node: int
    ) -> PageMapping:
        """Migrate an existing page to a new frame (page migration support).

        Section II-E notes that high-end NUMA systems support page
        migration after thread migration; the thread-migration stress
        bench uses this hook.
        """
        mapping = self._mappings.get(virtual_page)
        if mapping is None:
            raise AddressError(f"virtual page {virtual_page} is not mapped")
        mapping.physical_frame = physical_frame
        mapping.node = node
        mapping.migrations += 1
        self.stats.migrations += 1
        if self._on_invalidate is not None:
            self._on_invalidate(self.process_id, virtual_page)
        return mapping

    def unmap(self, virtual_page: int) -> PageMapping:
        """Remove a mapping (used when tearing down a process)."""
        mapping = self._mappings.pop(virtual_page, None)
        if mapping is None:
            raise AddressError(f"virtual page {virtual_page} is not mapped")
        if self._on_invalidate is not None:
            self._on_invalidate(self.process_id, virtual_page)
        return mapping

    # ------------------------------------------------------------------
    def mappings(self) -> Iterator[PageMapping]:
        """Iterate over all current mappings."""
        return iter(self._mappings.values())

    def pages_on_node(self, node: int) -> int:
        """Number of this process's pages resident on *node*."""
        return sum(1 for m in self._mappings.values() if m.node == node)

    def mapped_pages(self) -> int:
        """Total number of mapped virtual pages."""
        return len(self._mappings)
