"""NUMA memory allocation policies and the virtual→physical translator.

ALLARM's private-data detection relies entirely on the operating system's
NUMA placement policy: under first-touch allocation, thread-local data
lands on the toucher's node, so a request arriving at a directory from its
own local core is assumed private (Section II-A of the paper).  This
module implements that OS behaviour:

* **first-touch** — map a page on the node of the first core to access it
  (the default of mainstream operating systems, and of the paper).
* **next-touch** — like first-touch, but pages marked for next-touch are
  re-homed to the node of the next core to access them (the common fix
  for init-by-one-thread / use-by-another patterns the paper mentions).
* **interleaved** — round-robin pages across nodes (a pessimal baseline
  for ALLARM, used by the ablation benches).
* **fixed** — every page on a single node (models an un-NUMA-aware OS).

The allocator also performs translation: workloads issue virtual
addresses, and :meth:`NumaAllocator.translate` returns the physical
address whose home node determines the responsible directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.memory.address import AddressMap
from repro.numa.frames import FrameAllocator
from repro.numa.page_table import PageTable


@dataclass
class AllocatorStats:
    """Counters describing placement decisions."""

    first_touch_local: int = 0
    spilled_remote: int = 0
    next_touch_migrations: int = 0
    interleaved: int = 0
    fixed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Return the counters as a plain dictionary."""
        return {
            "first_touch_local": self.first_touch_local,
            "spilled_remote": self.spilled_remote,
            "next_touch_migrations": self.next_touch_migrations,
            "interleaved": self.interleaved,
            "fixed": self.fixed,
        }


class PlacementPolicy:
    """Chooses the preferred node for a newly touched virtual page."""

    name = "base"

    def preferred_node(
        self, toucher_node: int, virtual_page: int, node_count: int
    ) -> int:
        """Return the node on which the page should be placed."""
        raise NotImplementedError


class FirstTouchPolicy(PlacementPolicy):
    """Place each page on the node of the core that first touches it."""

    name = "first-touch"

    def preferred_node(
        self, toucher_node: int, virtual_page: int, node_count: int
    ) -> int:
        return toucher_node


class InterleavedPolicy(PlacementPolicy):
    """Round-robin pages over all nodes by virtual page number."""

    name = "interleaved"

    def preferred_node(
        self, toucher_node: int, virtual_page: int, node_count: int
    ) -> int:
        return virtual_page % node_count


class FixedNodePolicy(PlacementPolicy):
    """Place every page on one fixed node."""

    name = "fixed"

    def __init__(self, node: int = 0) -> None:
        self.node = node

    def preferred_node(
        self, toucher_node: int, virtual_page: int, node_count: int
    ) -> int:
        if self.node >= node_count:
            raise ConfigurationError(
                f"fixed node {self.node} outside machine of {node_count} nodes"
            )
        return self.node


_POLICIES: Dict[str, Callable[[], PlacementPolicy]] = {
    "first-touch": FirstTouchPolicy,
    "next-touch": FirstTouchPolicy,  # placement is first-touch; migration is extra
    "interleaved": InterleavedPolicy,
    "fixed": FixedNodePolicy,
}


def available_placement_policies() -> Tuple[str, ...]:
    """Names accepted by :class:`NumaAllocator`."""
    return tuple(sorted(_POLICIES))


class NumaAllocator:
    """OS memory-allocation model: page placement plus translation.

    Parameters
    ----------
    address_map:
        Physical memory geometry of the machine.
    policy:
        One of :func:`available_placement_policies`.
    core_to_node:
        Mapping from core id to NUMA node (identity for the paper's
        one-core-per-node machine).
    frames_per_node:
        Optional cap on usable frames per node, to create memory pressure.
    """

    def __init__(
        self,
        address_map: AddressMap,
        policy: str = "first-touch",
        core_to_node: Optional[Dict[int, int]] = None,
        frames_per_node: Optional[int] = None,
    ) -> None:
        if policy not in _POLICIES:
            raise ConfigurationError(
                f"unknown placement policy {policy!r}; "
                f"expected one of {available_placement_policies()}"
            )
        self.address_map = address_map
        self.policy_name = policy
        self.policy = _POLICIES[policy]()
        self.core_to_node = core_to_node or {
            n: n for n in range(address_map.node_count)
        }
        self.frames = FrameAllocator(address_map, frames_per_node)
        self.page_tables: Dict[int, PageTable] = {}
        self.stats = AllocatorStats()
        self._next_touch_pending: Set[Tuple[int, int]] = set()
        self._page_size = address_map.page_size
        # Memoized translations: (process_id, virtual_page) -> frame base
        # address.  This is the access-path fast lane: once a page is
        # mapped and not pending next-touch re-homing, its translation is
        # a single dict probe instead of a page-table walk.
        self._translation_cache: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def page_table(self, process_id: int) -> PageTable:
        """Return (creating if needed) the page table of *process_id*."""
        table = self.page_tables.get(process_id)
        if table is None:
            table = PageTable(
                process_id,
                self.address_map.page_size,
                on_invalidate=self._invalidate_translation,
            )
            self.page_tables[process_id] = table
        return table

    def _invalidate_translation(self, process_id: int, vpage: int) -> None:
        """Drop a memoized translation when its mapping changes or dies."""
        self._translation_cache.pop((process_id, vpage), None)

    def node_of_core(self, core: int) -> int:
        """Return the NUMA node (affinity domain) of *core*."""
        try:
            return self.core_to_node[core]
        except KeyError:
            raise ConfigurationError(f"core {core} has no affinity domain")

    def translate(self, process_id: int, core: int, vaddr: int) -> int:
        """Translate a virtual address, allocating the page on first touch."""
        page_size = self._page_size
        vpage = vaddr // page_size
        frame_base = self._translation_cache.get((process_id, vpage))
        if frame_base is not None:
            # Same affinity check the slow path performs via node_of_core:
            # a core outside the machine must fail even on a warm page.
            if core not in self.core_to_node:
                raise ConfigurationError(f"core {core} has no affinity domain")
            return frame_base + (vaddr - vpage * page_size)
        return self._translate_slow(process_id, core, vaddr, vpage)

    def _translate_slow(
        self, process_id: int, core: int, vaddr: int, vpage: int
    ) -> int:
        """Page-table walk: first touches, next-touch re-homing, memo fill."""
        offset = vaddr % self._page_size
        table = self.page_table(process_id)
        mapping = table.lookup(vpage)
        toucher_node = self.node_of_core(core)

        if mapping is None:
            mapping = self._map_new_page(table, vpage, core, toucher_node)
        elif (process_id, vpage) in self._next_touch_pending:
            mapping = self._apply_next_touch(table, vpage, toucher_node)

        frame_base = self.address_map.frame_base(mapping.physical_frame)
        if (process_id, vpage) not in self._next_touch_pending:
            self._translation_cache[(process_id, vpage)] = frame_base
        return frame_base + offset

    def home_node(self, paddr: int) -> int:
        """Return the directory responsible for a physical address."""
        return self.address_map.home_node(paddr)

    def mark_next_touch(self, process_id: int, virtual_pages) -> int:
        """Mark pages for next-touch re-homing; return how many were marked.

        Only meaningful when the allocator was built with the
        ``"next-touch"`` policy; marking is ignored otherwise so that
        workloads can call it unconditionally.
        """
        if self.policy_name != "next-touch":
            return 0
        count = 0
        for vpage in virtual_pages:
            self._next_touch_pending.add((process_id, vpage))
            # The page may be re-homed on its next touch, so its memoized
            # translation (if any) must not be served meanwhile.
            self._translation_cache.pop((process_id, vpage), None)
            count += 1
        return count

    def pages_on_node(self, node: int) -> int:
        """Total pages (across processes) resident on *node*."""
        return sum(t.pages_on_node(node) for t in self.page_tables.values())

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _map_new_page(
        self, table: PageTable, vpage: int, core: int, toucher_node: int
    ):
        preferred = self.policy.preferred_node(
            toucher_node, vpage, self.address_map.node_count
        )
        frame = self.frames.allocate_on(preferred)
        actual_node = self.address_map.home_node_of_frame(frame)
        mapping = table.map_page(vpage, frame, actual_node, first_toucher=core)
        self._count_placement(preferred, actual_node, toucher_node)
        return mapping

    def _apply_next_touch(self, table: PageTable, vpage: int, toucher_node: int):
        self._next_touch_pending.discard((table.process_id, vpage))
        mapping = table.lookup(vpage)
        if mapping is None:  # pragma: no cover - guarded by caller
            raise ConfigurationError("next-touch on unmapped page")
        if mapping.node == toucher_node:
            return mapping
        new_frame = self.frames.allocate_on(toucher_node)
        self.frames.release(mapping.physical_frame)
        actual_node = self.address_map.home_node_of_frame(new_frame)
        mapping = table.remap_page(vpage, new_frame, actual_node)
        self.stats.next_touch_migrations += 1
        return mapping

    def _count_placement(
        self, preferred: int, actual: int, toucher_node: int
    ) -> None:
        if self.policy_name in ("first-touch", "next-touch"):
            if actual == toucher_node:
                self.stats.first_touch_local += 1
            else:
                self.stats.spilled_remote += 1
        elif self.policy_name == "interleaved":
            self.stats.interleaved += 1
        else:
            self.stats.fixed += 1
