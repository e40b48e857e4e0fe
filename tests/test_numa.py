"""Tests for frame pools, page tables and NUMA placement policies."""

from __future__ import annotations

import pytest

from repro.errors import AddressError, AllocationError, ConfigurationError
from repro.memory.address import AddressMap
from repro.numa.allocator import NumaAllocator, available_placement_policies
from repro.numa.frames import FrameAllocator
from repro.numa.page_table import PageTable


def small_map() -> AddressMap:
    """A tiny machine: 4 nodes, 16 pages each."""
    return AddressMap(node_count=4, memory_bytes=4 * 16 * 4096)


class TestFrameAllocator:
    def test_prefers_requested_node(self):
        frames = FrameAllocator(small_map())
        frame = frames.allocate_on(2)
        assert small_map().home_node_of_frame(frame) == 2

    def test_spills_when_node_exhausted(self):
        amap = small_map()
        frames = FrameAllocator(amap, frames_per_node=2)
        for _ in range(2):
            frames.allocate_on(0)
        spilled = frames.allocate_on(0)
        assert amap.home_node_of_frame(spilled) != 0
        assert frames.spill_count() == 1

    def test_exhaustion_raises(self):
        frames = FrameAllocator(small_map(), frames_per_node=1)
        for node in range(4):
            frames.allocate_on(node)
        with pytest.raises(AllocationError):
            frames.allocate_on(0)

    def test_release_returns_frame(self):
        frames = FrameAllocator(small_map(), frames_per_node=1)
        frame = frames.allocate_on(1)
        assert frames.free_frames(1) == 0
        frames.release(frame)
        assert frames.free_frames(1) == 1

    def test_unknown_node_rejected(self):
        frames = FrameAllocator(small_map())
        with pytest.raises(ConfigurationError):
            frames.allocate_on(9)


class TestPageTable:
    def test_map_and_lookup(self):
        table = PageTable(process_id=1)
        table.map_page(10, physical_frame=99, node=3, first_toucher=7)
        mapping = table.lookup(10)
        assert mapping is not None
        assert mapping.physical_frame == 99
        assert mapping.node == 3
        assert mapping.first_toucher == 7

    def test_double_map_rejected(self):
        table = PageTable()
        table.map_page(1, 2, 0, 0)
        with pytest.raises(AddressError):
            table.map_page(1, 3, 0, 0)

    def test_fault_counted(self):
        table = PageTable()
        assert table.lookup(5) is None
        assert table.stats.faults == 1

    def test_remap_counts_migration(self):
        table = PageTable()
        table.map_page(1, 2, 0, 0)
        table.remap_page(1, 7, 3)
        mapping = table.lookup(1)
        assert mapping.physical_frame == 7
        assert mapping.node == 3
        assert table.stats.migrations == 1

    def test_unmap(self):
        table = PageTable()
        table.map_page(1, 2, 0, 0)
        table.unmap(1)
        assert not table.is_mapped(1)
        with pytest.raises(AddressError):
            table.unmap(1)

    def test_pages_on_node(self):
        table = PageTable()
        table.map_page(1, 2, 0, 0)
        table.map_page(2, 3, 0, 0)
        table.map_page(3, 4, 1, 0)
        assert table.pages_on_node(0) == 2
        assert table.pages_on_node(1) == 1


class TestNumaAllocator:
    def test_available_policies(self):
        assert set(available_placement_policies()) == {
            "first-touch",
            "next-touch",
            "interleaved",
            "fixed",
        }

    def test_first_touch_places_locally(self):
        allocator = NumaAllocator(small_map(), policy="first-touch")
        paddr = allocator.translate(process_id=0, core=2, vaddr=0x5000)
        assert allocator.home_node(paddr) == 2
        assert allocator.stats.first_touch_local == 1

    def test_translation_is_stable(self):
        allocator = NumaAllocator(small_map())
        first = allocator.translate(0, 1, 0x5000)
        second = allocator.translate(0, 3, 0x5000)  # different core, same page
        assert first == second
        assert allocator.home_node(second) == 1

    def test_offsets_preserved(self):
        allocator = NumaAllocator(small_map())
        base = allocator.translate(0, 0, 0x5000)
        offset = allocator.translate(0, 0, 0x5123)
        assert offset - base == 0x123

    def test_interleaved_spreads_pages(self):
        allocator = NumaAllocator(small_map(), policy="interleaved")
        nodes = set()
        for page in range(4):
            paddr = allocator.translate(0, 0, page * 4096)
            nodes.add(allocator.home_node(paddr))
        assert nodes == {0, 1, 2, 3}

    def test_fixed_places_on_node_zero(self):
        allocator = NumaAllocator(small_map(), policy="fixed")
        for page in range(4):
            paddr = allocator.translate(0, 3, page * 4096)
            assert allocator.home_node(paddr) == 0

    def test_spill_to_remote_counted(self):
        allocator = NumaAllocator(small_map(), frames_per_node=1)
        allocator.translate(0, 0, 0x0000)
        allocator.translate(0, 0, 0x1000)  # node 0 pool exhausted, spills
        assert allocator.stats.spilled_remote == 1

    def test_separate_page_tables_per_process(self):
        allocator = NumaAllocator(small_map())
        a = allocator.translate(process_id=0, core=0, vaddr=0x5000)
        b = allocator.translate(process_id=1, core=1, vaddr=0x5000)
        assert a != b
        assert allocator.home_node(a) == 0
        assert allocator.home_node(b) == 1

    def test_next_touch_migrates_page(self):
        allocator = NumaAllocator(small_map(), policy="next-touch")
        allocator.translate(0, 0, 0x5000)  # first touch by core 0
        marked = allocator.mark_next_touch(0, [5])  # virtual page 5 = 0x5000
        assert marked == 1
        paddr = allocator.translate(0, 2, 0x5000)  # next touch by core 2
        assert allocator.home_node(paddr) == 2
        assert allocator.stats.next_touch_migrations == 1

    def test_mark_next_touch_ignored_for_first_touch_policy(self):
        allocator = NumaAllocator(small_map(), policy="first-touch")
        assert allocator.mark_next_touch(0, [5]) == 0

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaAllocator(small_map(), policy="striped")

    def test_unknown_core_rejected(self):
        allocator = NumaAllocator(small_map())
        with pytest.raises(ConfigurationError):
            allocator.translate(0, 99, 0x1000)

    def test_unknown_core_rejected_on_memoized_page(self):
        allocator = NumaAllocator(small_map())
        allocator.translate(0, 0, 0x1000)  # warms the memo for page 1
        with pytest.raises(ConfigurationError):
            allocator.translate(0, 99, 0x1000)

    def test_pages_on_node_accounting(self):
        allocator = NumaAllocator(small_map())
        for page in range(3):
            allocator.translate(0, 1, page * 4096)
        assert allocator.pages_on_node(1) == 3

    def test_memoized_translation_counts_like_a_walk(self):
        allocator = NumaAllocator(small_map())
        addresses = {allocator.translate(0, 0, 0x5000) for _ in range(3)}
        table = allocator.page_table(0)
        # One walk (the first touch faults and maps the page); the two
        # memoized repeats return the walk's address without re-walking.
        assert len(addresses) == 1
        assert table.stats.faults == 1
        assert table.stats.mappings_created == 1
        assert allocator._translation_cache[(0, 5)] == (
            allocator.address_map.frame_base(table.lookup(5).physical_frame)
        )

    def test_remap_invalidates_memoized_translation(self):
        allocator = NumaAllocator(small_map())
        before = allocator.translate(0, 0, 0x5000)  # memoizes page 5
        new_frame = allocator.frames.allocate_on(1)
        allocator.page_table(0).remap_page(5, new_frame, 1)
        after = allocator.translate(0, 0, 0x5000)
        assert after != before
        assert allocator.home_node(after) == 1

    def test_unmap_invalidates_memoized_translation(self):
        allocator = NumaAllocator(small_map())
        first = allocator.translate(0, 0, 0x5000)
        allocator.page_table(0).unmap(5)
        # The page is gone; the next touch must re-allocate (possibly the
        # same frame) rather than silently serving the stale translation.
        second = allocator.translate(0, 2, 0x5000)
        assert allocator.page_table(0).lookup(5).first_toucher == 2
        assert allocator.home_node(second) == 2
