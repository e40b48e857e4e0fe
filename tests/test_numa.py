"""Tests for frame pools, the translation map and NUMA placement."""

from __future__ import annotations

import pytest

from repro.errors import AllocationError, ConfigurationError
from repro.memory.address import AddressMap
from repro.numa.allocator import NumaAllocator, available_placement_policies
from repro.numa.frames import FrameAllocator
from repro.stats.compare import snapshot_diff
from repro.stats.snapshot import collect
from repro.system.checkpoint import checkpoint_machine, restore_machine
from repro.system.config import experiment_config
from repro.system.fastcore import ENGINES, build_machine


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
        local = [frames.allocate_on(0) for _ in range(2)]
        assert [amap.home_node_of_frame(f) for f in local] == [0, 0]
        # Nodes 1-3 tie on free frames; the first in node order wins,
        # and its lowest frame is handed out first.
        spilled = frames.allocate_on(0)
        assert spilled == amap.node_frame_range(1).start
        # Node 1 now has fewer free frames than nodes 2 and 3.
        assert amap.home_node_of_frame(frames.allocate_on(0)) == 2

    def test_exhaustion_raises(self):
        frames = FrameAllocator(small_map(), frames_per_node=1)
        for node in range(4):
            frames.allocate_on(node)
        with pytest.raises(AllocationError):
            frames.allocate_on(0)

    def test_unknown_node_rejected(self):
        frames = FrameAllocator(small_map())
        with pytest.raises(ConfigurationError):
            frames.allocate_on(9)


class TestNumaAllocator:
    def test_available_policies(self):
        assert available_placement_policies() == ("first-touch", "interleaved")

    def test_first_touch_places_locally(self):
        allocator = NumaAllocator(small_map(), policy="first-touch")
        paddr = allocator.translate(process_id=0, core=2, vaddr=0x5000)
        assert allocator.home_node(paddr) == 2

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

    def test_spill_to_remote_counted(self):
        allocator = NumaAllocator(small_map(), frames_per_node=1)
        local = allocator.translate(0, 0, 0x0000)
        spilled = allocator.translate(0, 0, 0x1000)  # node 0 pool exhausted
        assert allocator.home_node(local) == 0
        assert allocator.home_node(spilled) == 1
        for page in range(2, 4):
            allocator.translate(0, 0, page * 4096)
        with pytest.raises(AllocationError):
            allocator.translate(0, 0, 0x4000)

    def test_separate_page_tables_per_process(self):
        allocator = NumaAllocator(small_map())
        a = allocator.translate(process_id=0, core=0, vaddr=0x5000)
        b = allocator.translate(process_id=1, core=1, vaddr=0x5000)
        assert a != b
        assert allocator.home_node(a) == 0
        assert allocator.home_node(b) == 1

    def test_unknown_policy_rejected(self):
        for name in ("striped", "next-touch", "fixed"):
            with pytest.raises(ConfigurationError):
                NumaAllocator(small_map(), policy=name)

    def test_unknown_core_rejected(self):
        allocator = NumaAllocator(small_map())
        for core in (99, 4, -1):
            with pytest.raises(ConfigurationError):
                allocator.translate(0, core, 0x1000)
        assert allocator._translation_cache == {}

    def test_unknown_core_rejected_on_memoized_page(self):
        allocator = NumaAllocator(small_map())
        allocator.translate(0, 0, 0x1000)  # warms the memo for page 1
        with pytest.raises(ConfigurationError):
            allocator.translate(0, 99, 0x1000)

    def test_memoized_translation_counts_like_a_walk(self):
        allocator = NumaAllocator(small_map())
        addresses = {allocator.translate(0, 0, 0x5000) for _ in range(3)}
        # One first touch maps the page; the two repeats return its
        # address without allocating another frame.
        assert len(addresses) == 1
        assert allocator._translation_cache == {(0, 5): addresses.pop()}
        assert allocator.frames.pools[0].allocated == 1


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_restored_pools_hand_out_the_same_frames(self, engine):
        # Two frames per node: the first touches from cores 0-2 exhaust
        # their home pools and spill, so after the restore the pools'
        # allocated counts alone decide where each fresh page lands.
        config = experiment_config("allarm", scale=16, frames_per_node=2)

        def touch(machine, pages):
            for page in pages:
                machine.perform_access(page % 3, 0, page * 4096, page % 2 == 0)

        uninterrupted = build_machine(config, engine)
        touch(uninterrupted, range(12))
        allocated = [
            pool.allocated
            for pool in uninterrupted.allocator.frames.pools.values()
        ]
        assert allocated[:3] == [2, 2, 2] and sum(allocated[3:]) == 6
        restored = build_machine(config, engine)
        restore_machine(restored, checkpoint_machine(uninterrupted))
        touch(uninterrupted, range(12, 24))
        touch(restored, range(12, 24))
        assert restored.allocator._translation_cache == (
            uninterrupted.allocator._translation_cache
        )
        assert snapshot_diff(collect(uninterrupted), collect(restored)) == []
