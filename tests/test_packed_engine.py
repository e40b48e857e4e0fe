"""Packed engine primitives against the reference, plus its miss path.

The packed engine reads and fills its caches in
``PackedMachine.perform_access``; the lock-step fuzzer
(``tests/test_conformance_fuzz.py``) compares those lookups' results —
every node's resident lines with state and way, and its probe-filter
entries — with the reference machine's mid-run.  This suite pins what
a random stream reaches only by chance: the LRU victim of the engine's
own L2 and L1 fills and of :meth:`PackedProbeFilter.allocate` on
hand-set recency states (including the reference quirk that LRU prefers
an occupied-but-never-touched way, in ascending way order), the coded
invalidate/downgrade probes against the reference hierarchy's, the
inclusion check of the packed access body, and one scenario per miss
flavour.
"""

from __future__ import annotations

from array import array

import pytest

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.packed import (
    CODE_TO_STATE,
    STATE_MODIFIED,
    STATE_OWNED,
    STATE_SHARED,
    PackedCache,
    PackedHierarchy,
)
from repro.coherence.states import LineState
from repro.core.packed_directory import PackedProbeFilter
from repro.core.probe_filter import ProbeFilter
from repro.errors import ConfigurationError
from repro.system.config import experiment_config
from repro.system.fastcore import PackedMachine


def make_pair():
    """A (reference, packed) cache pair with identical parameters."""
    kwargs = dict(size_bytes=2048, associativity=4, line_size=64)
    return Cache("ref", **kwargs), PackedCache("ref", **kwargs)


def place(cache, line, way, code=STATE_SHARED, stamp=1):
    """Make *line* resident in *way* of its set of a packed cache.

    Writes the four arrays a fill writes; a *stamp* of 0 leaves the way
    occupied but never touched.
    """
    slot = ((line >> cache.line_shift) & cache.set_mask) * cache.associativity + way
    cache.tags[slot] = line
    cache.where[line] = slot
    cache.states[slot] = code
    cache.stamps[slot] = stamp
    cache.stamp = max(cache.stamp, stamp)


def resident_view(cache) -> dict:
    """Address -> (state, way) for every resident line."""
    return {
        line.line_address: (line.state, line.way)
        for line in cache.resident_lines()
    }


def reference_lru_stack(stamps):
    """The reference LRU recency stack holding the same order as *stamps*.

    Ways with stamp 0 are left off the stack: occupied but never touched,
    which a restored reference checkpoint can hold.
    """
    ways = sorted(range(len(stamps)), key=stamps.__getitem__)
    return [way for way in ways if stamps[way]]


#: Hand-set LRU stamps of one full 4-way set, with the victim way the
#: reference picks: the first never-touched way, else the oldest.
LRU_STAMP_CASES = [
    ((5, 0, 3, 0), 1),
    ((0, 4, 2, 9), 0),
    ((7, 8, 9, 0), 3),
    ((7, 2, 9, 4), 1),
    ((1, 2, 3, 4), 0),
    ((9, 8, 7, 6), 3),
]


class TestLruVictimFromHandSetStamps:
    """Packed LRU victim choice equals the reference on any recency state."""

    @pytest.mark.parametrize("stamps,expected", LRU_STAMP_CASES)
    def test_cache(self, stamps, expected):
        # A read miss on a PackedMachine fills its L2 and L1D in the
        # engine's own access body.  The missing line's set is full at
        # both levels, with the hand-set stamps; the L1D set's lines sit
        # in another L2 set, so the L2 victim frees no L1D way.
        machine = PackedMachine(experiment_config("baseline", scale=16))
        caches = machine.nodes[0].caches
        l1d, l2 = caches.l1d, caches.l2
        ways = len(stamps)
        assert l1d.associativity == l2.associativity == ways
        ratio = l2.set_count // l1d.set_count
        assert ratio > 1
        vaddr = 0x10_0000
        line = machine.allocator.translate(0, 0, vaddr) & ~63
        l2_stride = l2.set_count * l2.line_size
        l1_stride = l1d.set_count * l1d.line_size
        l2_lines = [line + (way + 1) * l2_stride for way in range(ways)]
        l1_lines = [line + (1 + way * ratio) * l1_stride for way in range(ways)]
        for way in range(ways):
            place(l2, l2_lines[way], way, stamp=stamps[way])
            place(l2, l1_lines[way], way)
            place(l1d, l1_lines[way], way, stamp=stamps[way])
        machine.perform_access(0, 0, vaddr, False)
        assert machine.transactions_serviced == 1
        for packed, lines in ((l2, l2_lines), (l1d, l1_lines)):
            reference = Cache(
                "ref", packed.size_bytes, packed.associativity, packed.line_size
            )
            for address in lines:
                reference.fill(address, LineState.SHARED)
            reference._sets[reference.set_index(line)].policy._stack[:] = (
                reference_lru_stack(stamps)
            )
            lv = reference.fill(line, LineState.SHARED)
            assert lv.way == packed.where[line] % ways == expected
            assert lv.line_address == lines[expected]
            assert lv.line_address not in packed.where
            assert packed.evictions == 1
        # The L1D victim left silently: the inclusive L2 still holds it.
        assert l1_lines[expected] in l2.where

    @pytest.mark.parametrize("stamps,expected", LRU_STAMP_CASES)
    def test_probe_filter(self, stamps, expected):
        reference = ProbeFilter(0, coverage_bytes=1024, associativity=4)
        packed = PackedProbeFilter(0, coverage_bytes=1024, associativity=4)
        step = 4 * 64  # 4 sets of 64-byte lines
        lines = [index * step for index in range(4)]
        for address in lines:
            reference.allocate(address, owner=0)
            assert packed.allocate(address, 0, 0) == (-1, 0)
        reference._sets[0].policy._stack[:] = reference_lru_stack(stamps)
        packed.stamps[0:4] = array("q", stamps)
        packed.stamp = max(stamps)
        outcome = reference.allocate(4 * step, owner=1)
        victim_line, holders = packed.allocate(4 * step, 1, 0)
        assert outcome.victim.way == expected
        assert outcome.victim.line_address == victim_line == lines[expected]
        assert holders == 1 << 0
        assert reference.stats == packed.stats


class TestPackedHierarchyParity:
    """Inclusion as the packed access body sees it."""

    def test_machine_raises_on_l1_write_hit_without_l2_copy(self):
        # PackedMachine.perform_access checks inclusion on an L1 write hit.
        machine = PackedMachine(
            experiment_config("baseline", scale=16)
        )
        vaddr = 0x10_0000
        machine.perform_access(0, 0, vaddr, False)
        line = machine.allocator.translate(0, 0, vaddr) & ~63
        machine.nodes[0].caches.l2._drop(line)
        assert machine.perform_access(0, 0, vaddr, False) > 0  # reads stay L1 hits
        with pytest.raises(ConfigurationError, match="inclusion violated"):
            machine.perform_access(0, 0, vaddr, True)


class TestInvalidateCode:
    """The coded directory probes against ``CacheHierarchy``'s."""

    KWARGS = dict(core_id=2, l1i_size=1024, l1d_size=1024, l2_size=2048)

    @classmethod
    def populated(cls):
        """A (reference, packed) hierarchy pair holding the same lines."""
        reference = CacheHierarchy(**cls.KWARGS)
        reference.fill(0x100, LineState.SHARED, is_instruction=True)
        reference.fill(0x140, LineState.MODIFIED)
        reference.l2.fill(0x180, LineState.OWNED)
        packed = PackedHierarchy(**cls.KWARGS)
        for cache, line, code in (
            (packed.l2, 0x100, STATE_SHARED),
            (packed.l1i, 0x100, STATE_SHARED),
            (packed.l2, 0x140, STATE_MODIFIED),
            (packed.l1d, 0x140, STATE_MODIFIED),
            (packed.l2, 0x180, STATE_OWNED),
        ):
            place(cache, line, 0, code)  # each line's set is empty
        return reference, packed

    @staticmethod
    def assert_same_caches(reference, packed):
        for left, right in (
            (reference.l1i, packed.l1i),
            (reference.l1d, packed.l1d),
            (reference.l2, packed.l2),
        ):
            assert resident_view(left) == resident_view(right)
            assert left.stats.as_dict() == right.stats.as_dict()

    @pytest.mark.parametrize(
        "line",
        [0x100, 0x140, 0x180, 0x1C0],
        ids=["l1i+l2", "l1d+l2", "l2-only", "absent"],
    )
    def test_matches_reference_probes(self, line):
        reference, packed = self.populated()
        self.assert_same_caches(reference, packed)
        for probe, coded in (
            (reference.handle_downgrade, packed.downgrade_code),
            (reference.handle_invalidate, packed.invalidate_code),
        ):
            state = probe(line)
            code = coded(line)
            assert (CODE_TO_STATE[code] if code else None) is state
            self.assert_same_caches(reference, packed)
        assert line not in packed.l2.where


class TestPackedMissPath:
    """Regression tests for the packed directory fast path itself.

    Each scenario pins one miss flavour — probe-filter hit, no-allocate
    miss, allocating miss, PF eviction, eviction-notification
    corner modes — by driving a packed and a reference machine through
    the identical access sequence and comparing full snapshots, while the
    packed machine's ``transactions_serviced`` counter proves the
    scenario reached the miss path at all.
    """

    BASE = 0x4000_0000

    def make_machines(self, policy="baseline", pf_coverage=2048, mode="dirty"):
        from repro.stats.compare import snapshot_diff
        from repro.stats.snapshot import collect
        from repro.system.config import (
            CoreConfig,
            DirectoryConfig,
            NetworkConfig,
            SystemConfig,
        )
        from repro.system.fastcore import PackedMachine, build_machine

        config = SystemConfig(
            core_count=4,
            core=CoreConfig(l1i_size=1024, l1d_size=1024, l2_size=2048),
            directory=DirectoryConfig(
                probe_filter_coverage=pf_coverage,
                memory_bytes=64 * 1024 * 1024,
                eviction_notification=mode,
            ),
            network=NetworkConfig(mesh_width=2, mesh_height=2),
            directory_policy=policy,
        )
        packed = PackedMachine(config)
        reference = build_machine(config, "reference")

        def assert_identical():
            assert snapshot_diff(collect(reference), collect(packed)) == []

        return packed, reference, assert_identical

    def drive(self, machines, accesses):
        for core, vaddr, is_write in accesses:
            for machine in machines:
                machine.perform_access(core, 0, vaddr, is_write)

    def test_pf_hit_read_and_write_run_fast(self):
        packed, reference, assert_identical = self.make_machines()
        base = self.BASE
        # Core 0 homes the lines; remote reads then a remote write hit the
        # probe filter (supplier forward, sharer fan-out, invalidations).
        accesses = [(0, base + line * 64, False) for line in range(4)]
        accesses += [(core, base + line * 64, False) for core in (1, 2) for line in range(4)]
        accesses += [(3, base + line * 64, True) for line in range(4)]
        self.drive((packed, reference), accesses)
        assert packed.transactions_serviced > 0
        assert packed.nodes[0].probe_filter.hits > 0
        assert_identical()

    def test_allarm_local_miss_allocates_nothing_and_runs_fast(self):
        packed, reference, assert_identical = self.make_machines(policy="allarm")
        base = self.BASE
        self.drive(
            (packed, reference),
            [(0, base + line * 64, line % 3 == 0) for line in range(8)],
        )
        # ALLARM local misses: serviced fast, no directory state at all.
        assert packed.transactions_serviced == 8
        assert packed.nodes[0].probe_filter.allocations == 0
        assert packed.nodes[0].probe_filter.occupancy() == 0
        assert_identical()

    def test_pf_eviction_runs_fast(self):
        # pf_coverage=1024 -> 4 sets of 4 ways; stride-256 lines all hash
        # to set 0, so the fifth remote allocation must evict — on the
        # fast path, with the full invalidation fan-out packed.
        packed, reference, assert_identical = self.make_machines(pf_coverage=1024)
        base = self.BASE
        self.drive((packed, reference), [(0, base, False)])  # home the page
        self.drive(
            (packed, reference),
            [(1, base + line * 256, False) for line in range(6)],
        )
        assert packed.transactions_serviced > 0
        assert packed.nodes[0].probe_filter.evictions > 0
        assert packed.nodes[0].probe_filter.eviction_invalidations > 0
        assert_identical()

    @pytest.mark.parametrize("mode", ["none", "dirty", "owned"])
    def test_eviction_notification_corner_modes_run_fast(self, mode):
        # Dirty the lines, then stream enough conflicting lines through
        # the tiny L2 to evict them — every notification flavour (silent
        # drop, writeback-only, owned notice) crosses the fast-path fill.
        packed, reference, assert_identical = self.make_machines(
            pf_coverage=8192, mode=mode
        )
        base = self.BASE
        accesses = [(0, base + line * 64, True) for line in range(8)]
        accesses += [(0, base + 2048 + line * 64, False) for line in range(32)]
        accesses += [(0, base + line * 64, False) for line in range(8)]
        self.drive((packed, reference), accesses)
        assert packed.transactions_serviced > 0
        assert packed.nodes[0].caches.l2.evictions > 0
        assert_identical()


class TestPackedCacheConstruction:
    def test_validation_matches_reference(self):
        for bad in (
            dict(size_bytes=0, associativity=4),
            dict(size_bytes=2048, associativity=0),
            dict(size_bytes=2048, associativity=4, line_size=48),
            dict(size_bytes=2000, associativity=4),
            dict(size_bytes=3 * 64 * 4, associativity=4),
        ):
            kwargs = dict(line_size=64)
            kwargs.update(bad)
            with pytest.raises(ConfigurationError):
                Cache("bad", **kwargs)
            with pytest.raises(ConfigurationError):
                PackedCache("bad", **kwargs)

    def test_layout_contract_attributes_match_reference(self):
        # The memoized decomposition attributes are the layout contract
        # both engines share.
        reference, packed = make_pair()
        assert reference.line_shift == packed.line_shift
        assert reference.set_mask == packed.set_mask
        for address in (0x0, 0x1240, 0xFFFF40):
            assert reference.set_index(address) == (
                (address >> packed.line_shift) & packed.set_mask
            )
