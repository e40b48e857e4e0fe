"""Packed-layout parity: PackedCache/PackedHierarchy vs the reference.

The packed engine's contract is *bit-identical behaviour*, not just
identical snapshots: for any op sequence, a :class:`PackedCache` must
make the same replacement decisions (same victim **ways**, under the
same tie-breaking quirks), count the same stats and report the same
resident state as a :class:`Cache` built with the same parameters.
These tests drive both implementations op-for-op and compare after
every step, for every replacement policy — including the documented
reference subtleties:

* LRU prefers an occupied-but-never-touched way, scanning occupied ways
  in ascending order;
* tree-PLRU walks bits toward the pseudo-LRU half, with untouched
  internal nodes defaulting left;
* random replacement draws from a per-set RNG seeded
  ``seed + set_index + 1``, consuming exactly one ``choice`` per
  eviction.

MSHR merge/full semantics are exercised through the packed hierarchy to
pin that the packed layout did not change miss-tracking behaviour.
"""

from __future__ import annotations

import random
from array import array

import pytest

from repro.cache.cache import Cache
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.packed import CODE_TO_STATE, PackedCache, PackedHierarchy
from repro.coherence.states import LineState
from repro.coherence.transactions import RequestKind
from repro.core.packed_directory import PackedProbeFilter
from repro.core.probe_filter import ProbeFilter
from repro.errors import ConfigurationError

POLICIES = ("lru", "plru", "random")
VALID_STATES = (
    LineState.MODIFIED,
    LineState.OWNED,
    LineState.EXCLUSIVE,
    LineState.SHARED,
)


def make_pair(policy: str, seed: int = 5, associativity: int = 4):
    """A (reference, packed) cache pair with identical parameters."""
    kwargs = dict(
        size_bytes=2048,
        associativity=associativity,
        line_size=64,
        replacement=policy,
        seed=seed,
    )
    return Cache("ref", **kwargs), PackedCache("ref", **kwargs)


def resident_view(cache) -> dict:
    """Address -> (state, way) for every resident line."""
    return {
        line.line_address: (line.state, line.way)
        for line in cache.resident_lines()
    }


def assert_same_state(reference: Cache, packed: PackedCache) -> None:
    assert resident_view(reference) == resident_view(packed)
    assert reference.stats.as_dict() == packed.stats.as_dict()
    assert reference.occupancy() == packed.occupancy()


class TestPackedCacheParity:
    """Randomized op-for-op equivalence, checked after every operation."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_op_sequences(self, policy, seed):
        reference, packed = make_pair(policy, seed=seed)
        rng = random.Random(1000 + seed)
        # A small address pool over few sets forces constant conflicts.
        addresses = [line * 64 for line in range(24)]

        for _ in range(600):
            op = rng.randrange(6)
            address = rng.choice(addresses)
            if op <= 1:
                state = rng.choice(VALID_STATES)
                left = reference.fill(address, state)
                right = packed.fill(address, state)
                if left is None:
                    assert right is None
                else:
                    assert (left.line_address, left.state, left.way) == (
                        right.line_address,
                        right.state,
                        right.way,
                    )
            elif op == 2:
                left = reference.lookup(address)
                right = packed.lookup(address)
                assert (left is None) == (right is None)
                if left is not None:
                    assert (left.state, left.way) == (right.state, right.way)
            elif op == 3:
                left = reference.invalidate(address)
                right = packed.invalidate(address)
                assert (left is None) == (right is None)
                if left is not None:
                    assert (left.state, left.way) == (right.state, right.way)
            elif op == 4:
                if reference.contains(address):
                    state = rng.choice(VALID_STATES)
                    left = reference.set_state(address, state)
                    right = packed.set_state(address, state)
                    assert (left.state, left.way) == (right.state, right.way)
                else:
                    assert not packed.contains(address)
            else:
                left = reference.probe(address)
                right = packed.probe(address)
                assert (left is None) == (right is None)
            assert_same_state(reference, packed)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_flush_parity(self, policy):
        reference, packed = make_pair(policy)
        rng = random.Random(3)
        for _ in range(40):
            address = rng.randrange(32) * 64
            state = rng.choice(VALID_STATES)
            reference.fill(address, state)
            packed.fill(address, state)
        left = {(l.line_address, l.state) for l in reference.flush()}
        right = {(l.line_address, l.state) for l in packed.flush()}
        assert left == right
        assert reference.occupancy() == packed.occupancy() == 0
        # Post-flush behaviour must continue in lock-step (policy state
        # was reset identically).
        for _ in range(40):
            address = rng.randrange(32) * 64
            state = rng.choice(VALID_STATES)
            lv, rv = reference.fill(address, state), packed.fill(address, state)
            assert (lv is None) == (rv is None)
            assert_same_state(reference, packed)


class TestReplacementTieBreaking:
    """The reference tie-break quirks, pinned explicitly on both engines."""

    def _caches(self, policy, associativity=4):
        return make_pair(policy, seed=9, associativity=associativity)

    def test_lru_oldest_fill_evicted_from_way_zero(self):
        for cache in self._caches("lru"):
            set0 = [line * 64 * (2048 // (4 * 64)) for line in range(5)]
            for address in set0[:4]:
                cache.fill(address, LineState.EXCLUSIVE)
            victim = cache.fill(set0[4], LineState.EXCLUSIVE)
            # Pure LRU: the first-filled line is the victim, in way 0.
            assert victim.line_address == set0[0]
            assert victim.way == 0

    def test_lru_victim_is_least_recent_after_touches(self):
        reference, packed = self._caches("lru")
        step = 2048 // (4 * 64) * 64  # one set's stride
        lines = [index * step for index in range(4)]
        for cache in (reference, packed):
            for address in lines:
                cache.fill(address, LineState.SHARED)
            # Touch way 0 and 1 again: way 2's line becomes LRU.
            cache.lookup(lines[0])
            cache.lookup(lines[1])
        lv = reference.fill(5 * step, LineState.SHARED)
        rv = packed.fill(5 * step, LineState.SHARED)
        assert lv.way == rv.way == 2
        assert lv.line_address == rv.line_address == lines[2]

    def test_plru_victim_sequence_parity(self):
        reference, packed = self._caches("plru")
        step = 2048 // (4 * 64) * 64
        rng = random.Random(11)
        for index in range(4):
            reference.fill(index * step, LineState.SHARED)
            packed.fill(index * step, LineState.SHARED)
        for round_number in range(4, 40):
            # Random touches perturb the tree identically on both sides.
            touched = rng.randrange(round_number - 4, round_number)
            reference.lookup(touched * step)
            packed.lookup(touched * step)
            lv = reference.fill(round_number * step, LineState.SHARED)
            rv = packed.fill(round_number * step, LineState.SHARED)
            assert (lv.line_address, lv.way) == (rv.line_address, rv.way)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_random_policy_same_seed_same_victims(self, seed):
        reference, packed = make_pair("random", seed=seed)
        step = 2048 // (4 * 64) * 64
        left_victims, right_victims = [], []
        for index in range(40):
            lv = reference.fill(index * step, LineState.SHARED)
            rv = packed.fill(index * step, LineState.SHARED)
            left_victims.append((lv.line_address, lv.way) if lv else None)
            right_victims.append((rv.line_address, rv.way) if rv else None)
        assert left_victims == right_victims
        # Different seeds must (with overwhelming likelihood) diverge —
        # guards against a packed RNG that ignores its seed.
        other_ref, other_packed = make_pair("random", seed=seed + 100)
        other = [
            (v.line_address, v.way) if v else None
            for v in (other_ref.fill(i * step, LineState.SHARED) for i in range(40))
        ]
        assert other != left_victims
        del other_packed


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
        reference, packed = make_pair("lru")
        step = 2048 // (4 * 64) * 64  # one set's stride
        lines = [index * step for index in range(4)]
        for cache in (reference, packed):
            for address in lines:
                cache.fill(address, LineState.SHARED)
        reference._sets[0].policy._stack[:] = reference_lru_stack(stamps)
        packed.stamps[0:4] = array("q", stamps)
        packed.stamp = max(stamps)
        assert packed.victim_way(0) == expected
        lv = reference.fill(4 * step, LineState.SHARED)
        rv = packed.fill(4 * step, LineState.SHARED)
        assert lv.way == rv.way == expected
        assert lv.line_address == rv.line_address == lines[expected]

    @pytest.mark.parametrize("stamps,expected", LRU_STAMP_CASES)
    def test_probe_filter(self, stamps, expected):
        reference = ProbeFilter(0, coverage_bytes=1024, associativity=4)
        packed = PackedProbeFilter(0, coverage_bytes=1024, associativity=4)
        step = 4 * 64  # 4 sets of 64-byte lines
        lines = [index * step for index in range(4)]
        for address in lines:
            reference.allocate(address, owner=0)
            packed.allocate_fast(address, 0, 0)
        reference._sets[0].policy._stack[:] = reference_lru_stack(stamps)
        packed.stamps[0:4] = array("q", stamps)
        packed.stamp = max(stamps)
        assert packed.victim_way(0) == expected
        outcome = reference.allocate(4 * step, owner=1)
        victim_line, holders = packed.allocate_evict(4 * step, 1, 0)
        assert outcome.victim.way == expected
        assert outcome.victim.line_address == victim_line == lines[expected]
        assert holders == 1 << 0
        assert reference.stats.as_dict() == packed.stats.as_dict()


class TestPackedHierarchyParity:
    def make_hierarchies(self, policy="lru"):
        kwargs = dict(
            core_id=2,
            l1i_size=1024,
            l1d_size=1024,
            l1_assoc=4,
            l2_size=2048,
            l2_assoc=4,
            line_size=64,
            replacement=policy,
        )
        return CacheHierarchy(**kwargs), PackedHierarchy(**kwargs)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_access_fill_invalidate_streams(self, policy):
        reference, packed = self.make_hierarchies(policy)
        rng = random.Random(42)
        addresses = [line * 64 for line in range(48)]
        for _ in range(800):
            op = rng.randrange(10)
            address = rng.choice(addresses)
            if op < 6:
                is_write = rng.random() < 0.3
                is_instruction = rng.random() < 0.1
                left = reference.access(address, is_write, is_instruction)
                right = packed.access(address, is_write, is_instruction)
                assert left == right
                if left.needs_coherence and not left.needs_upgrade:
                    state = (
                        LineState.MODIFIED if is_write else rng.choice(VALID_STATES)
                    )
                    lv = reference.fill(address, state, is_instruction)
                    rv = packed.fill(address, state, is_instruction)
                    assert lv == rv
            elif op < 8:
                assert reference.handle_invalidate(
                    address
                ) == packed.handle_invalidate(address)
            else:
                assert reference.handle_downgrade(
                    address
                ) == packed.handle_downgrade(address)
            assert reference.coherence_state(address) is packed.coherence_state(
                address
            )
        for left_cache, right_cache in (
            (reference.l1i, packed.l1i),
            (reference.l1d, packed.l1d),
            (reference.l2, packed.l2),
        ):
            assert left_cache.stats.as_dict() == right_cache.stats.as_dict()
            assert resident_view(left_cache) == resident_view(right_cache)
        assert reference.total_accesses() == packed.total_accesses()
        assert reference.l2_misses() == packed.l2_misses()

    def test_inclusion_violation_raises_on_l1_write_hit(self):
        _, packed = self.make_hierarchies()
        packed.access(0x100, False)
        packed.fill(0x100, LineState.EXCLUSIVE)
        # Corrupt the hierarchy: drop the line from L2 only.
        packed.l2.invalidate(0x100)
        with pytest.raises(ConfigurationError, match="inclusion violated"):
            packed.access(0x100, True)


class TestInvalidateCode:
    """``invalidate_code`` is ``handle_invalidate`` without the view."""

    @staticmethod
    def populated(policy):
        hierarchy = PackedHierarchy(
            core_id=2, l1i_size=1024, l1d_size=1024, l2_size=2048,
            replacement=policy,
        )
        hierarchy.fill(0x100, LineState.SHARED, is_instruction=True)
        hierarchy.fill(0x140, LineState.MODIFIED)
        hierarchy.l2.fill(0x180, LineState.OWNED)
        return hierarchy

    @pytest.mark.parametrize("policy", POLICIES)
    def test_matches_handle_invalidate(self, policy):
        viewed, coded = self.populated(policy), self.populated(policy)
        cases = [
            (0x100, LineState.SHARED),  # L1I + L2
            (0x140, LineState.MODIFIED),  # L1D + L2
            (0x180, LineState.OWNED),  # L2 only
            (0x1C0, None),  # absent
        ]
        for line, expected in cases:
            state = viewed.handle_invalidate(line)
            code = coded.invalidate_code(line)
            assert state is expected
            assert (CODE_TO_STATE[code] if code else None) is state
            for left, right in (
                (viewed.l1i, coded.l1i),
                (viewed.l1d, coded.l1d),
                (viewed.l2, coded.l2),
            ):
                assert left.tags == right.tags
                assert left.states == right.states
                assert left.stamps == right.stamps
                assert left.stats.as_dict() == right.stats.as_dict()
        assert coded.l2.invalidations_received == 3
        assert coded.l1i.invalidations_received == 1
        assert coded.l1d.invalidations_received == 1
        assert coded.l2.occupancy() == 0


class TestMshrUnderPackedLayout:
    """MSHR merge/full semantics are layout-independent."""

    def test_merge_and_full_behaviour_matches_reference(self):
        reference = CacheHierarchy(core_id=0, mshr_capacity=2).mshrs
        packed = PackedHierarchy(core_id=0, mshr_capacity=2).mshrs
        for mshrs in (reference, packed):
            first = mshrs.allocate(0x100, RequestKind.READ)
            merged = mshrs.allocate(0x100, RequestKind.WRITE)
            assert merged is first
            assert merged.merged_count == 2
            assert merged.needs_write
            mshrs.allocate(0x140, RequestKind.READ)
            assert mshrs.is_full
            with pytest.raises(ConfigurationError, match="MSHR file full"):
                mshrs.allocate(0x180, RequestKind.READ)
        assert reference.stats.__dict__ == packed.stats.__dict__

    def test_release_and_drain_parity(self):
        reference = CacheHierarchy(core_id=1).mshrs
        packed = PackedHierarchy(core_id=1).mshrs
        for mshrs in (reference, packed):
            mshrs.allocate(0x200, RequestKind.READ)
            mshrs.allocate(0x240, RequestKind.WRITE)
            released = mshrs.release(0x200)
            assert released.line_address == 0x200
            drained = mshrs.drain()
            assert [entry.line_address for entry in drained] == [0x240]
            assert mshrs.occupancy == 0
        assert reference.stats.__dict__ == packed.stats.__dict__


class TestPackedMissPath:
    """Regression tests for the packed directory fast path itself.

    Each scenario pins one miss flavour — probe-filter hit, no-allocate
    miss, allocating miss, PF eviction, MSHR merge, eviction-notification
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

    def test_mshr_merge_on_inflight_miss(self):
        from repro.coherence.transactions import RequestKind

        packed, reference, assert_identical = self.make_machines()
        vaddr = self.BASE + 0x40
        for machine in (packed, reference):
            # Pre-register the line as an in-flight miss (what a bursty
            # trace-replay harness would do), then let the miss complete:
            # the service must merge into the existing entry and retire it.
            paddr = machine.allocator.translate(0, 0, vaddr)
            line = paddr & ~(machine.config.line_size - 1)
            mshrs = machine.nodes[0].caches.mshrs
            mshrs.allocate(line, RequestKind.READ)
            machine.perform_access(0, 0, vaddr, True)
            assert mshrs.stats.merges == 1
            assert mshrs.stats.allocations == 1
            assert mshrs.stats.releases == 1
            assert mshrs.occupancy == 0
        assert packed.transactions_serviced == 1
        assert (
            packed.nodes[0].caches.mshrs.stats.__dict__
            == reference.nodes[0].caches.mshrs.stats.__dict__
        )
        assert_identical()

    def test_mshr_slot_held_for_exactly_the_miss_duration(self):
        packed, _, _ = self.make_machines()
        mshrs = packed.nodes[1].caches.mshrs
        packed.perform_access(1, 0, self.BASE, False)
        assert mshrs.stats.allocations == 1
        assert mshrs.stats.releases == 1
        assert mshrs.stats.peak_occupancy == 1
        assert mshrs.occupancy == 0

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
            kwargs = dict(line_size=64, replacement="lru")
            kwargs.update(bad)
            with pytest.raises(ConfigurationError):
                Cache("bad", **kwargs)
            with pytest.raises(ConfigurationError):
                PackedCache("bad", **kwargs)

    def test_plru_requires_power_of_two_associativity(self):
        with pytest.raises(ConfigurationError):
            PackedCache("bad", 64 * 3 * 8, 3, replacement="plru")

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError):
            PackedCache("bad", 2048, 4, replacement="mru")

    def test_layout_contract_attributes_match_reference(self):
        # The memoized decomposition attributes are the layout contract
        # both engines share.
        reference, packed = make_pair("lru")
        assert reference.line_shift == packed.line_shift
        assert reference.set_mask == packed.set_mask
        for address in (0x0, 0x1240, 0xFFFF40):
            assert reference.set_index(address) == packed.set_index(address)
