"""Property-based coherence validation: litmus-style randomized streams.

Hypothesis generates arbitrary interleavings of reads and writes from
every core over a small page pool, drives them through a deliberately
tiny machine (so caches and probe filters overflow constantly), and
asserts the protocol safety invariants of
:mod:`repro.coherence.invariants` after every single access — under both
directory policies and every eviction-notification mode.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.coherence.invariants import (
    cached_line_states,
    check_directory_tracking,
    check_machine_invariants,
    check_packed_eviction_bookkeeping,
    check_probe_filter_structure,
    check_single_writer,
)
from repro.coherence.states import LineState
from repro.errors import ProtocolError
from repro.system.config import (
    CoreConfig,
    DirectoryConfig,
    NetworkConfig,
    SystemConfig,
)
from repro.system.machine import Machine

#: Number of cores/nodes in the litmus machine (2x2 mesh).
CORES = 4

#: Virtual pages the random streams touch.  Small enough that cores
#: collide on lines constantly, large enough to overflow the tiny caches.
PAGES = 6

#: Lines probed within each page.
LINES_PER_PAGE = 4


def tiny_config(policy: str, eviction_notification: str = "dirty") -> SystemConfig:
    """A 4-node machine with caches small enough to thrash immediately."""
    return SystemConfig(
        core_count=CORES,
        core=CoreConfig(l1i_size=1024, l1d_size=1024, l2_size=2048),
        directory=DirectoryConfig(
            probe_filter_coverage=2048,
            memory_bytes=64 * 1024 * 1024,
            eviction_notification=eviction_notification,
        ),
        network=NetworkConfig(mesh_width=2, mesh_height=2),
        directory_policy=policy,
    )


#: One random access: (core, page, line-in-page, is_write).
access_strategy = st.tuples(
    st.integers(min_value=0, max_value=CORES - 1),
    st.integers(min_value=0, max_value=PAGES - 1),
    st.integers(min_value=0, max_value=LINES_PER_PAGE - 1),
    st.booleans(),
)

stream_strategy = st.lists(access_strategy, min_size=1, max_size=120)


def drive(machine: Machine, stream) -> None:
    """Replay a random stream, checking every invariant after each step."""
    base = 0x4000_0000
    for core, page, line, is_write in stream:
        vaddr = base + page * 4096 + line * 64
        machine.perform_access(core, 0, vaddr, is_write)
        check_machine_invariants(machine)


class TestRandomStreamsKeepInvariants:
    @settings(max_examples=40, deadline=None)
    @given(stream=stream_strategy)
    def test_baseline(self, stream):
        drive(Machine(tiny_config("baseline")), stream)

    @settings(max_examples=40, deadline=None)
    @given(stream=stream_strategy)
    def test_allarm(self, stream):
        drive(Machine(tiny_config("allarm")), stream)

    @settings(max_examples=15, deadline=None)
    @given(stream=stream_strategy)
    @pytest.mark.parametrize("mode", ["none", "owned"])
    def test_eviction_notification_modes(self, stream, mode):
        drive(Machine(tiny_config("baseline", eviction_notification=mode)), stream)

    @settings(max_examples=15, deadline=None)
    @given(stream=stream_strategy)
    def test_allarm_with_multiple_processes(self, stream):
        # Distinct processes map the same virtual pages to distinct
        # physical frames; interleave two of them on alternating cores.
        machine = Machine(tiny_config("allarm"))
        base = 0x4000_0000
        for index, (core, page, line, is_write) in enumerate(stream):
            vaddr = base + page * 4096 + line * 64
            machine.perform_access(core, index % 2, vaddr, is_write)
            check_machine_invariants(machine)


class TestInvariantStrength:
    """The checks must actually catch broken states, not pass vacuously."""

    def warmed_machine(self, policy: str = "baseline") -> Machine:
        machine = Machine(tiny_config(policy))
        for core in range(CORES):
            for page in range(PAGES):
                machine.perform_access(core, 0, 0x4000_0000 + page * 4096, False)
        check_machine_invariants(machine)
        return machine

    def test_detects_double_writer(self):
        machine = self.warmed_machine()
        lines = cached_line_states(machine)
        # Find a line somewhere and force a second node to hold it MODIFIED.
        line_address, holders = next(iter(lines.items()))
        other = next(n for n in range(CORES) if n not in holders)
        machine.node(other).caches.l2.fill(line_address, LineState.MODIFIED)
        with pytest.raises(ProtocolError, match="writable"):
            check_single_writer(machine)

    def test_detects_untracked_remote_holder(self):
        machine = self.warmed_machine()
        line_address, holders = next(iter(cached_line_states(machine).items()))
        home = machine.address_map.home_node(line_address)
        entry = machine.node(home).probe_filter.peek(line_address)
        if entry is None:
            pytest.skip("picked an untracked line; stream too short")
        # Forge a holder the directory does not know about.
        forged = next(n for n in range(CORES) if n not in entry.holders)
        machine.node(forged).caches.l2.fill(line_address, LineState.SHARED)
        with pytest.raises(ProtocolError):
            check_directory_tracking(machine)

    def test_detects_duplicate_probe_filter_entries(self):
        machine = self.warmed_machine()
        probe_filter = machine.node(0).probe_filter
        entry = next(iter(probe_filter.entries()), None)
        if entry is None:
            pytest.skip("probe filter empty")
        # Clone the entry into another way of its set, bypassing the
        # allocate() guard (making room first if the set is full).
        fset = probe_filter._sets[probe_filter.set_index(entry.line_address)]
        free = next(
            (w for w in range(probe_filter.associativity) if w not in fset.entries),
            None,
        )
        if free is None:
            free = next(w for w in fset.entries if w != entry.way)
            del fset.entries[free]
        import copy

        clone = copy.copy(entry)
        clone.way = free
        fset.entries[free] = clone
        with pytest.raises(ProtocolError, match="duplicate"):
            check_probe_filter_structure(machine)

    def test_detects_entry_in_wrong_set(self):
        machine = self.warmed_machine()
        probe_filter = machine.node(0).probe_filter
        entry = next(iter(probe_filter.entries()), None)
        if entry is None:
            pytest.skip("probe filter empty")
        # Move the entry to a set its address does not hash to; peek()
        # would silently miss it there.
        home = probe_filter._sets[probe_filter.set_index(entry.line_address)]
        wrong = probe_filter._sets[
            (probe_filter.set_index(entry.line_address) + 1) % probe_filter.set_count
        ]
        del home.entries[entry.way]
        wrong.entries.pop(entry.way, None)
        wrong.entries[entry.way] = entry
        with pytest.raises(ProtocolError, match="hashes to set"):
            check_probe_filter_structure(machine)


class TestPackedMutationStrength:
    """Targeted corruptions of the packed PF/L2 arrays must all be caught.

    Each test injects one corruption class into a healthy packed machine
    and asserts the invariant checker (or, for pure counter damage,
    ``snapshot_diff``) detects it — guarding against a checker that only
    understands the reference object graph and stays silent on the
    arrays the default engine actually runs on.
    """

    def warmed_packed(self, policy: str = "baseline"):
        from repro.system.fastcore import build_machine

        machine = build_machine(tiny_config(policy), "packed")
        base = 0x4000_0000
        # Core 0 first-touches one page (homing it on node 0), then the
        # other cores read distinct lines of it — page-internal lines land
        # in distinct probe-filter sets, so node 0's filter ends up with
        # stable entries carrying a live owner and a remote sharer set.
        for line in range(PAGES):
            machine.perform_access(0, 0, base + line * 64, False)
        for core in range(1, CORES):
            for line in range(PAGES):
                machine.perform_access(core, 0, base + line * 64, False)
        check_machine_invariants(machine)
        return machine

    def tracked_slot(self, machine):
        """(node, pf, slot) of an entry with an owner and remote sharers."""
        for node in machine.nodes:
            pf = node.probe_filter
            for slot in range(pf.entry_count):
                if pf.tags[slot] >= 0 and pf.owners[slot] >= 0 and pf.sharer_bits[slot]:
                    return node, pf, slot
        pytest.fail("warm-up produced no owner+sharers entry")

    def test_detects_out_of_range_sharer_bit(self):
        machine = self.warmed_packed()
        _, pf, slot = self.tracked_slot(machine)
        pf.sharer_bits[slot] |= 1 << CORES  # bit beyond the mesh
        with pytest.raises(ProtocolError, match="outside"):
            check_probe_filter_structure(machine)

    def test_detects_cleared_holder_bit(self):
        machine = self.warmed_packed()
        _, pf, slot = self.tracked_slot(machine)
        # Drop one real sharer from the mask: the directory now
        # under-approximates the holders, which would let a stale copy
        # survive an invalidation.
        mask = pf.sharer_bits[slot]
        pf.sharer_bits[slot] = mask & (mask - 1)
        with pytest.raises(ProtocolError, match="actually hold"):
            check_directory_tracking(machine)

    def test_detects_stale_owner(self):
        machine = self.warmed_packed()
        _, pf, slot = self.tracked_slot(machine)
        # Repoint the owner at a node that holds nothing and erase the
        # sharers: every real holder goes untracked.
        real_owner = pf.owners[slot]
        pf.owners[slot] = (real_owner + 1) % CORES
        pf.sharer_bits[slot] = 0
        with pytest.raises(ProtocolError, match="actually hold"):
            check_directory_tracking(machine)

    def test_detects_residual_holders_on_free_way(self):
        machine = self.warmed_packed()
        _, pf, slot = self.tracked_slot(machine)
        pf.tags[slot] = -1  # free the way but leave the holder fields
        with pytest.raises(ProtocolError, match="still records holders"):
            check_probe_filter_structure(machine)

    def test_detects_duplicate_and_wrong_set_tags(self):
        machine = self.warmed_packed()
        _, pf, slot = self.tracked_slot(machine)
        tag = pf.tags[slot]
        assoc = pf.associativity
        base = (slot // assoc) * assoc
        free = next(
            (s for s in range(base, base + assoc) if pf.tags[s] < 0), None
        )
        if free is not None:
            pf.tags[free] = tag  # duplicate within the right set
            with pytest.raises(ProtocolError, match="duplicate"):
                check_probe_filter_structure(machine)
            pf.tags[free] = -1
        self.move_to_another_set(pf, tag)
        with pytest.raises(ProtocolError, match="hashes to set"):
            check_machine_invariants(machine)

    def test_detects_cache_line_in_wrong_set(self):
        machine = self.warmed_packed()
        l2 = machine.nodes[1].caches.l2
        self.move_to_another_set(l2, next(iter(l2.where)))
        with pytest.raises(ProtocolError, match="hashes to set"):
            check_machine_invariants(machine)

    @pytest.mark.parametrize("store", ["l2", "probe filter"])
    def test_detects_shared_lru_stamp_within_a_set(self, store):
        machine = self.warmed_packed()
        # Lines 512 bytes apart share a set of both the 8-set L2 and the
        # 8-set probe filter; core 1 reads two of node 0's.
        for vaddr in (0x4000_0000, 0x4000_0200):
            machine.perform_access(1, 0, vaddr, False)
        check_machine_invariants(machine)
        packed = (
            machine.nodes[1].caches.l2
            if store == "l2"
            else machine.nodes[0].probe_filter
        )
        # Set 0 holds both lines.
        first, second = [
            slot for slot in range(packed.associativity) if packed.tags[slot] >= 0
        ][:2]
        # The LRU victim is the set's *first* minimum stamp, which is the
        # least recently used way only while stamps are distinct: a stamp
        # copied onto a sibling way silently re-ranks the set.
        packed.stamps[second] = packed.stamps[first]
        with pytest.raises(ProtocolError, match="share LRU stamp"):
            check_machine_invariants(machine)

    @staticmethod
    def packed_store(machine, store):
        return (
            machine.nodes[1].caches.l2
            if store == "l2"
            else machine.nodes[0].probe_filter
        )

    @staticmethod
    def free_arrays_only(packed, slot):
        """Free *slot* in the arrays the way a free does, but not in ``where``."""
        packed.tags[slot] = -1
        packed.stamps[slot] = 0
        if hasattr(packed, "states"):
            packed.states[slot] = 0
        else:
            packed.owners[slot] = -1
            packed.sharer_bits[slot] = 0

    def move_to_another_set(self, packed, line):
        """Refile *line* in the first free slot of another set.

        Tag, stamp, holder or state fields and the residency map all
        move together, so only the set hash is wrong: the line no longer
        counts against the capacity and LRU order of its own set.
        """
        assoc = packed.associativity
        slot = packed.where[line]
        moved = next(
            s for s in range(len(packed.tags))
            if packed.tags[s] < 0 and s // assoc != slot // assoc
        )
        fields = ("tags", "stamps") + (
            ("states",) if hasattr(packed, "states") else ("owners", "sharer_bits")
        )
        for name in fields:
            values = getattr(packed, name)
            values[moved] = values[slot]
        self.free_arrays_only(packed, slot)
        packed.where[line] = moved

    @pytest.mark.parametrize("store", ["l2", "probe filter"])
    def test_detects_stale_residency_map_entry(self, store):
        machine = self.warmed_packed()
        packed = self.packed_store(machine, store)
        line, slot = next(iter(packed.where.items()))
        # A free that forgets the map: every later lookup of the line
        # would hit a free way.
        self.free_arrays_only(packed, slot)
        assert packed.where[line] == slot
        with pytest.raises(ProtocolError, match="residency map"):
            check_packed_eviction_bookkeeping(machine)

    @pytest.mark.parametrize("store", ["l2", "probe filter"])
    def test_detects_lost_and_misdirected_map_entries(self, store):
        machine = self.warmed_packed()
        packed = self.packed_store(machine, store)
        (line, slot), (other_line, other_slot) = list(packed.where.items())[:2]
        del packed.where[line]  # a fill that forgets the map
        with pytest.raises(ProtocolError, match="residency map"):
            check_packed_eviction_bookkeeping(machine)
        packed.where[line] = other_slot  # the line's lookups land elsewhere
        with pytest.raises(ProtocolError, match=f"{line:#x}"):
            check_packed_eviction_bookkeeping(machine)
        packed.where[line] = slot
        check_packed_eviction_bookkeeping(machine)

    @pytest.mark.parametrize("store", ["l2", "probe filter"])
    def test_detects_unstamped_occupied_slot(self, store):
        machine = self.warmed_packed()
        packed = self.packed_store(machine, store)
        slot = next(iter(packed.where.values()))
        # Way choice takes the first zero stamp as a free way, so this
        # slot would be evicted while its set still has a free way.
        packed.stamps[slot] = 0
        with pytest.raises(ProtocolError, match="never been stamped"):
            check_packed_eviction_bookkeeping(machine)

    def test_detects_second_writer_in_packed_l2(self):
        machine = self.warmed_packed()
        line_address, holders = next(
            (item for item in cached_line_states(machine).items() if len(item[1]) > 1),
            (None, None),
        )
        assert line_address is not None, "warm-up produced no shared line"
        # Flip one holder's packed L2 state byte to MODIFIED.
        from repro.cache.packed import STATE_MODIFIED

        node_id = next(iter(holders))
        l2 = machine.nodes[node_id].caches.l2
        l2.states[l2.where[line_address]] = STATE_MODIFIED
        with pytest.raises(ProtocolError, match="writable"):
            check_single_writer(machine)

    def test_snapshot_diff_catches_counter_and_occupancy_damage(self):
        from repro.stats.compare import snapshot_diff
        from repro.stats.snapshot import collect

        machine = self.warmed_packed()
        clean = collect(machine)
        pf = machine.nodes[0].probe_filter
        pf.reads += 1  # silent counter corruption: invisible to invariants
        diffs = snapshot_diff(clean, collect(machine))
        assert any("pf_reads" in diff for diff in diffs)
        pf.reads -= 1
        slot = next(s for s in range(pf.entry_count) if pf.tags[s] >= 0)
        tag = pf.tags[slot]
        pf.tags[slot] = -1
        pf.owners[slot] = -1
        pf.sharer_bits[slot] = 0
        diffs = snapshot_diff(clean, collect(machine))
        assert any("pf_occupancy" in diff for diff in diffs)
        pf.tags[slot] = tag


class TestSimulatedWorkloadsKeepInvariants:
    """End-state invariant check after real workload runs (both policies)."""

    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    @pytest.mark.parametrize("workload", ["barnes", "false-sharing", "migratory"])
    def test_workload_end_state(self, policy, workload):
        from repro.system.config import experiment_config
        from repro.system.simulator import Simulator
        from repro.workloads.registry import build_spec
        from repro.workloads.base import SyntheticWorkload

        spec = build_spec(workload, total_accesses=2000).with_footprint_scale(32)
        simulator = Simulator(experiment_config(policy, scale=32))
        simulator.run(SyntheticWorkload(spec).generate(), workload)
        check_machine_invariants(simulator.machine)
