"""Coverage for ``Machine._handle_evictions`` across notification modes.

The ``eviction_notification`` knob controls which L2 evictions inform the
home directory (so its probe-filter entry can be reclaimed) versus which
are silent:

* ``"owned"`` — notify on every owned-state eviction (M, O and clean E);
* ``"dirty"`` — notify only on dirty (M/O) evictions;
* ``"none"``  — never notify, but dirty data must still reach memory.

These tests drive a scaled-down machine through eviction-heavy traces
whose victim states are known by construction (stores leave MODIFIED
lines, first-reader loads leave clean EXCLUSIVE lines) and assert the
notification/writeback split each mode produces.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.system.config import experiment_config
from repro.system.machine import Machine

#: Enough distinct lines to overflow the scaled-down (8 kB, 128-line) L2
#: several times over.
LINE_COUNT = 600
LINE_SIZE = 64
BASE_VADDR = 0x10_0000


def _machine(mode: str) -> Machine:
    config = experiment_config("baseline", scale=16)
    config = replace(
        config, directory=replace(config.directory, eviction_notification=mode)
    )
    return Machine(config)


def _run_trace(machine: Machine, is_write: bool) -> None:
    """Touch LINE_COUNT distinct lines once, from core 0 only.

    Under first-touch allocation every page lands on node 0, so all the
    traffic is local and every L2 victim is homed at node 0's directory.
    """
    for index in range(LINE_COUNT):
        machine.perform_access(
            core=0,
            process_id=0,
            vaddr=BASE_VADDR + index * LINE_SIZE,
            is_write=is_write,
        )


def _notices(machine: Machine) -> int:
    return sum(n.directory.stats.cache_eviction_notices for n in machine.nodes)


def _writebacks(machine: Machine) -> int:
    # A writeback is the only DRAM access that counts a write.
    return sum(n.dram.stats.writes for n in machine.nodes)


class TestDirtyVictims:
    """Store-only trace: every L2 victim is MODIFIED (dirty and owned)."""

    @pytest.fixture(scope="class")
    def machines(self):
        machines = {}
        for mode in ("owned", "dirty", "none"):
            machine = _machine(mode)
            _run_trace(machine, is_write=True)
            machines[mode] = machine
        return machines

    def test_trace_produces_evictions(self, machines):
        # Sanity: the trace overflows the L2, otherwise nothing below means
        # anything.
        for machine in machines.values():
            assert machine.nodes[0].caches.l2.stats.evictions > 0

    def test_none_mode_is_silent(self, machines):
        assert _notices(machines["none"]) == 0

    def test_dirty_and_owned_notify_dirty_victims(self, machines):
        dirty_notices = _notices(machines["dirty"])
        assert dirty_notices > 0
        # Every victim is dirty, so the stronger "owned" mode notifies for
        # exactly the same set of victims.
        assert _notices(machines["owned"]) == dirty_notices

    def test_dirty_data_reaches_memory_in_every_mode(self, machines):
        # Whether or not the directory hears about the eviction, dirty
        # lines must be written back; "none" takes the silent-writeback
        # path through the memory controller.
        writebacks = {mode: _writebacks(m) for mode, m in machines.items()}
        assert writebacks["none"] > 0
        assert writebacks["none"] == writebacks["dirty"] == writebacks["owned"]


class TestCleanVictims:
    """Load-only trace: every L2 victim is clean EXCLUSIVE (owned, not dirty)."""

    @pytest.fixture(scope="class")
    def machines(self):
        machines = {}
        for mode in ("owned", "dirty", "none"):
            machine = _machine(mode)
            _run_trace(machine, is_write=False)
            machines[mode] = machine
        return machines

    def test_trace_produces_evictions(self, machines):
        for machine in machines.values():
            assert machine.nodes[0].caches.l2.stats.evictions > 0

    def test_only_owned_mode_notifies_clean_victims(self, machines):
        assert _notices(machines["owned"]) > 0
        assert _notices(machines["dirty"]) == 0
        assert _notices(machines["none"]) == 0

    def test_clean_victims_write_nothing_back(self, machines):
        for mode, machine in machines.items():
            assert _writebacks(machine) == 0, mode
