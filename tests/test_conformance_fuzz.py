"""Conformance-first differential fuzzing: all engines vs. reference, mid-run.

The cross-engine suite (``test_cross_engine.py``) compares snapshots at
the *end* of each run; a divergence that a later access happens to cancel
out would slip through.  This harness adopts the LITMUS-RT workload
generator's idiom — parameterized randomized stress streams as the
primary correctness instrument — and tightens the contract: hypothesis
drives long random access streams through the reference machine, a
packed machine fed records and a packed machine fed chunks *in lock-step*
and asserts, at a sampled step cadence and not just at the end, that
:func:`repro.stats.compare.snapshot_diff` is empty and that every
node's resident state matches the reference: each cache's lines with
their MOESI state and way, each probe filter's entries with owner,
sharers and way.  The residency comparison reads the packed engine's
own arrays, so it checks the lookups and LRU way choice
``PackedMachine.perform_access`` runs, and a wrong victim way fails at
the next sampled step rather than when a counter finally moves.  Streams shrink like any
hypothesis example, so a failure minimises to the shortest diverging
prefix.

The grid covers process layouts (1p / 2p / 4p: how process ids map onto
cores, which steers NUMA placement and the local/remote request mix),
both directory policies and every eviction-notification mode, all under
LRU replacement (the model's only policy).  One class sweeps a page
larger than the L2 so that every example evicts from the L1D and the L2,
which the plain random streams cannot guarantee; the two thrash tests
shuffle random traffic with remote lines that conflict in one home's
filter set, so every example evicts from the probe filter (and, with
the tiny L2, from the L2).  A miss-heavy dual-engine smoke over the
false-sharing and migratory families rides along for the CI cross-engine
gate (those families are the ones the packed miss path exists for).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.core.directory import DirectoryController
from repro.stats.compare import assert_snapshots_identical, snapshot_diff
from repro.stats.snapshot import collect
from repro.system.config import (
    CoreConfig,
    DirectoryConfig,
    NetworkConfig,
    SystemConfig,
)
from repro.system.fastcore import PackedMachine, build_machine
from repro.system.machine import Machine
from repro.system.simulator import Simulator
from repro.trace.record import AccessChunk, AccessRecord, AccessType
from repro.workloads.registry import MICROBENCH_FAMILIES

CORES = 4
PAGES = 6
LINES_PER_PAGE = 4
BASE_VADDR = 0x4000_0000

#: Process-id layouts: how the stream's accesses map onto processes.
#: ``1p`` = one address space shared by all cores, ``2p`` = two processes
#: on alternating cores, ``4p`` = one process per core.
LAYOUTS = ("1p", "2p", "4p")


def tiny_config(
    policy: str,
    eviction_notification: str = "dirty",
    pf_coverage: int = 2048,
    l2_size: int = 2048,
) -> SystemConfig:
    """A 4-node machine small enough that every structure thrashes."""
    return SystemConfig(
        core_count=CORES,
        core=CoreConfig(l1i_size=1024, l1d_size=1024, l2_size=l2_size),
        directory=DirectoryConfig(
            probe_filter_coverage=pf_coverage,
            memory_bytes=64 * 1024 * 1024,
            eviction_notification=eviction_notification,
        ),
        network=NetworkConfig(mesh_width=2, mesh_height=2),
        directory_policy=policy,
    )


def process_of(layout: str, core: int) -> int:
    if layout == "1p":
        return 0
    if layout == "2p":
        return core % 2
    return core


#: Names of the per-node structures :func:`resident_state` returns.
STRUCTURES = ("L1I", "L1D", "L2", "probe filter")


def resident_state(machine):
    """Each node's resident lines and probe-filter entries, as plain data.

    One tuple per node: L1I, L1D and L2 as ``line -> (state, way)``,
    then the probe filter as ``line -> (owner, sharers, way)``.
    """
    state = []
    for node in machine.nodes:
        caches = node.caches
        pf = node.probe_filter
        entries = map(pf.peek, pf.where) if hasattr(pf, "where") else pf.entries()
        state.append((
            *(
                {line.line_address: (line.state, line.way)
                 for line in cache.resident_lines()}
                for cache in (caches.l1i, caches.l1d, caches.l2)
            ),
            {entry.line_address: (entry.owner, frozenset(entry.sharers), entry.way)
             for entry in entries},
        ))
    return state


def residency_diff(reference, candidate):
    """Up to three differing lines per structure, between two
    :func:`resident_state` results."""
    diffs = []
    for node, (want_node, got_node) in enumerate(zip(reference, candidate)):
        for name, want, got in zip(STRUCTURES, want_node, got_node):
            if want != got:
                lines = sorted(
                    line for line in want.keys() | got.keys()
                    if want.get(line) != got.get(line)
                )
                diffs.extend(
                    f"node {node} {name} line {line:#x}: reference "
                    f"{want.get(line)}, packed {got.get(line)}"
                    for line in lines[:3]
                )
    return diffs


def run_lockstep_records(config, records, cadence, context="records"):
    """Drive three feeds in lock-step; compare them every *cadence*.

    Replays the records exactly the way ``Simulator.run`` does (same
    clock accounting), so the sampled snapshots are the ones a real run
    would have produced had it stopped there.  The reference and one
    packed machine replay access-by-access; a second packed machine
    consumes the same records as :class:`AccessChunk` blocks flushed at
    each cadence boundary, so the sampled cadences (7/17/33) double as
    odd chunk sizes exercising the chunk-boundary protocol.  At each
    flush both packed feeds must match the reference's snapshot and
    :func:`resident_state`, and each other's cache arrays (LRU stamps
    and stamp counters included).  Returns the record-fed packed machine so
    callers can pin its counters.
    """
    machines = [build_machine(config, "reference"), PackedMachine(config)]
    chunked = PackedMachine(config)
    pending = AccessChunk()
    work_ns = config.core.cpu_work_per_access_ns
    for step, record in enumerate(records, start=1):
        for machine in machines:
            clock = machine.nodes[record.core].clock
            clock.now_ns += work_ns
            latency = machine.perform_access(
                record.core,
                record.process_id,
                record.vaddr,
                record.access_type is AccessType.WRITE,
                record.access_type is AccessType.INSTRUCTION,
            )
            clock.now_ns += latency
        pending.append_record(record)
        if step % cadence == 0 or step == len(records):
            chunked.perform_chunk(pending, work_ns)
            pending = AccessChunk()
            reference_snapshot = collect(machines[0])
            reference_resident = resident_state(machines[0])
            for name, machine in (
                ("packed-records", machines[1]), ("packed-chunks", chunked)
            ):
                diffs = snapshot_diff(reference_snapshot, collect(machine))
                diffs += residency_diff(reference_resident, resident_state(machine))
                assert diffs == [], (
                    f"{name} diverged at step {step}/{len(records)} "
                    f"({context}): {diffs[:5]}"
                )
            # The two packed feeds share one layout: every stamp, state
            # and counter must agree, not only what the snapshot reads.
            for packed, chunk_fed in zip(machines[1].nodes, chunked.nodes):
                assert packed.caches.state_dict() == chunk_fed.caches.state_dict(), (
                    f"packed-chunks cache arrays diverged at step {step}/"
                    f"{len(records)} ({context}) on node {packed.node_id}"
                )
    return machines[1]


def run_lockstep(config: SystemConfig, stream, layout: str, cadence: int):
    """:func:`run_lockstep_records` over the synthetic tuple grid.

    Each ``(core, page, line, kind)`` becomes an :class:`AccessRecord`
    whose process id follows *layout*.
    """
    records = [
        AccessRecord(
            core=core,
            vaddr=BASE_VADDR + page * 4096 + line * 64,
            access_type=kind,
            process_id=process_of(layout, core),
        )
        for core, page, line, kind in stream
    ]
    return run_lockstep_records(config, records, cadence, f"layout {layout}")


kind_strategy = st.sampled_from(
    [AccessType.READ, AccessType.READ, AccessType.WRITE, AccessType.INSTRUCTION]
)

access_strategy = st.tuples(
    st.integers(min_value=0, max_value=CORES - 1),
    st.integers(min_value=0, max_value=PAGES - 1),
    st.integers(min_value=0, max_value=LINES_PER_PAGE - 1),
    kind_strategy,
)

stream_strategy = st.lists(access_strategy, min_size=1, max_size=200)

#: Snapshot sampling cadences (steps between mid-run comparisons).
cadence_strategy = st.sampled_from([7, 17, 33])

layout_strategy = st.sampled_from(LAYOUTS)

#: Lines of the one page :func:`sweep_stream_strategy` covers: 64 lines
#: are twice the tiny L2 (2 KB) and four times the tiny L1D (1 KB), and
#: reach every set of both.
SWEEP_LINES = 64


@st.composite
def sweep_stream_strategy(draw):
    """A random stream whose footprint exceeds the L2.

    One drawn core reads or writes every line of one page; up to 100
    random accesses from every core over the same page are shuffled in
    with it.  The sweeping core's L1D and L2 must evict, so the victim
    way choice runs in every example (plain random streams over
    :data:`PAGES` x :data:`LINES_PER_PAGE` lines reach 4 of the L2's 8
    sets and, sampled, evicted from no cache at all).
    """
    core = draw(st.integers(min_value=0, max_value=CORES - 1))
    kinds = draw(st.lists(
        st.sampled_from([AccessType.READ, AccessType.WRITE]),
        min_size=SWEEP_LINES, max_size=SWEEP_LINES,
    ))
    sweep = [(core, 0, line, kind) for line, kind in enumerate(kinds)]
    noise = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=CORES - 1),
            st.just(0),
            st.integers(min_value=0, max_value=SWEEP_LINES - 1),
            kind_strategy,
        ),
        max_size=100,
    ))
    return draw(st.permutations(sweep + noise))


#: Pages of the two conflict pages :func:`conflict_stream_strategy` adds
#: beyond the random traffic's :data:`PAGES`.
CONFLICT_PAGE = PAGES
LOCAL_PAGE = PAGES + 1

#: Lines apart of two lines in the same set of the 1 KB filter (16
#: entries, 4 ways, 4 sets).  The tiny L2 (1 KB, 4 ways) has the same
#: sets, so these lines conflict in the L2 too.
CONFLICT_STRIDE = 4

#: Layouts in which two cores share an address space.  Under ``4p``
#: every page is first touched, and so homed, at its only user, so no
#: line is remote.
SHARED_LAYOUTS = ("1p", "2p")


@st.composite
def conflict_stream_strategy(draw):
    """``(layout, stream)``: random traffic shuffled with remote lines
    that conflict in one home's filter set.

    A *home* core first touches the conflict page (first-touch placement
    homes it there); a *remote* core in the same address space then
    reads four lines of a page only it touches (homed at itself) and,
    straight after, 5 to 16 lines of the conflict page, every one in
    the same filter set.  Up to 100 random accesses from every core
    over the :data:`PAGES` x :data:`LINES_PER_PAGE` grid are shuffled in
    between, in any order, while the conflict reads keep theirs.

    Every example evicts, whatever the shuffle:

    * the remote core's conflict reads allocate at least 5 entries in
      one 4-way set of the home's filter, and none is ever freed (the
      reads leave no dirty copy to notify), so the filter evicts;
    * the four local reads and the first conflict read run back to
      back: the four fill one set of the remote core's 4-way L2 and
      cannot evict each other's filter entries, and the conflict read's
      filter work at the other home cannot free any of them, so with
      the tiny 1 KB L2 its fill evicts from the L2.
    """
    layout = draw(st.sampled_from(SHARED_LAYOUTS))
    home = draw(st.integers(min_value=0, max_value=CORES - 1))
    remote = draw(st.sampled_from([
        core for core in range(CORES)
        if core != home and process_of(layout, core) == process_of(layout, home)
    ]))
    count = draw(st.integers(min_value=5, max_value=64 // CONFLICT_STRIDE))
    lines = [index * CONFLICT_STRIDE for index in range(count)]
    read = AccessType.READ
    blocks = [[(home, CONFLICT_PAGE, lines[0], read)]]
    blocks.append(
        [(remote, LOCAL_PAGE, line, read) for line in lines[:4]]
        + [(remote, CONFLICT_PAGE, lines[0], read)]
    )
    blocks += [[(remote, CONFLICT_PAGE, line, read)] for line in lines[1:]]
    noise = draw(st.lists(access_strategy, max_size=100))
    order = draw(st.permutations([True] * len(blocks) + [False] * len(noise)))
    blocks.reverse()
    noise.reverse()
    stream = []
    for is_block in order:
        if is_block:
            stream += blocks.pop()
        else:
            stream.append(noise.pop())
    return layout, stream


class TestLockstepFuzz:
    """Random streams, bit-identity checked mid-run at sampled cadences."""

    @settings(max_examples=10, deadline=None)
    @given(stream=stream_strategy, cadence=cadence_strategy, layout=layout_strategy)
    @pytest.mark.parametrize("mode", ["none", "dirty", "owned"])
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_policy_eviction_grid(self, policy, mode, stream, cadence, layout):
        run_lockstep(
            tiny_config(policy, eviction_notification=mode), stream, layout, cadence
        )

    @settings(max_examples=8, deadline=None)
    @given(example=conflict_stream_strategy(), cadence=cadence_strategy)
    def test_thrashing_probe_filter(self, example, cadence):
        # The smallest legal filter, and remote lines that conflict in
        # one of its sets: every example runs the eviction fan-out.
        layout, stream = example
        packed = run_lockstep(
            tiny_config("allarm", pf_coverage=1024), stream, layout, cadence
        )
        assert sum(n.probe_filter.evictions for n in packed.nodes) > 0

    @settings(max_examples=6, deadline=None)
    @given(example=conflict_stream_strategy(), cadence=cadence_strategy)
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_tiny_pf_tiny_l2_thrash(self, policy, example, cadence):
        # Starve the probe filter AND the L2 at once: every example
        # evicts from both, so filter eviction fan-out and L2 victims
        # (with their notifications in the default dirty mode) run
        # amid the random traffic.  Bit-identity must hold throughout.
        layout, stream = example
        packed = run_lockstep(
            tiny_config(policy, pf_coverage=1024, l2_size=1024),
            stream,
            layout,
            cadence,
        )
        assert sum(n.probe_filter.evictions for n in packed.nodes) > 0
        assert sum(n.caches.l2.evictions for n in packed.nodes) > 0


class TestFootprintBeyondL2:
    """Random streams that must evict from the L1D and the L2.

    The filter (8 KB, 128 entries) covers the swept page twice over, so
    probe-filter back-invalidations cannot keep the caches from filling.
    Every example asserts that both cache levels evicted, so a wrong
    victim way shows as a residency diff at the next sampled step.
    """

    @settings(max_examples=8, deadline=None)
    @given(
        stream=sweep_stream_strategy(),
        cadence=cadence_strategy,
        layout=layout_strategy,
    )
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_sweep_evicts_from_l1d_and_l2(self, policy, stream, cadence, layout):
        packed = run_lockstep(
            tiny_config(policy, pf_coverage=8192), stream, layout, cadence
        )
        assert sum(n.caches.l1d.evictions for n in packed.nodes) > 0
        assert sum(n.caches.l2.evictions for n in packed.nodes) > 0


class TestStructuralCrossProduct:
    """Eviction-notification grid on the structural events.

    Every cell forces probe-filter evictions (starved filter) and L2
    eviction notifications (starved L2) under one notification mode.
    A deterministic conflict-heavy stream keeps the grid cheap while
    guaranteeing both event kinds fire.
    """

    def conflict_stream(self):
        stream = []
        for round_number in range(3):
            for page in range(PAGES):
                for core in range(CORES):
                    kind = AccessType.WRITE if (core + page) % 2 else AccessType.READ
                    stream.append((core, page, (core + round_number) % LINES_PER_PAGE, kind))
        return stream

    @pytest.mark.parametrize("mode", ["none", "dirty", "owned"])
    def test_eviction_mode_cell_runs_fast(self, mode):
        config = tiny_config(
            "allarm", eviction_notification=mode, pf_coverage=1024, l2_size=1024
        )
        packed = run_lockstep(config, self.conflict_stream(), "2p", cadence=16)
        assert packed.transactions_serviced > 0
        assert sum(n.probe_filter.evictions for n in packed.nodes) > 0
        assert sum(n.caches.l2.evictions for n in packed.nodes) > 0
        if mode != "none":
            assert (
                sum(n.directory.stats.cache_eviction_notices for n in packed.nodes)
                > 0
            )


class TestMicroFamilyZeroDeferral:
    """No registered micro family leaves the packed miss path.

    The packed engine has one miss path: ``Machine._service_miss`` is
    trapped, so reaching it from a packed run fails the test, and no
    node of a packed machine holds a reference ``DirectoryController``.
    """

    @pytest.mark.parametrize("family", MICROBENCH_FAMILIES)
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_family_never_defers(self, family, policy, monkeypatch):
        def trap(*_args, **_kwargs):
            raise AssertionError("packed run reached the reference miss path")

        monkeypatch.setattr(Machine, "_service_miss", trap)
        spec = RunSpec(family, policy, settings=MISS_HEAVY)
        simulator = Simulator(spec.config(), engine="packed")
        assert not any(
            isinstance(node.directory, DirectoryController)
            for node in simulator.machine.nodes
        )
        simulator.run(spec.access_stream(), family)
        assert simulator.machine.transactions_serviced > 0


#: Small but genuinely miss-heavy settings for the family smoke.
MISS_HEAVY = ExperimentSettings(
    scale=16, accesses=4000, multiprocess_accesses=2000, seed=3
)

#: The families whose misses the packed directory fast path exists for.
MISS_HEAVY_FAMILIES = ("false-sharing", "migratory")


#: Generator seed of the sampled-family lock-step smoke (the CI
#: ``scenario-fuzz`` job selects this class with ``-k scenario``).
SCENARIO_FUZZ_SEED = 11
SCENARIO_FUZZ_COUNT = 4


class TestScenarioFamilyLockstep:
    """Sampled scenario families: reference / packed-records /
    packed-chunks in lock-step mid-run.

    The generated families compose multi-phase DSL streams (fill →
    mix → thrash) whose phase boundaries land mid-chunk at the odd
    cadence — the exact seam the generator's stream reset and the
    chunk protocol must agree on.  The CI ``scenario-fuzz`` job runs
    this class (``-k scenario``) over a freshly sampled manifest.
    """

    @pytest.mark.parametrize("index", range(SCENARIO_FUZZ_COUNT))
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_sampled_family_lockstep(self, index, policy):
        from repro.workloads.generator import sample_scenarios

        family = sample_scenarios(SCENARIO_FUZZ_SEED, SCENARIO_FUZZ_COUNT).families[
            index
        ]
        spec = RunSpec(family.name, policy, settings=MISS_HEAVY)
        records = list(spec.access_stream())
        run_lockstep_records(spec.config(), records, cadence=997)


class TestMissHeavyDualEngineSmoke:
    """False-sharing + migratory on both engines, via the real RunSpec path.

    These are the workloads where PR 3's engine degenerated to reference
    speed; they drive probe-filter hits, invalidation fan-out, ownership
    handoff and upgrade traffic through the packed miss path at volume.
    Referenced by the CI cross-engine gate as the miss-heavy smoke.
    """

    @pytest.mark.parametrize("family", MISS_HEAVY_FAMILIES)
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_family_is_bit_identical(self, family, policy):
        spec = RunSpec(family, policy, settings=MISS_HEAVY)
        records = list(spec.access_stream())
        packed = Simulator(spec.config(), engine="packed")
        reference = Simulator(spec.config(), engine="reference")
        packed_result = packed.run(records, family)
        reference_result = reference.run(records, family)
        assert_snapshots_identical(
            reference_result.snapshot,
            packed_result.snapshot,
            context=f"{family}/{policy}",
        )
        # The smoke must actually exercise the packed miss path, not the
        # L1 fast path: misses must dominate and be serviced fast.
        assert packed_result.snapshot.l2_misses > len(records) // 10
        assert packed.machine.transactions_serviced > 0
