"""Conformance-first differential fuzzing: all engines vs. reference, mid-run.

The cross-engine suite (``test_cross_engine.py``) compares snapshots at
the *end* of each run; a divergence that a later access happens to cancel
out would slip through.  This harness adopts the LITMUS-RT workload
generator's idiom — parameterized randomized stress streams as the
primary correctness instrument — and tightens the contract: hypothesis
drives long random access streams through the reference machine, a
packed machine fed records and a packed machine fed chunks *in lock-step*
and asserts
:func:`repro.stats.compare.snapshot_diff` is empty — and every node's
MSHR statistics, which the snapshot does not carry, are equal — at a
sampled step cadence, not just at the end.  Streams shrink like any
hypothesis example, so a failure minimises to the shortest diverging
prefix.

The grid covers process layouts (1p / 2p / 4p: how process ids map onto
cores, which steers NUMA placement and the local/remote request mix),
both directory policies, every eviction-notification mode and the non-LRU
replacement policies.  A miss-heavy dual-engine smoke over the
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
    replacement: str = "lru",
    pf_coverage: int = 2048,
    l2_size: int = 2048,
) -> SystemConfig:
    """A 4-node machine small enough that every structure thrashes."""
    return SystemConfig(
        core_count=CORES,
        core=CoreConfig(
            l1i_size=1024, l1d_size=1024, l2_size=l2_size, replacement=replacement
        ),
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


def assert_mshr_stats_match(reference: Machine, machine: Machine, where: str):
    """Every node's ``MshrStats`` equal the reference's.

    ``MshrStats`` are not part of the snapshot, so ``snapshot_diff``
    would miss a drift in the packed engine's counter-only MSHR
    bookkeeping.
    """
    for ref_node, node in zip(reference.nodes, machine.nodes):
        assert (
            node.caches.mshrs.stats.__dict__ == ref_node.caches.mshrs.stats.__dict__
        ), f"{where}: node {node.node_id} MSHR stats diverged"


def run_lockstep(config: SystemConfig, stream, layout: str, cadence: int):
    """Drive three feeds in lock-step; diff snapshots every *cadence*.

    Replays the stream exactly the way ``Simulator.run`` does (same clock
    and instruction accounting), so the sampled snapshots are the ones a
    real run would have produced had it stopped there.  The reference
    and one packed machine replay access-by-access; a second packed
    machine consumes the same accesses as :class:`AccessChunk` blocks flushed at
    each cadence boundary, so the sampled cadences (7/17/33) double as
    odd chunk sizes exercising the chunk-boundary protocol.  Returns the
    record-fed packed machine so callers can pin its counters.
    """
    machines = [build_machine(config, "reference"), PackedMachine(config)]
    chunked = PackedMachine(config)
    pending = AccessChunk()
    work_ns = config.core.cpu_work_per_access_ns
    for step, (core, page, line, kind) in enumerate(stream, start=1):
        vaddr = BASE_VADDR + page * 4096 + line * 64
        is_write = kind is AccessType.WRITE
        is_instruction = kind is AccessType.INSTRUCTION
        for machine in machines:
            clock = machine.nodes[core].clock
            clock.instructions += 1
            clock.now_ns += work_ns
            latency = machine.perform_access(
                core, process_of(layout, core), vaddr, is_write, is_instruction
            )
            clock.now_ns += latency
            clock.stall_ns += latency
        pending.append_record(
            AccessRecord(
                core=core,
                vaddr=vaddr,
                access_type=kind,
                process_id=process_of(layout, core),
            )
        )
        if step % cadence == 0 or step == len(stream):
            chunked.perform_chunk(pending, work_ns)
            pending = AccessChunk()
            reference_snapshot = collect(machines[0])
            for name, machine in (
                ("packed-records", machines[1]), ("packed-chunks", chunked)
            ):
                diffs = snapshot_diff(reference_snapshot, collect(machine))
                assert diffs == [], (
                    f"{name} diverged at step {step}/{len(stream)} "
                    f"(layout {layout}): {diffs}"
                )
                assert_mshr_stats_match(
                    machines[0], machine, f"{name} at step {step}/{len(stream)}"
                )
    return machines[1]


access_strategy = st.tuples(
    st.integers(min_value=0, max_value=CORES - 1),
    st.integers(min_value=0, max_value=PAGES - 1),
    st.integers(min_value=0, max_value=LINES_PER_PAGE - 1),
    st.sampled_from(
        [AccessType.READ, AccessType.READ, AccessType.WRITE, AccessType.INSTRUCTION]
    ),
)

stream_strategy = st.lists(access_strategy, min_size=1, max_size=200)

#: Snapshot sampling cadences (steps between mid-run comparisons).
cadence_strategy = st.sampled_from([7, 17, 33])

layout_strategy = st.sampled_from(LAYOUTS)


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
    @given(stream=stream_strategy, cadence=cadence_strategy, layout=layout_strategy)
    @pytest.mark.parametrize("replacement", ["plru", "random"])
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_replacement_grid(self, policy, replacement, stream, cadence, layout):
        run_lockstep(
            tiny_config(policy, replacement=replacement), stream, layout, cadence
        )

    @settings(max_examples=8, deadline=None)
    @given(stream=stream_strategy, cadence=cadence_strategy, layout=layout_strategy)
    def test_thrashing_probe_filter(self, stream, cadence, layout):
        # The smallest legal filter maximises eviction pressure.
        run_lockstep(tiny_config("allarm", pf_coverage=1024), stream, layout, cadence)

    @settings(max_examples=6, deadline=None)
    @given(stream=stream_strategy, cadence=cadence_strategy, layout=layout_strategy)
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_tiny_pf_tiny_l2_thrash(self, policy, stream, cadence, layout):
        # Starve the probe filter AND the L2 at once: probe-filter
        # evictions (fan-out) and L2 evictions (notifications) interleave
        # on nearly every miss.  Bit-identity must hold throughout.
        run_lockstep(
            tiny_config(policy, pf_coverage=1024, l2_size=1024),
            stream,
            layout,
            cadence,
        )


class TestStructuralCrossProduct:
    """Eviction-notification × replacement grid on the structural events.

    Every cell forces probe-filter evictions (starved filter) and L2
    eviction notifications (starved L2) under each replacement policy.
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

    @pytest.mark.parametrize("replacement", ["lru", "plru", "random"])
    @pytest.mark.parametrize("mode", ["none", "dirty", "owned"])
    def test_mode_replacement_cell_runs_fast(self, mode, replacement):
        config = tiny_config(
            "allarm",
            eviction_notification=mode,
            replacement=replacement,
            pf_coverage=1024,
            l2_size=1024,
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

    The packed engine has one miss path; the reference miss machinery
    (``Machine._service_miss`` and the directory controller's request
    and eviction handlers) is trapped, so reaching it from a packed run
    fails the test.
    """

    @pytest.mark.parametrize("family", MICROBENCH_FAMILIES)
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_family_never_defers(self, family, policy, monkeypatch):
        def trap(*_args, **_kwargs):
            raise AssertionError("packed run reached the reference miss path")

        monkeypatch.setattr(Machine, "_service_miss", trap)
        monkeypatch.setattr(DirectoryController, "service_request", trap)
        monkeypatch.setattr(DirectoryController, "handle_cache_eviction", trap)
        spec = RunSpec(family, policy, settings=MISS_HEAVY)
        simulator = Simulator(spec.config(), engine="packed")
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


def run_lockstep_records(config, records, cadence):
    """Record-driven sibling of :func:`run_lockstep`.

    Same contract — reference and packed replay access-by-access, the
    second packed machine consumes the identical records as chunks flushed at
    each cadence boundary, snapshots are diffed at every flush — but
    driven by real :class:`AccessRecord` streams (a generated family's
    init + phased compute output) instead of the synthetic tuple grid.
    """
    machines = [build_machine(config, "reference"), PackedMachine(config)]
    chunked = PackedMachine(config)
    pending = AccessChunk()
    work_ns = config.core.cpu_work_per_access_ns
    for step, record in enumerate(records, start=1):
        for machine in machines:
            clock = machine.nodes[record.core].clock
            clock.instructions += 1
            clock.now_ns += work_ns
            latency = machine.perform_access(
                record.core,
                record.process_id,
                record.vaddr,
                record.access_type is AccessType.WRITE,
                record.access_type is AccessType.INSTRUCTION,
            )
            clock.now_ns += latency
            clock.stall_ns += latency
        pending.append_record(record)
        if step % cadence == 0 or step == len(records):
            chunked.perform_chunk(pending, work_ns)
            pending = AccessChunk()
            reference_snapshot = collect(machines[0])
            for name, machine in (
                ("packed-records", machines[1]), ("packed-chunks", chunked)
            ):
                diffs = snapshot_diff(reference_snapshot, collect(machine))
                assert diffs == [], (
                    f"{name} diverged at step {step}/{len(records)}: "
                    f"{diffs[:5]}"
                )
                assert_mshr_stats_match(
                    machines[0], machine, f"{name} at step {step}/{len(records)}"
                )


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
