"""Cross-engine verification: packed and reference snapshots are bit-identical.

The packed engine (:mod:`repro.system.fastcore`) replaces the per-access
object-graph walk with flat-array arithmetic; its correctness contract
is that a :class:`~repro.stats.snapshot.MachineSnapshot` collected after
any run is **bit-identical** to the reference engine's — every counter,
every per-node statistic, every message-type count, byte for byte in
the serialized JSON.

Three layers enforce it here:

* hypothesis property tests drive random access streams through both
  engines across the policy × probe-filter-size × eviction-mode grid on
  a deliberately tiny (constantly thrashing) machine;
* a workload-family smoke runs every registered benchmark family under
  both policies on both engines via the real ``RunSpec`` path;
* cache-identity tests pin that the two engines can never alias each
  other in the snapshot cache.
"""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.executor import cache_key, execute_run_spec
from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.core.policy import PhysicalRange
from repro.errors import ConfigurationError, SimulationError
from repro.stats.compare import assert_snapshots_identical, snapshot_diff
from repro.system.config import (
    CoreConfig,
    DirectoryConfig,
    NetworkConfig,
    SystemConfig,
)
from repro.system.fastcore import (
    DEFAULT_ENGINE,
    ENGINES,
    PackedMachine,
    build_machine,
    resolve_engine,
)
from repro.system.machine import Machine
from repro.system.simulator import Simulator, simulate
from repro.trace.record import AccessRecord, AccessType
from repro.workloads.registry import MICROBENCH_FAMILIES, PAPER_BENCHMARKS

CORES = 4
PAGES = 6
LINES_PER_PAGE = 4


def tiny_config(
    policy: str,
    eviction_notification: str = "dirty",
    pf_coverage: int = 2048,
) -> SystemConfig:
    """A 4-node machine small enough that every structure thrashes."""
    return SystemConfig(
        core_count=CORES,
        core=CoreConfig(l1i_size=1024, l1d_size=1024, l2_size=2048),
        directory=DirectoryConfig(
            probe_filter_coverage=pf_coverage,
            memory_bytes=64 * 1024 * 1024,
            eviction_notification=eviction_notification,
        ),
        network=NetworkConfig(mesh_width=2, mesh_height=2),
        directory_policy=policy,
    )


def stream_records(stream):
    """Materialise a hypothesis access tuple stream as AccessRecords."""
    base = 0x4000_0000
    records = []
    for core, page, line, kind in stream:
        records.append(
            AccessRecord(
                core=core,
                vaddr=base + page * 4096 + line * 64,
                access_type=kind,
                process_id=0,
            )
        )
    return records


def run_both_engines(config: SystemConfig, records):
    reference = Simulator(config, engine="reference").run(records, "x").snapshot
    packed = Simulator(config, engine="packed").run(records, "x").snapshot
    return reference, packed


access_strategy = st.tuples(
    st.integers(min_value=0, max_value=CORES - 1),
    st.integers(min_value=0, max_value=PAGES - 1),
    st.integers(min_value=0, max_value=LINES_PER_PAGE - 1),
    st.sampled_from(
        [AccessType.READ, AccessType.READ, AccessType.WRITE, AccessType.INSTRUCTION]
    ),
)

stream_strategy = st.lists(access_strategy, min_size=1, max_size=150)


class TestRandomStreamsAreBitIdentical:
    @settings(max_examples=30, deadline=None)
    @given(stream=stream_strategy)
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_policy_grid(self, policy, stream):
        reference, packed = run_both_engines(
            tiny_config(policy), stream_records(stream)
        )
        assert snapshot_diff(reference, packed) == []
        assert reference.to_json() == packed.to_json()

    @settings(max_examples=12, deadline=None)
    @given(stream=stream_strategy)
    @pytest.mark.parametrize("mode", ["none", "dirty", "owned"])
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_eviction_mode_grid(self, policy, mode, stream):
        config = tiny_config(policy, eviction_notification=mode)
        reference, packed = run_both_engines(config, stream_records(stream))
        assert snapshot_diff(reference, packed) == []

    @settings(max_examples=12, deadline=None)
    @given(stream=stream_strategy)
    @pytest.mark.parametrize("pf_coverage", [1024, 2048, 8192])
    def test_probe_filter_size_grid(self, pf_coverage, stream):
        config = tiny_config("allarm", pf_coverage=pf_coverage)
        reference, packed = run_both_engines(config, stream_records(stream))
        assert snapshot_diff(reference, packed) == []

    @settings(max_examples=10, deadline=None)
    @given(stream=stream_strategy)
    def test_multiprocess_streams(self, stream):
        # Distinct processes map the same virtual pages to distinct
        # frames; exercises the NUMA remap path under both engines.
        base = 0x4000_0000
        records = [
            AccessRecord(
                core=core,
                vaddr=base + page * 4096 + line * 64,
                access_type=kind,
                process_id=index % 2,
            )
            for index, (core, page, line, kind) in enumerate(stream)
        ]
        reference, packed = run_both_engines(tiny_config("allarm"), records)
        assert snapshot_diff(reference, packed) == []


def partial_allarm_config(variant: str) -> SystemConfig:
    """ALLARM restricted to physical ranges, or disabled on one node.

    First touch hands out each node's lowest frames first, so a range
    over the first frame of every node leaves a node's later pages on
    baseline behaviour.
    """
    config = tiny_config("allarm")
    if variant == "ranges":
        per_node = config.directory.memory_bytes // CORES
        ranges = tuple(
            PhysicalRange(node * per_node, node * per_node + 4096)
            for node in range(CORES)
        )
        return dataclasses.replace(config, allarm_ranges=ranges)
    return dataclasses.replace(config, allarm_disabled_nodes=(1,))


class TestPartialAllarmIsBitIdentical:
    """Partial ALLARM on the packed directories matches the reference.

    With ALLARM ranges or with ALLARM disabled on one node, the policy
    answers differently per address or per home node on a probe-filter
    miss; these streams drive both answers.
    """

    @settings(max_examples=12, deadline=None)
    @given(stream=stream_strategy)
    @pytest.mark.parametrize("variant", ["ranges", "disabled"])
    def test_random_streams(self, variant, stream):
        config = partial_allarm_config(variant)
        reference, packed = run_both_engines(config, stream_records(stream))
        assert snapshot_diff(reference, packed) == []

    @pytest.mark.parametrize("variant", ["ranges", "disabled"])
    def test_both_decisions_are_reached(self, variant):
        # Page p is first touched (so homed) on node p % CORES, two pages
        # per node on nodes 0 and 1; then every other core reads and
        # writes its lines.  Remote misses on ALLARM lines probe the home
        # core's cache; those on baseline lines do not.
        stream = [
            ((page + offset) % CORES, page, line, kind)
            for page in range(PAGES)
            for line in range(LINES_PER_PAGE)
            for offset in range(CORES)
            for kind in (AccessType.READ, AccessType.WRITE)
        ]
        records = stream_records(stream)
        config = partial_allarm_config(variant)
        reference, packed = run_both_engines(config, records)
        assert snapshot_diff(reference, packed) == []
        everywhere, baseline = (
            Simulator(tiny_config(policy), engine="packed").run(records, "x").snapshot
            for policy in ("allarm", "baseline")
        )
        assert baseline.local_probes_sent == 0
        assert 0 < packed.local_probes_sent < everywhere.local_probes_sent


#: Small settings for the family smoke: enough accesses to overflow the
#: scaled-down caches, small enough to keep the full grid fast.
SMOKE = ExperimentSettings(scale=16, accesses=2500, multiprocess_accesses=1500, seed=0)


class TestWorkloadFamilySmoke:
    """One run per registered family × policy, both engines, via RunSpec."""

    # Note: the parametrize argument is named "family" (not "benchmark")
    # because pytest-benchmark reserves the latter as a fixture name.
    @pytest.mark.parametrize("family", PAPER_BENCHMARKS + MICROBENCH_FAMILIES)
    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_family_is_bit_identical(self, family, policy):
        spec = RunSpec(family, policy, settings=SMOKE)
        packed = execute_run_spec(spec.with_engine("packed"))
        reference = execute_run_spec(spec.with_engine("reference"))
        assert_snapshots_identical(
            reference, packed, context=f"{family}/{policy}"
        )

    def test_multiprocess_layout_is_bit_identical(self):
        spec = RunSpec("barnes", "allarm", layout="2p", settings=SMOKE)
        packed = execute_run_spec(spec.with_engine("packed"))
        reference = execute_run_spec(spec.with_engine("reference"))
        assert_snapshots_identical(reference, packed, context="barnes-2p")


class TestEngineSelection:
    def test_resolve_engine_defaults_and_validates(self):
        assert resolve_engine(None) == DEFAULT_ENGINE
        assert resolve_engine("reference") == "reference"
        assert RunSpec("barnes", "allarm", settings=SMOKE).engine == DEFAULT_ENGINE
        with pytest.raises(ConfigurationError, match="unknown simulation engine"):
            resolve_engine("warp")

    def test_build_machine_returns_expected_types(self):
        config = tiny_config("baseline")
        assert type(build_machine(config, "reference")) is Machine
        assert type(build_machine(config, "packed")) is PackedMachine

    def test_simulator_records_engine(self):
        records = stream_records([(0, 0, 0, AccessType.READ)])
        result = simulate(tiny_config("baseline"), records, engine="reference")
        assert result.engine == "reference"
        result = simulate(tiny_config("baseline"), records)
        assert result.engine == DEFAULT_ENGINE

    def test_runspec_rejects_unknown_engine(self):
        with pytest.raises(ConfigurationError, match="unknown simulation engine"):
            RunSpec("barnes", "allarm", settings=SMOKE, engine="turbo")


class TestEngineCacheIdentity:
    """Fast and reference snapshots must never collide in the caches."""

    def test_cache_keys_differ_by_engine(self):
        spec = RunSpec("barnes", "allarm", settings=SMOKE)
        keys = {cache_key(spec.with_engine(engine)) for engine in ENGINES}
        assert len(keys) == len(ENGINES)

    def test_engine_is_part_of_spec_identity(self):
        spec = RunSpec("barnes", "allarm", settings=SMOKE)
        other = spec.with_engine("reference")
        assert spec != other
        assert spec.digest() != other.digest()
        assert json.loads(spec.cache_token())["engine"] == DEFAULT_ENGINE
        assert spec.describe()["engine"] == DEFAULT_ENGINE
        # The workload stream identity must NOT depend on the engine:
        # both engines replay the identical recorded trace.
        assert spec.stream_digest() == other.stream_digest()

    def test_disk_cache_isolates_engines(self, tmp_path):
        from repro.analysis.executor import SnapshotCache

        spec = RunSpec("barnes", "allarm", settings=SMOKE)
        cache = SnapshotCache(tmp_path)
        snapshot = execute_run_spec(spec)
        cache.store(spec, snapshot)
        assert cache.load(spec) is not None
        assert cache.load(spec.with_engine("reference")) is None


class TestDifferStrength:
    """snapshot_diff must actually catch divergences, not pass vacuously."""

    def test_detects_scalar_and_node_divergence(self):
        records = stream_records(
            [(0, 0, 0, AccessType.READ), (1, 0, 0, AccessType.WRITE)] * 30
        )
        reference, packed = run_both_engines(tiny_config("baseline"), records)
        assert snapshot_diff(reference, packed) == []
        packed.l2_misses += 1
        assert any("l2_misses" in diff for diff in snapshot_diff(reference, packed))
        packed.l2_misses -= 1
        packed.nodes[2].dram_reads += 5
        diffs = snapshot_diff(reference, packed)
        assert any(diff.startswith("nodes[2].dram_reads") for diff in diffs)
        with pytest.raises(SimulationError, match="snapshots differ"):
            assert_snapshots_identical(reference, packed, context="strength")
