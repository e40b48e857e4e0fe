"""Tests for configuration, the machine builder, the simulator and events."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.stats.compare import RunComparison, geometric_mean, safe_ratio
from repro.stats.snapshot import collect
from repro.system.config import (
    DEFAULT_EXPERIMENT_SCALE,
    SystemConfig,
    experiment_config,
    paper_config,
    scaled_config,
)
from repro.system.fastcore import ENGINES, build_machine
from repro.system.machine import Machine
from repro.system.simulator import Simulator, simulate
from repro.trace.record import AccessRecord, AccessType
from repro.workloads.base import SyntheticWorkload
from repro.workloads.registry import build_spec


class TestSystemConfig:
    def test_table1_defaults(self):
        config = paper_config()
        table = config.describe()
        assert table["Cores"] == "16"
        assert "256 kB" in table["L2 Cache"]
        assert "512 kB" in table["Directory"]
        assert table["Topology"] == "4x4 mesh"
        assert config.address_map().node_count == 16

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(directory_policy="magic")

    def test_core_count_must_match_mesh(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(core_count=8)

    def test_with_helpers_produce_copies(self):
        config = paper_config("baseline")
        allarm = config.with_policy("allarm")
        small_pf = config.with_probe_filter_coverage(128 * 1024)
        assert config.directory_policy == "baseline"
        assert allarm.uses_allarm
        assert small_pf.directory.probe_filter_coverage == 128 * 1024

    def test_scaled_config_sweeps(self):
        config = scaled_config("allarm", probe_filter_coverage=64 * 1024)
        assert config.directory.probe_filter_coverage == 64 * 1024

    def test_experiment_config_scales_proportionally(self):
        config = experiment_config("allarm", scale=8)
        assert config.core.l2_size == 256 * 1024 // 8
        assert config.directory.probe_filter_coverage == 512 * 1024 // 8
        # The 2x coverage ratio of Table I is preserved.
        assert config.directory.probe_filter_coverage == 2 * config.core.l2_size
        assert DEFAULT_EXPERIMENT_SCALE >= 1

    def test_experiment_config_invalid_scale(self):
        with pytest.raises(ConfigurationError):
            experiment_config(scale=0)

    def test_eviction_notification_validated(self):
        from dataclasses import replace

        config = paper_config()
        with pytest.raises(ConfigurationError):
            replace(config.directory, eviction_notification="sometimes")

    def test_disabled_nodes_validated(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(allarm_disabled_nodes=(99,))


class TestMachine:
    def test_builds_sixteen_nodes(self, small_baseline_cfg):
        machine = Machine(small_baseline_cfg)
        assert len(machine.nodes) == 16
        assert machine.node(5).directory.policy.name == "baseline"

    def test_allarm_policy_installed(self, small_allarm_cfg):
        machine = Machine(small_allarm_cfg)
        assert machine.node(0).directory.policy.name == "allarm"

    def test_allarm_disabled_nodes(self):
        config = experiment_config("allarm", scale=16, allarm_disabled_nodes=(2,))
        machine = Machine(config)
        assert machine.node(2).directory.policy.enabled is False
        assert machine.node(3).directory.policy.enabled is True

    def test_node_bounds(self, small_baseline_cfg):
        machine = Machine(small_baseline_cfg)
        with pytest.raises(ConfigurationError):
            machine.node(16)

    def test_home_directory_matches_address_map(self, small_baseline_cfg):
        machine = Machine(small_baseline_cfg)
        paddr = machine.address_map.bytes_per_node * 7 + 128
        home = machine.address_map.home_node(paddr)
        assert machine.nodes[home].directory.node_id == 7

    @pytest.mark.parametrize("engine", ENGINES)
    def test_dropped_machine_is_freed_without_cycle_collector(
        self, engine, small_allarm_cfg
    ):
        # No directory holds its machine and nothing in the NUMA
        # allocator refers back to it, so dropping the last reference
        # frees a record-fed machine, its caches and its OS model at once.
        gc.disable()
        try:
            machine = build_machine(small_allarm_cfg, engine)
            for index in range(4000):
                vaddr = 0x10_0000 + (index * 7919 % 256) * 64 * 17
                machine.perform_access(index % 16, 0, vaddr, index % 3 == 0)
            assert machine.transactions_serviced > 0
            machine_ref = weakref.ref(machine)
            caches_ref = weakref.ref(machine.nodes[3].caches)
            allocator_ref = weakref.ref(machine.allocator)
            frames_ref = weakref.ref(machine.allocator.frames)
            del machine
            assert machine_ref() is None
            assert caches_ref() is None
            assert allocator_ref() is None
            assert frames_ref() is None
        finally:
            gc.enable()


class TestSimulator:
    def trace(self, count: int = 64):
        return [
            AccessRecord(core=i % 16, vaddr=0x1000 + (i % 8) * 64, access_type=AccessType.READ)
            for i in range(count)
        ]

    def test_run_produces_snapshot(self, small_baseline_cfg):
        result = simulate(small_baseline_cfg, self.trace(), "toy")
        assert result.accesses_simulated == 64
        assert result.workload_name == "toy"
        assert result.execution_time_ns > 0
        assert result.snapshot.total_accesses == 64

    def test_single_use(self, small_baseline_cfg):
        simulator = Simulator(small_baseline_cfg)
        simulator.run(self.trace())
        with pytest.raises(SimulationError):
            simulator.run(self.trace())

    def test_max_accesses_cap(self, small_baseline_cfg):
        result = simulate(small_baseline_cfg, self.trace(200), max_accesses=50)
        assert result.accesses_simulated == 50

    def test_invalid_core_rejected(self, small_baseline_cfg):
        bad = [AccessRecord(core=99, vaddr=0, access_type=AccessType.READ)]
        with pytest.raises(SimulationError):
            simulate(small_baseline_cfg, bad)

    def test_determinism(self, small_allarm_cfg):
        spec = build_spec("barnes", total_accesses=2000).with_footprint_scale(16)
        first = simulate(small_allarm_cfg, SyntheticWorkload(spec).generate())
        second = simulate(
            experiment_config("allarm", scale=16), SyntheticWorkload(spec).generate()
        )
        assert first.snapshot.execution_time_ns == second.snapshot.execution_time_ns
        assert first.snapshot.pf_evictions == second.snapshot.pf_evictions
        assert first.snapshot.network_bytes == second.snapshot.network_bytes

    def test_collect_matches_machine(self, small_baseline_cfg):
        simulator = Simulator(small_baseline_cfg)
        result = simulator.run(self.trace())
        fresh = collect(simulator.machine)
        assert fresh.execution_time_ns == result.snapshot.execution_time_ns
        assert fresh.pf_allocations == result.snapshot.pf_allocations


class TestCompareHelpers:
    def test_safe_ratio(self):
        assert safe_ratio(10, 5) == 2
        assert safe_ratio(10, 0, default=7) == 7

    def test_geometric_mean(self):
        assert geometric_mean([1, 4]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0

    def test_run_comparison(self, small_baseline_cfg, small_allarm_cfg):
        trace = [
            AccessRecord(core=i % 16, vaddr=0x2000 + (i % 32) * 64, access_type=AccessType.READ)
            for i in range(256)
        ]
        base = simulate(small_baseline_cfg, list(trace)).snapshot
        allarm = simulate(small_allarm_cfg, list(trace)).snapshot
        comparison = RunComparison(base, allarm)
        assert comparison.speedup > 0
        assert 0 <= comparison.normalized_evictions <= 10
        data = comparison.as_dict()
        assert set(data) == {
            "speedup",
            "normalized_evictions",
            "normalized_traffic",
            "normalized_l2_misses",
            "eviction_reduction",
            "traffic_reduction",
        }
