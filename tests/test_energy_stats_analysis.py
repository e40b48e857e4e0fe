"""Tests for the energy/area models, hierarchy, and the experiment harness."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import ExperimentRunner, ExperimentSettings
from repro.analysis.figures import (
    area_table,
    figure2_local_remote,
    figure3_comparison,
    format_area_table,
    format_figure2,
    format_figure3,
)
from repro.cache.hierarchy import CacheHierarchy, HitLevel
from repro.coherence.states import LineState
from repro.energy.area import PAPER_AREA_TABLE, ProbeFilterAreaModel
from repro.energy.directory_energy import ProbeFilterEnergyModel
from repro.energy.mcpat import McPatModel
from repro.energy.noc_energy import NocEnergyModel
from repro.errors import ConfigurationError
from repro.memory.dram import SCHEDULING_OVERHEAD_NS, Dram


class TestCacheHierarchy:
    def make(self) -> CacheHierarchy:
        return CacheHierarchy(
            core_id=0, l1i_size=4096, l1d_size=4096, l1_assoc=4,
            l2_size=16384, l2_assoc=4,
        )

    def test_miss_then_l1_hit(self):
        hierarchy = self.make()
        result = hierarchy.access(0x1000, is_write=False)
        assert result.level is HitLevel.MISS and result.needs_coherence
        hierarchy.fill(0x1000, LineState.EXCLUSIVE)
        again = hierarchy.access(0x1000, is_write=False)
        assert again.level is HitLevel.L1 and again.is_hit

    def test_write_to_shared_needs_upgrade(self):
        hierarchy = self.make()
        hierarchy.fill(0x1000, LineState.SHARED)
        result = hierarchy.access(0x1000, is_write=True)
        assert result.needs_upgrade and result.needs_coherence

    def test_write_to_exclusive_is_silent(self):
        hierarchy = self.make()
        hierarchy.fill(0x1000, LineState.EXCLUSIVE)
        result = hierarchy.access(0x1000, is_write=True)
        assert result.is_hit
        assert hierarchy.coherence_state(0x1000) is LineState.MODIFIED

    def test_inclusion_on_l2_eviction(self):
        hierarchy = self.make()
        l2_sets = hierarchy.l2.set_count
        stride = 64 * l2_sets
        addresses = [i * stride for i in range(hierarchy.l2.associativity + 1)]
        for address in addresses:
            hierarchy.fill(address, LineState.EXCLUSIVE)
        evicted = [a for a in addresses if not hierarchy.l2.contains(a)]
        assert evicted
        for address in evicted:
            assert not hierarchy.l1d.contains(address)

    def test_invalidate_removes_from_both_levels(self):
        hierarchy = self.make()
        hierarchy.fill(0x2000, LineState.MODIFIED)
        prior = hierarchy.handle_invalidate(0x2000)
        assert prior is LineState.MODIFIED
        assert not hierarchy.holds_line(0x2000)
        assert not hierarchy.l1d.contains(0x2000)

    def test_downgrade(self):
        hierarchy = self.make()
        hierarchy.fill(0x2000, LineState.MODIFIED)
        assert hierarchy.handle_downgrade(0x2000) is LineState.OWNED
        hierarchy.fill(0x3000, LineState.EXCLUSIVE)
        assert hierarchy.handle_downgrade(0x3000) is LineState.SHARED
        assert hierarchy.handle_downgrade(0x9999000) is None

    def test_instruction_side_uses_l1i(self):
        hierarchy = self.make()
        hierarchy.fill(0x4000, LineState.SHARED, is_instruction=True)
        assert hierarchy.l1i.contains(0x4000)
        assert not hierarchy.l1d.contains(0x4000)

    def test_invalid_geometry(self):
        with pytest.raises(ConfigurationError):
            CacheHierarchy(core_id=0, l1d_size=64 * 1024, l2_size=32 * 1024)


class TestDramAndController:
    def test_row_hit_is_faster(self):
        dram = Dram(node_id=0)
        first = dram.access(0x1000)
        second = dram.access(0x1040)  # same 8 kB row
        other = dram.access(0x100000)
        assert first == SCHEDULING_OVERHEAD_NS + 60.0
        assert second == SCHEDULING_OVERHEAD_NS + 40.0
        assert other == SCHEDULING_OVERHEAD_NS + 60.0
        assert dram.stats.reads == 3

    def test_controller_adds_overhead(self):
        dram = Dram(0)
        assert dram.access(0x40) == pytest.approx(62.0)
        assert dram.access(0x40, True) == pytest.approx(42.0)  # row hit
        assert dram.stats.reads == 1
        assert dram.stats.writes == 1

    def test_invalid_latencies(self):
        with pytest.raises(ConfigurationError):
            Dram(0, access_latency_ns=0)
        with pytest.raises(ConfigurationError):
            Dram(0, access_latency_ns=10, row_hit_latency_ns=20)


class TestEnergyModels:
    def test_noc_energy_scales_with_flit_hops(self):
        model = NocEnergyModel()
        assert model.dynamic_energy_pj(0) == 0
        assert model.dynamic_energy_pj(200) == pytest.approx(2 * model.dynamic_energy_pj(100))

    def test_pf_energy_scales_with_coverage(self):
        model = ProbeFilterEnergyModel()
        small = model.dynamic_energy_pj(100, 100, 128 * 1024)
        large = model.dynamic_energy_pj(100, 100, 512 * 1024)
        assert large > small
        assert large == pytest.approx(2 * small)  # sqrt(4x) = 2x

    def test_negative_counts_rejected(self):
        with pytest.raises(ConfigurationError):
            NocEnergyModel().dynamic_energy_pj(-1)
        with pytest.raises(ConfigurationError):
            ProbeFilterEnergyModel().dynamic_energy_pj(-1, 0, 1024)

    def test_area_table_matches_paper(self):
        model = ProbeFilterAreaModel()
        for coverage, expected in PAPER_AREA_TABLE.items():
            assert model.area_mm2(coverage) == pytest.approx(expected)

    def test_area_interpolation_monotonic(self):
        model = ProbeFilterAreaModel()
        sizes = [32, 48, 64, 96, 128, 192, 256, 384, 512]
        areas = [model.area_mm2(size * 1024) for size in sizes]
        assert areas == sorted(areas)
        assert model.area_saved_mm2(512 * 1024, 128 * 1024) == pytest.approx(70.89 - 19.90)

    def test_mcpat_report(self):
        settings = ExperimentSettings(scale=16, accesses=3000, multiprocess_accesses=2000)
        runner = ExperimentRunner(settings)
        baseline, allarm = runner.run_pair("barnes")
        mcpat = McPatModel()
        report = mcpat.report(baseline, 32 * 1024)
        assert report.total_pj == pytest.approx(report.noc_pj + report.probe_filter_pj)
        normalized = mcpat.normalized(baseline, allarm, 32 * 1024)
        assert normalized.probe_filter <= 1.0
        assert len(mcpat.area_table()) == 5


class TestExperimentHarness:
    @pytest.fixture(scope="class")
    def runner(self) -> ExperimentRunner:
        settings = ExperimentSettings(scale=16, accesses=4000, multiprocess_accesses=2000)
        return ExperimentRunner(settings)

    def test_runner_caches_runs(self, runner):
        first = runner.run_benchmark("barnes", "baseline")
        second = runner.run_benchmark("barnes", "baseline")
        assert first is second

    def test_settings_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ACCESSES", "1234")
        monkeypatch.setenv("REPRO_BENCH_SCALE", "32")
        settings = ExperimentSettings.from_environment()
        assert settings.accesses == 1234
        assert settings.scale == 32

    def test_settings_bad_environment_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_ACCESSES", "not-a-number")
        message = "REPRO_BENCH_ACCESSES='not-a-number' is not an integer"
        with pytest.raises(ConfigurationError, match=message):
            ExperimentSettings.from_environment()

    def test_figure2_rows(self, runner):
        rows = figure2_local_remote(runner, benchmarks=["barnes", "x264"])
        assert [row.benchmark for row in rows] == ["barnes", "x264"]
        for row in rows:
            assert row.local_fraction + row.remote_fraction == pytest.approx(1.0)
        assert "barnes" in format_figure2(rows)

    def test_figure3_rows(self, runner):
        rows = figure3_comparison(runner, benchmarks=["barnes"])
        assert len(rows) == 1
        row = rows[0]
        assert row.speedup > 0
        assert row.normalized_evictions <= 1.1
        assert 0 <= row.probe_hidden_fraction <= 1
        text = format_figure3(rows)
        assert "barnes" in text and "geomean" in text

    def test_allarm_reduces_allocations(self, runner):
        baseline, allarm = runner.run_pair("barnes")
        assert allarm.pf_allocations < baseline.pf_allocations
        assert allarm.local_probes_sent > 0

    def test_multiprocess_runs_are_mostly_local(self, runner):
        snapshot = runner.run_multiprocess("barnes", "baseline", 512 * 1024)
        assert snapshot.local_fraction > 0.5

    def test_area_table_helper(self):
        rows = area_table()
        assert len(rows) == 5
        assert "mm^2" in format_area_table(rows)
