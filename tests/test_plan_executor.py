"""Tests for the sweep engine: plans, executor, disk cache, CLI facade."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.__main__ import main as repro_main
from repro.analysis import executor as executor_module
from repro.analysis.executor import (
    SOURCE_DISK,
    SOURCE_EXECUTED,
    SOURCE_MEMORY,
    SnapshotCache,
    SweepExecutor,
    cache_key,
    execute_run_spec,
)
from repro.analysis.experiments import (
    ExperimentRunner,
    ExperimentSettings,
    default_runner,
    reset_default_runner,
)
from repro.analysis.plan import (
    RunSpec,
    SweepPlan,
    build_plan,
    figure3_plan,
    figure3h_plan,
    figure4_plan,
    full_plan,
    seed_for,
)
from repro.errors import ConfigurationError
from repro.stats.compare import snapshot_diff
from repro.stats.snapshot import MachineSnapshot
from repro.workloads.registry import build_spec, register, unregister

#: Deliberately tiny settings so engine tests stay fast.
TINY = ExperimentSettings(scale=16, accesses=1500, multiprocess_accesses=800)


# ----------------------------------------------------------------------
# Seeds
# ----------------------------------------------------------------------
class TestSeeds:
    def test_deterministic(self):
        assert seed_for("barnes", 0) == seed_for("barnes", 0)

    def test_anagrams_get_distinct_seeds(self):
        # A character-sum seed would collide for these.
        assert seed_for("listen") != seed_for("silent")
        assert seed_for("ocean-cont") != seed_for("ocean-cnot")

    def test_base_seed_perturbs(self):
        assert seed_for("barnes", 0) != seed_for("barnes", 1)

    def test_anagram_benchmark_names_get_distinct_access_streams(self):
        # Regression for the pre-crc32 char-sum seed: two benchmarks whose
        # names are anagrams must not replay identical access streams.
        from repro.workloads.base import materialize
        from repro.workloads.registry import build_spec

        streams = {}
        for name in ("stream-scan", "scan-stream"):
            spec = build_spec(
                "barnes", total_accesses=2000, seed=seed_for(name)
            ).with_footprint_scale(32)
            streams[name] = materialize(spec)
        assert streams["stream-scan"] != streams["scan-stream"]


# ----------------------------------------------------------------------
# RunSpec
# ----------------------------------------------------------------------
class TestRunSpec:
    def test_is_picklable_and_hashable(self):
        spec = RunSpec("barnes", "allarm", settings=TINY)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, RunSpec("barnes", "allarm", settings=TINY)}) == 1

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RunSpec("barnes", "allarm", layout="4p")
        with pytest.raises(ConfigurationError):
            RunSpec("barnes", "no-such-policy")
        with pytest.raises(ConfigurationError):
            RunSpec("barnes", "allarm", pf_size=0)

    def test_unknown_benchmark_fails_at_plan_build_time(self):
        # A typo'd benchmark must fail when the spec is built, not minutes
        # into a sweep when the bad run finally executes.
        with pytest.raises(ConfigurationError):
            RunSpec("barnse", "allarm", settings=TINY)
        with pytest.raises(ConfigurationError):
            build_plan("fig3", TINY, benchmarks=["barnes", "barnse"])

    def test_non_multiprocess_benchmark_rejected_for_2p_layout(self):
        # blackscholes is a paper benchmark but not part of the Fig. 4 study.
        with pytest.raises(ConfigurationError):
            RunSpec("blackscholes", "allarm", layout="2p", settings=TINY)

    def test_digest_distinguishes_every_field(self):
        base = RunSpec("barnes", "allarm", settings=TINY)
        variants = [
            RunSpec("cholesky", "allarm", settings=TINY),
            RunSpec("barnes", "baseline", settings=TINY),
            RunSpec("barnes", "allarm", pf_size=256 * 1024, settings=TINY),
            RunSpec("barnes", "allarm", layout="2p", settings=TINY),
            RunSpec("barnes", "allarm", frames_per_node=64, settings=TINY),
            RunSpec("barnes", "allarm", settings=TINY.quick(1000)),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == 1 + len(variants)

    def test_workload_name_follows_layout(self):
        assert RunSpec("barnes", "allarm", settings=TINY).workload_name == "barnes"
        assert (
            RunSpec("barnes", "allarm", layout="2p", settings=TINY).workload_name
            == "barnes-2p"
        )

    def test_access_stream_is_deterministic(self):
        spec = RunSpec("barnes", "allarm", settings=TINY)
        first = list(spec.access_stream())
        second = list(spec.access_stream())
        assert first == second
        assert len(first) > 0


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------
class TestPlans:
    def test_figure_grids(self):
        assert len(figure3_plan(TINY)) == 16
        assert len(figure3h_plan(TINY)) == 8 * (1 + 3)
        assert len(figure4_plan(TINY)) == 4 * 2 * 5
        # The union de-duplicates the shared 512 kB runs.
        combined = len(figure3_plan(TINY)) + len(figure3h_plan(TINY)) + len(
            figure4_plan(TINY)
        )
        assert len(full_plan(TINY)) < combined

    def test_duplicate_specs_rejected(self):
        spec = RunSpec("barnes", "allarm", settings=TINY)
        with pytest.raises(ConfigurationError):
            SweepPlan(name="dup", specs=(spec, spec))

    def test_build_plan_by_name(self):
        assert len(build_plan("fig3", TINY, benchmarks=["barnes"])) == 2
        with pytest.raises(ConfigurationError):
            build_plan("fig9", TINY)

    def test_microbench_plan(self):
        from repro.workloads.registry import MICROBENCH_FAMILIES

        plan = build_plan("micro", TINY)
        assert len(plan) == len(MICROBENCH_FAMILIES) * 2 * 2
        assert {spec.benchmark for spec in plan} == set(MICROBENCH_FAMILIES)
        assert all(spec.layout == "16t" for spec in plan)

    def test_empty_benchmark_subset_means_no_runs(self):
        # An explicitly empty subset must not silently expand to the full
        # default benchmark list.
        assert len(figure3_plan(TINY, benchmarks=[])) == 0
        assert len(figure4_plan(TINY, benchmarks=[])) == 0
        # full_plan with a subset containing no Fig. 4 benchmarks simply
        # contributes no 2p runs.
        plan = full_plan(TINY, benchmarks=["blackscholes"])
        assert all(spec.layout == "16t" for spec in plan)


# ----------------------------------------------------------------------
# Snapshot serialisation
# ----------------------------------------------------------------------
class TestSnapshotSerialization:
    @pytest.fixture(scope="class")
    def snapshot(self) -> MachineSnapshot:
        return execute_run_spec(RunSpec("barnes", "allarm", settings=TINY))

    def test_json_round_trip_is_lossless(self, snapshot):
        restored = MachineSnapshot.from_json(snapshot.to_json())
        assert restored.to_dict() == snapshot.to_dict()
        assert restored == snapshot
        assert len(restored.nodes) == len(snapshot.nodes)

    def test_schema_version_is_checked(self, snapshot):
        data = snapshot.to_dict()
        data["schema_version"] = 999
        with pytest.raises(Exception):
            MachineSnapshot.from_dict(data)

    def test_unknown_fields_rejected(self, snapshot):
        data = snapshot.to_dict()
        data["bogus_field"] = 1
        with pytest.raises(Exception):
            MachineSnapshot.from_dict(data)


# ----------------------------------------------------------------------
# Disk cache
# ----------------------------------------------------------------------
class TestSnapshotCache:
    def test_store_then_load(self, tmp_path):
        spec = RunSpec("barnes", "baseline", settings=TINY)
        snapshot = execute_run_spec(spec)
        cache = SnapshotCache(tmp_path)
        assert cache.load(spec) is None
        path = cache.store(spec, snapshot)
        assert path.exists()
        loaded = cache.load(spec)
        assert loaded is not None
        assert loaded.to_dict() == snapshot.to_dict()
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = RunSpec("barnes", "baseline", settings=TINY)
        cache = SnapshotCache(tmp_path)
        path = cache.path_for(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        assert cache.load(spec) is None
        assert cache.stats.invalid == 1

    def test_entries_are_self_describing(self, tmp_path):
        spec = RunSpec("barnes", "baseline", settings=TINY)
        cache = SnapshotCache(tmp_path)
        path = cache.store(spec, execute_run_spec(spec))
        payload = json.loads(path.read_text())
        assert payload["spec"]["benchmark"] == "barnes"
        assert payload["spec"]["policy"] == "baseline"
        assert cache.entry_count() == 1

    def test_key_includes_versions(self):
        spec = RunSpec("barnes", "baseline", settings=TINY)
        assert cache_key(spec) != spec.digest()


# ----------------------------------------------------------------------
# Executor
# ----------------------------------------------------------------------
class TestSweepExecutor:
    def test_memory_tier_returns_identical_object(self):
        executor = SweepExecutor()
        spec = RunSpec("barnes", "baseline", settings=TINY)
        assert executor.run(spec) is executor.run(spec)

    def test_disk_tier_survives_executor_restarts(self, tmp_path):
        spec = RunSpec("barnes", "baseline", settings=TINY)
        first = SweepExecutor(cache_dir=tmp_path).run(spec)
        rehydrated = SweepExecutor(cache_dir=tmp_path)
        second = rehydrated.run(spec)
        assert second.to_dict() == first.to_dict()
        assert rehydrated.disk_cache.stats.hits == 1

    def test_run_plan_sources_and_order(self, tmp_path):
        plan = figure3_plan(TINY, benchmarks=["barnes"])
        executor = SweepExecutor(cache_dir=tmp_path)
        outcome = executor.run_plan(plan)
        assert [r.spec for r in outcome.results] == list(plan.specs)
        assert outcome.counts_by_source()[SOURCE_EXECUTED] == 2
        # Second invocation on a fresh executor: everything from disk.
        again = SweepExecutor(cache_dir=tmp_path).run_plan(plan)
        assert again.counts_by_source()[SOURCE_DISK] == 2
        assert again.cached_fraction == 1.0
        # Third time on the same executor: memory tier.
        third = executor.run_plan(plan)
        assert third.counts_by_source()[SOURCE_MEMORY] == 2

    def test_parallel_matches_serial_bit_for_bit(self):
        plan = figure3_plan(TINY, benchmarks=["barnes", "x264"])
        serial = SweepExecutor(workers=1).run_plan(plan)
        parallel = SweepExecutor(workers=2).run_plan(plan)
        assert all(r.source == SOURCE_EXECUTED for r in parallel.results)
        for left, right in zip(serial.results, parallel.results):
            assert left.spec == right.spec
            assert left.snapshot.to_dict() == right.snapshot.to_dict()


# ----------------------------------------------------------------------
# Stream reuse: one generation per stream and worker
# ----------------------------------------------------------------------
class TestStreamReuse:
    def test_interleaved_plan_generates_each_stream_once(self, monkeypatch):
        # fig3 then fig3h visits barnes, x264, barnes, x264: without
        # stream-grouped dispatch a one-entry memo would generate 4 times.
        names = ["barnes", "x264"]
        plan = figure3_plan(TINY, names).merged_with(figure3h_plan(TINY, names))
        digests = [spec.stream_digest() for spec in plan]
        runs = [d for i, d in enumerate(digests) if i == 0 or d != digests[i - 1]]
        assert len(runs) == 4 and runs[:2] == runs[2:]
        calls = []
        original = RunSpec.access_stream

        def counting(spec):
            calls.append(spec.stream_digest())
            return original(spec)

        monkeypatch.setattr(RunSpec, "access_stream", counting)
        outcome = SweepExecutor().run_plan(plan)
        assert sorted(calls) == sorted(set(digests))
        assert outcome.streams_generated == 2
        assert [r.spec for r in outcome.results] == list(plan.specs)

    def test_pooled_full_plan_is_bit_identical_to_serial(self):
        settings = ExperimentSettings(
            scale=16, accesses=3000, multiprocess_accesses=800
        )
        plan = full_plan(settings)
        distinct = len({spec.stream_digest() for spec in plan})
        serial = SweepExecutor(workers=1).run_plan(plan)
        pooled = SweepExecutor(workers=2).run_plan(plan)
        assert serial.streams_generated == distinct
        assert distinct <= pooled.streams_generated <= 2 * distinct
        assert [r.spec for r in pooled.results] == list(plan.specs)
        for left, right in zip(serial.results, pooled.results):
            assert snapshot_diff(left.snapshot, right.snapshot) == []

    def test_memo_never_outlives_a_call(self):
        name = "memo-scope-probe"

        def as_barnes(total_accesses=1000, seed=0):
            return build_spec("barnes", total_accesses=total_accesses, seed=seed)

        def as_x264(total_accesses=1000, seed=0):
            return build_spec("x264", total_accesses=total_accesses, seed=seed)

        register(name, as_barnes)
        try:
            specs = tuple(
                RunSpec(name, policy, settings=TINY)
                for policy in ("baseline", "allarm")
            )
            plan = SweepPlan(name="memo-scope", specs=specs)
            executor = SweepExecutor()
            first = executor.run_plan(plan)
            assert first.streams_generated == 1
            assert executor_module._stream_memo.entry is None
            executor.forget()
            unregister(name)
            register(name, as_x264)
            second = executor.run_plan(plan)
            assert second.streams_generated == 1
            for old, new in zip(first.results, second.results):
                assert snapshot_diff(old.snapshot, new.snapshot) != []
                fresh = execute_run_spec(new.spec)
                assert snapshot_diff(new.snapshot, fresh) == []
            assert executor_module._stream_memo.entry is None
        finally:
            unregister(name)


# ----------------------------------------------------------------------
# ExperimentRunner facade
# ----------------------------------------------------------------------
class TestRunnerFacade:
    def test_benchmark_and_spec_entry_points_share_the_cache(self):
        runner = ExperimentRunner(TINY)
        via_method = runner.run_benchmark("barnes", "allarm")
        via_spec = runner.run_spec(RunSpec("barnes", "allarm", settings=TINY))
        assert via_method is via_spec

    def test_multiprocess_layout(self):
        runner = ExperimentRunner(TINY)
        snapshot = runner.run_multiprocess("barnes", "baseline", 512 * 1024)
        assert snapshot.local_fraction > 0.5

    def test_run_plan_through_runner(self):
        runner = ExperimentRunner(TINY)
        outcome = runner.run_plan(figure3_plan(TINY, benchmarks=["barnes"]))
        assert len(outcome) == 2

    def test_default_runner_reset(self):
        try:
            runner = reset_default_runner(TINY)
            assert default_runner() is runner
            assert default_runner().settings == TINY
        finally:
            reset_default_runner()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    ARGS = [
        "--benchmarks",
        "barnes",
        "--accesses",
        "1500",
        "--mp-accesses",
        "800",
        "--scale",
        "16",
    ]

    def test_sweep_runs_and_caches(self, tmp_path, capsys):
        argv = ["sweep", "--plan", "fig3", "--cache-dir", str(tmp_path)] + self.ARGS
        assert repro_main(argv) == 0
        first = capsys.readouterr().out
        assert "2 runs" in first and "executed" in first
        # Re-invocation must be fully cache-served and satisfy the gate.
        assert repro_main(argv + ["--min-cache-fraction", "0.9"]) == 0
        second = capsys.readouterr().out
        assert "100% cached" in second
        assert "2 executed" in first and "1 stream generated" in first
        assert "0 streams generated" in second

    def test_min_cache_fraction_gate_fails_cold(self, tmp_path, capsys):
        argv = (
            ["sweep", "--plan", "fig3", "--cache-dir", str(tmp_path)]
            + self.ARGS
            + ["--min-cache-fraction", "0.9"]
        )
        assert repro_main(argv) == 1

    def test_plans_command(self, capsys):
        assert repro_main(["plans"] + self.ARGS) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig4" in out and "all" in out

    def test_version_command(self, capsys):
        assert repro_main(["version"]) == 0
        assert "repro" in capsys.readouterr().out
