"""The scenario generator, the phase DSL, and the stream-reset regression.

Three contracts live here:

* **Stream re-entrancy** (the PR's bugfix): a ``SyntheticWorkload``
  re-seeds its RNG and per-thread cursors at the top of every
  ``generate()`` pass, chunked or not.  Before the fix a second
  pass on one instance matched through the RNG-free init phase and then
  drifted at the first compute access — the init→compute phase boundary
  — so chunked generation silently diverged from streamed generation
  whenever both touched the same instance.
* **Generator reproducibility**: ``scenario-*`` names are
  self-describing, re-sampling a generator seed reproduces names, specs
  and digests bit for bit, CRC-32 workload-seed collisions are salted
  away, and dynamic name resolution never perturbs the registry's
  deterministic ordering across processes.
* **End-to-end acceptance**: a sampled set sweeps through cache, pool
  workers and the serve layer with bit-identical snapshots on both
  engines, with the packed engine fed records and fed chunks.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.analysis.executor import SweepExecutor
from repro.analysis.plan import ExperimentSettings, RunSpec, scenario_plan, seed_for
from repro.errors import WorkloadError
from repro.stats.compare import assert_snapshots_identical, snapshot_diff
from repro.system.simulator import Simulator
from repro.trace.record import chunk_records
from repro.workloads import registry
from repro.workloads.base import SyntheticWorkload
from repro.workloads.generator import (
    DEFAULT_FAMILY_ACCESSES,
    MANIFEST_SCHEMA,
    ScenarioSet,
    assert_no_seed_collisions,
    build_family_spec,
    family_name,
    name_seed,
    parse_family_name,
    resolve_builder,
    sample_scenarios,
    spec_digest,
)
from repro.workloads.patterns import (
    DEFAULT_WRITE_FRACTIONS,
    PHASE_PATTERNS,
    PhaseSpec,
    phase_counts,
)

TINY = ExperimentSettings(scale=16, accesses=2500, multiprocess_accesses=1200, seed=1)

#: The chunk sizes ISSUE names for the cross-path parity gate: degenerate,
#: odd, one-off-the-default and the default emission size.
PARITY_CHUNK_SIZES = (1, 7, 8191, 8192)


def scenario_workload(generator_seed=11, index=0, total_accesses=4000):
    return SyntheticWorkload(
        build_family_spec(generator_seed, index, total_accesses=total_accesses)
    )


def phased_scenario_workload(generator_seed=11, count=8, total_accesses=4000):
    """A sampled family that actually carries phases (skip-proof: the
    default config makes one in 4**8 sets phase-free)."""
    for index in range(count):
        spec = build_family_spec(generator_seed, index, total_accesses=total_accesses)
        if spec.phases:
            return SyntheticWorkload(spec)
    raise AssertionError(f"no phased family in scenario set {generator_seed}")


# ----------------------------------------------------------------------
# The bugfix: generate() re-entrancy and chunked/streamed parity
# ----------------------------------------------------------------------
class TestStreamResetRegression:
    """Chunked generation must never drift from streamed generation."""

    def test_second_generate_pass_is_identical(self):
        # The original failure: pass two matched the RNG-free init phase
        # then diverged at the first compute access (the init→compute
        # boundary), because the RNG carried state from pass one.
        workload = registry.build_workload("migratory", total_accesses=2000)
        first = list(workload.generate())
        second = list(workload.generate())
        assert first == second

    def test_streamed_then_chunked_same_instance(self):
        # One workload instance streamed once (say, to record a trace)
        # and then packed into chunks for the chunk kernel.
        workload = registry.build_workload("migratory", total_accesses=2000)
        streamed = list(workload.generate())
        chunked = [
            record
            for chunk in chunk_records(workload.generate(), 8192)
            for record in chunk.records()
        ]
        assert streamed == chunked

    @pytest.mark.parametrize("chunk_size", PARITY_CHUNK_SIZES)
    def test_chunk_size_parity_plain_family(self, chunk_size):
        workload = registry.build_workload("false-sharing", total_accesses=3000)
        streamed = list(workload.generate())
        chunked = [
            record
            for chunk in chunk_records(workload.generate(), chunk_size)
            for record in chunk.records()
        ]
        assert streamed == chunked

    @pytest.mark.parametrize("chunk_size", PARITY_CHUNK_SIZES)
    def test_chunk_size_parity_phased_family(self, chunk_size):
        # Phase boundaries land mid-chunk for every one of these sizes;
        # the record sequence must not care.
        workload = phased_scenario_workload()
        streamed = list(workload.generate())
        chunked = [
            record
            for chunk in chunk_records(workload.generate(), chunk_size)
            for record in chunk.records()
        ]
        assert streamed == chunked

    def test_fresh_instances_agree_with_reused_instance(self):
        # Reset semantics, not just self-consistency: a reused instance
        # must produce what a fresh instance produces.
        spec = build_family_spec(11, 0, total_accesses=3000)
        reused = SyntheticWorkload(spec)
        list(reused.generate())  # dirty the instance
        assert list(reused.generate()) == list(SyntheticWorkload(spec).generate())


# ----------------------------------------------------------------------
# The phase DSL
# ----------------------------------------------------------------------
class TestPhaseSpecValidation:
    def test_unknown_pattern_rejected(self):
        with pytest.raises(WorkloadError, match="unknown pattern"):
            PhaseSpec("warmup", "sequential-write")

    def test_mix_may_not_target_a_region(self):
        with pytest.raises(WorkloadError, match="may not target"):
            PhaseSpec("steady", "mix", region="shared0")

    @pytest.mark.parametrize(
        "pattern", [p for p in PHASE_PATTERNS if p != "mix"]
    )
    def test_non_mix_patterns_need_a_region(self, pattern):
        with pytest.raises(WorkloadError, match="needs a region"):
            PhaseSpec("thrash", pattern)

    def test_weight_and_stride_must_be_positive(self):
        with pytest.raises(WorkloadError, match="weight"):
            PhaseSpec("steady", "mix", weight=0)
        with pytest.raises(WorkloadError, match="stride_lines"):
            PhaseSpec("thrash", "stride", region="shared0", stride_lines=0)

    def test_spec_rejects_duplicate_phase_names(self):
        base = build_family_spec(11, 0)
        phase = PhaseSpec("steady", "mix")
        from dataclasses import replace

        with pytest.raises(WorkloadError, match="duplicate phase names"):
            replace(base, phases=(phase, phase))

    def test_spec_rejects_unknown_phase_region(self):
        base = build_family_spec(11, 0)
        from dataclasses import replace

        with pytest.raises(WorkloadError, match="nonesuch"):
            replace(
                base,
                phases=(PhaseSpec("warmup", "snake", region="nonesuch"),),
            )


class TestPhaseCounts:
    def test_counts_sum_exactly(self):
        phases = (
            PhaseSpec("warmup", "mix", weight=0.1),
            PhaseSpec("steady", "mix", weight=0.63),
            PhaseSpec("thrash", "mix", weight=0.27),
        )
        for total in (1, 7, 100, 4001, 199_999):
            counts = phase_counts(total, phases)
            assert sum(counts) == total
            assert all(count >= 0 for count in counts)

    def test_remainder_lands_in_phase_order(self):
        phases = tuple(PhaseSpec(f"p{i}", "mix") for i in range(3))
        assert phase_counts(5, phases) == [2, 2, 1]

    def test_no_phases_no_counts(self):
        assert phase_counts(100, ()) == []

    def test_write_fraction_defaults_cover_all_targeted_patterns(self):
        targeted = [p for p in PHASE_PATTERNS if p != "mix"]
        assert sorted(DEFAULT_WRITE_FRACTIONS) == sorted(targeted)


class TestPhasedStream:
    def test_phased_stream_is_deterministic(self):
        workload = phased_scenario_workload()
        again = SyntheticWorkload(workload.spec)
        assert list(workload.generate()) == list(again.generate())

    def test_phased_stream_honours_access_budget(self):
        workload = phased_scenario_workload(total_accesses=4000)
        records = list(workload.generate())
        # init phase (first-touch page writes) + exactly the compute budget
        init = sum(instance.page_count for region in workload._instances.values()
                   for instance in region)
        assert len(records) == init + workload.spec.total_accesses

    def test_sequential_fill_phase_writes_the_target_region(self):
        # A pure fill phase must emit stores (write fraction 1.0).
        from dataclasses import replace

        base = build_family_spec(11, 0, total_accesses=800)
        target = next(r.name for r in base.regions if r.kind == "shared")
        spec = replace(
            base, phases=(PhaseSpec("warmup", "sequential-fill", region=target),)
        )
        records = list(SyntheticWorkload(spec).generate())
        compute = records[-spec.total_accesses:]
        from repro.trace.record import AccessType

        assert all(r.access_type is AccessType.WRITE for r in compute)


# ----------------------------------------------------------------------
# Names, seeds and collision salting
# ----------------------------------------------------------------------
class TestFamilyNames:
    def test_name_round_trip(self):
        assert parse_family_name(family_name(11, 3)) == (11, 3, 0)
        assert parse_family_name(family_name(11, 3, salt=2)) == (11, 3, 2)

    @pytest.mark.parametrize(
        "bad",
        ["barnes", "scenario-", "scenario-11", "scenario-11-3-s0",
         "scenario-11-3-s", "scenario-x-1", "scenario-11-3x"],
    )
    def test_non_scenario_names_do_not_parse(self, bad):
        assert parse_family_name(bad) is None

    def test_name_seed_is_the_seed_for_crc(self):
        # The contract that makes salting meaningful: seed_for is an
        # affine function of name_seed, so distinct name_seeds mean
        # distinct workload seeds at every base seed.
        for name in ("scenario-11-0", "scenario-11-1-s2", "migratory"):
            for base in (0, 1, 42):
                assert seed_for(name, base) == base * 1_000_003 + name_seed(name)

    def test_audit_passes_on_a_large_sampled_set(self):
        assert_no_seed_collisions(sample_scenarios(5, 64).names)

    def test_audit_raises_on_a_real_collision(self):
        # A genuine CRC-32 collision, found by birthday search over the
        # scenario name shape — both names hash to 4156442666.
        colliding = ["scenario-126834292-87", "scenario-673419381-56"]
        assert name_seed(colliding[0]) == name_seed(colliding[1])
        with pytest.raises(WorkloadError, match="collision"):
            assert_no_seed_collisions(colliding)

    def test_duplicate_name_is_not_a_collision(self):
        assert_no_seed_collisions(["scenario-1-0", "scenario-1-0"]) is None


class TestCollisionSalting:
    def test_injected_collision_is_salted_away(self):
        # Map every unsalted name of index 1 onto index 0's seed: the
        # sampler must bump index 1's salt until the seed is unique.
        def colliding(name):
            if name == "scenario-9-1":
                return colliding("scenario-9-0")
            return name_seed(name)

        sampled = sample_scenarios(9, 3, _seed_of=colliding)
        assert sampled.names == ["scenario-9-0", "scenario-9-1-s1", "scenario-9-2"]
        seeds = [colliding(name) for name in sampled.names]
        assert len(set(seeds)) == len(seeds)

    def test_salt_renames_without_resampling(self):
        plain = build_family_spec(9, 1, salt=0)
        salted = build_family_spec(9, 1, salt=1)
        assert salted.name == "scenario-9-1-s1"
        assert salted.seed == name_seed(salted.name) != plain.seed
        from dataclasses import replace

        # Same draw: only the name (and with it the default seed) moved.
        assert replace(salted, name=plain.name, seed=plain.seed) == plain

    def test_persistent_collision_keeps_bumping(self):
        taken = name_seed("scenario-9-0")

        def stubborn(name):
            _, _, salt = parse_family_name(name)
            if name.startswith("scenario-9-1") and salt < 3:
                return taken
            return name_seed(name)

        sampled = sample_scenarios(9, 2, _seed_of=stubborn)
        assert sampled.names[1] == "scenario-9-1-s3"


# ----------------------------------------------------------------------
# Sampling reproducibility
# ----------------------------------------------------------------------
class TestSamplingReproducibility:
    def test_resampling_reproduces_names_specs_and_digests(self):
        first = sample_scenarios(11, 8)
        second = sample_scenarios(11, 8)
        assert first.names == second.names
        for a, b in zip(first, second):
            assert a.spec == b.spec
            assert spec_digest(a.spec) == spec_digest(b.spec)
        assert first.manifest() == second.manifest()
        assert first.manifest()["schema"] == MANIFEST_SCHEMA

    def test_different_generator_seeds_sample_differently(self):
        a = sample_scenarios(11, 8)
        b = sample_scenarios(12, 8)
        assert [f.spec.regions for f in a] != [f.spec.regions for f in b]

    def test_family_is_a_pure_function_of_seed_and_index(self):
        # Resolving family 5 alone equals family 5 of the sampled set:
        # no cross-family RNG coupling.
        sampled = sample_scenarios(11, 8)
        lone = build_family_spec(11, 5)
        assert lone == sampled.families[5].spec

    def test_resolve_builder_matches_the_sampled_family(self):
        sampled = sample_scenarios(11, 4)
        for family in sampled:
            builder = resolve_builder(family.name)
            assert builder is not None
            assert builder() == family.spec
            scaled = builder(total_accesses=1000)
            assert scaled.total_accesses <= 1000
        assert resolve_builder("barnes") is None

    def test_invalid_sampling_arguments_rejected(self):
        with pytest.raises(WorkloadError, match="seed"):
            sample_scenarios(-1, 4)
        with pytest.raises(WorkloadError, match="count"):
            sample_scenarios(1, 0)

    def test_utilization_scales_the_access_budget(self):
        sampled = sample_scenarios(11, 16)
        budgets = {family.spec.total_accesses for family in sampled}
        assert len(budgets) > 1  # utilization/threads actually bite
        assert all(b >= 256 for b in budgets)
        assert all(
            family.spec.total_accesses <= DEFAULT_FAMILY_ACCESSES
            for family in sampled
        )


# ----------------------------------------------------------------------
# Registry determinism (satellite: cross-process name ordering)
# ----------------------------------------------------------------------
class TestRegistryDeterminism:
    @pytest.fixture
    def sampled(self):
        sampled = sample_scenarios(21, 4)
        yield sampled
        sampled.unregister()

    def test_dynamic_resolution_does_not_mutate_the_registry(self, sampled):
        before = registry.all_benchmark_names()
        spec = registry.build_spec(sampled.names[0], total_accesses=1000)
        assert spec.name == sampled.names[0]
        assert registry.is_registered(sampled.names[0])
        assert registry.all_benchmark_names() == before
        assert sampled.names[0] not in before

    def test_registration_order_does_not_change_the_name_set(self, sampled):
        for family in reversed(list(sampled)):
            registry.register(family.name, family.builder)
        reversed_order = registry.all_benchmark_names()
        sampled.unregister()
        sampled.register()
        assert registry.all_benchmark_names() == reversed_order
        assert set(sampled.names) <= set(reversed_order)

    def test_register_is_idempotent(self, sampled):
        sampled.register()
        sampled.register()  # second call must not raise "already registered"
        assert set(sampled.names) <= set(registry.all_benchmark_names())

    def test_explicit_registration_wins_over_dynamic(self, sampled):
        name = sampled.names[0]
        pinned = build_family_spec(21, 0, total_accesses=123, seed=7)
        registry.register(name, lambda **kwargs: pinned)
        try:
            assert registry.build_spec(name) == pinned
        finally:
            registry.unregister(name)
        assert registry.build_spec(name, total_accesses=123, seed=7) == pinned

    def test_two_processes_agree_on_the_name_set(self):
        # Satellite 2's cross-process pin: a sweep worker and a serve
        # shard that register the same sampled set in opposite orders
        # must print the identical all_benchmark_names() list.
        script = (
            "import json, sys\n"
            "from repro.workloads import registry\n"
            "from repro.workloads.generator import sample_scenarios\n"
            "families = list(sample_scenarios(33, 5))\n"
            "if sys.argv[1] == 'reversed':\n"
            "    families.reverse()\n"
            "for family in families:\n"
            "    registry.register(family.name, family.builder)\n"
            "print(json.dumps(registry.all_benchmark_names()))\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        outputs = []
        for order in ("forward", "reversed"):
            result = subprocess.run(
                [sys.executable, "-c", script, order],
                capture_output=True, text=True, env=env, check=True,
            )
            outputs.append(json.loads(result.stdout))
        assert outputs[0] == outputs[1]
        assert "scenario-33-0" in outputs[0]


# ----------------------------------------------------------------------
# Plans and end-to-end acceptance
# ----------------------------------------------------------------------
class TestScenarioPlan:
    def test_plan_covers_the_full_grid(self):
        plan = scenario_plan(TINY, generator_seed=11, count=3)
        assert plan.name == "scenarios"
        assert len(plan) == 3 * 2 * 2  # families x policies x pf sizes
        assert all(spec.benchmark.startswith("scenario-") for spec in plan)

    def test_env_overrides_steer_sampling(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCENARIO_SEED", "77")
        monkeypatch.setenv("REPRO_SCENARIO_COUNT", "2")
        plan = scenario_plan(TINY)
        assert sorted({spec.benchmark for spec in plan}) == [
            "scenario-77-0", "scenario-77-1",
        ]

    def test_explicit_benchmarks_bypass_sampling(self):
        plan = scenario_plan(TINY, benchmarks=["scenario-11-0"], pf_sizes=(1024,),
                             policies=("allarm",))
        assert [spec.benchmark for spec in plan] == ["scenario-11-0"]


class TestAcceptanceRoundTrip:
    """>=8 sampled families through sweep + cache + serve, bit-identical
    across three feeds: reference, packed fed records, and packed fed
    chunks (replayed from recorded v3 blocked traces)."""

    SETTINGS = ExperimentSettings(
        scale=16, accesses=2500, multiprocess_accesses=1200, seed=1
    )

    def specs(self, names, engine):
        return [
            RunSpec(name, "allarm", settings=self.SETTINGS, engine=engine)
            for name in names
        ]

    def test_three_engines_bit_identical_through_the_cache(self, tmp_path):
        names = sample_scenarios(11, 8).names
        executor = SweepExecutor(cache_dir=tmp_path / "cache")
        digests = {}
        for engine in ("reference", "packed"):
            for spec in self.specs(names, engine):
                snapshot = executor.run(spec)
                digests.setdefault(spec.benchmark, []).append(snapshot)
        chunked = SweepExecutor(trace_dir=tmp_path / "traces", record_traces=True)
        for spec in self.specs(names, "packed"):
            digests[spec.benchmark].append(chunked.run(spec))
        assert len(list((tmp_path / "traces").glob("*.rpt3"))) == len(names)
        for name, snapshots in digests.items():
            for other in snapshots[1:]:
                assert snapshot_diff(snapshots[0], other) == [], name

        # A fresh executor over the same cache dir resolves every spec
        # from disk: generated families hit the cache like any other.
        rebuilt = SweepExecutor(cache_dir=tmp_path / "cache")
        for spec in self.specs(names, "packed"):
            cached = rebuilt.lookup(spec)
            assert cached is not None and cached[1] == "disk"
            assert snapshot_diff(digests[spec.benchmark][0], cached[0]) == []

    def test_pool_workers_rebuild_streams_from_names(self, tmp_path):
        # Satellite 2's execution half: pool workers receive only the
        # spec (with its scenario- name) and must rebuild the identical
        # stream via dynamic resolution — no registration hand-off.
        plan = scenario_plan(
            self.SETTINGS, generator_seed=11, count=2,
            pf_sizes=(512 * 1024,), policies=("allarm",),
        )
        inline = SweepExecutor().run_plan(plan)
        pooled = SweepExecutor(workers=2).run_plan(plan)
        assert inline.ok and pooled.ok
        for mine, theirs in zip(inline.results, pooled.results):
            assert mine.spec == theirs.spec
            assert_snapshots_identical(
                mine.snapshot, theirs.snapshot, context=mine.spec.benchmark
            )

    def test_serve_round_trip_matches_direct_execution(self, tmp_path):
        from repro.serve import BackgroundServer, ServeClient, SweepServer
        from repro.serve.protocol import spec_from_wire, spec_to_wire
        from repro.stats.snapshot import MachineSnapshot

        spec = RunSpec("scenario-11-0", "allarm", settings=self.SETTINGS)
        assert spec_from_wire(spec_to_wire(spec)) == spec

        direct = SweepExecutor().run(spec)
        instance = SweepServer(
            executor=SweepExecutor(cache_dir=tmp_path / "cache"), parallel=2
        )
        with BackgroundServer(instance):
            with ServeClient(instance.host, instance.port) as client:
                cold = client.run(spec)
                warm = client.run(spec)
        assert cold.source == "executed"
        assert warm.source == "memory"
        rebuilt = MachineSnapshot.from_dict(cold.snapshot)
        assert snapshot_diff(direct, rebuilt) == []

    def test_resampled_set_reproduces_snapshot_digests(self, tmp_path):
        # The manifest claim, end to end: same generator seed, two
        # independent samplings, identical snapshot digests.
        from repro.analysis.executor import _snapshot_digest

        digests = []
        for _ in range(2):
            names = sample_scenarios(11, 2).names
            batch = {}
            for spec in self.specs(names, "packed"):
                snapshot = SweepExecutor().run(spec)
                batch[spec.benchmark] = _snapshot_digest(snapshot.to_dict())
            digests.append(batch)
        assert digests[0] == digests[1]
