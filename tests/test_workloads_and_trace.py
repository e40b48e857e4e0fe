"""Tests for trace records/IO and the synthetic workload generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.trace.io import count_records, read_trace, write_trace
from repro.trace.record import AccessRecord, AccessType
from repro.workloads.base import (
    PAGE_SIZE,
    RegionSpec,
    SyntheticWorkload,
    WorkloadSpec,
    interleave,
    materialize,
)
from repro.workloads import microbench
from repro.workloads.multiprocess import build_multiprocess_spec, generate_multiprocess
from repro.workloads.registry import (
    MICROBENCH_FAMILIES,
    MULTIPROCESS_BENCHMARKS,
    PAPER_BENCHMARKS,
    all_benchmark_names,
    benchmark_names,
    build_spec,
    build_workload,
    is_registered,
    register,
    unregister,
)


class TestAccessRecord:
    def test_round_trip_text_format(self):
        record = AccessRecord(core=5, vaddr=0xDEADBEEF, access_type=AccessType.WRITE, process_id=1)
        parsed = AccessRecord.from_line(record.to_line())
        assert parsed == record

    def test_flags(self):
        assert AccessRecord(0, 0, AccessType.WRITE).is_write
        assert AccessRecord(0, 0, AccessType.INSTRUCTION).is_instruction
        assert not AccessRecord(0, 0, AccessType.READ).is_write

    def test_invalid_fields_rejected(self):
        with pytest.raises(WorkloadError):
            AccessRecord(core=-1, vaddr=0, access_type=AccessType.READ)
        with pytest.raises(WorkloadError):
            AccessRecord(core=0, vaddr=-5, access_type=AccessType.READ)

    def test_malformed_lines_rejected(self):
        with pytest.raises(WorkloadError):
            AccessRecord.from_line("1 2 R")
        with pytest.raises(WorkloadError):
            AccessRecord.from_line("1 2 Q 0x40")
        with pytest.raises(WorkloadError):
            AccessRecord.from_line("a b R 0x40")


class TestTraceIo:
    def test_write_and_read(self, tmp_path):
        records = [
            AccessRecord(core=i % 4, vaddr=i * 64, access_type=AccessType.READ)
            for i in range(50)
        ]
        path = tmp_path / "trace.rpt3"
        written = write_trace(path, records)
        assert written == 50
        assert count_records(path) == 50
        assert list(read_trace(path)) == records

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError):
            list(read_trace(tmp_path / "nope.txt"))

    def test_malformed_file_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 1 R 0x40\nnot a record\n")
        with pytest.raises(WorkloadError, match="bad.txt:3"):
            list(read_trace(path))


class TestSpecs:
    def test_registry_contains_paper_suite(self):
        assert benchmark_names() == PAPER_BENCHMARKS
        assert len(PAPER_BENCHMARKS) == 8
        for name in PAPER_BENCHMARKS:
            assert is_registered(name)
        assert set(MULTIPROCESS_BENCHMARKS) <= set(PAPER_BENCHMARKS)

    def test_unknown_benchmark(self):
        with pytest.raises(WorkloadError):
            build_spec("linpack")

    def test_microbench_families_registered(self):
        assert len(MICROBENCH_FAMILIES) == 4
        for name in MICROBENCH_FAMILIES:
            assert is_registered(name)
            assert build_spec(name).name == name
        assert all_benchmark_names() == PAPER_BENCHMARKS + sorted(MICROBENCH_FAMILIES)
        # The paper-facing list stays exactly the paper's eight.
        assert benchmark_names() == PAPER_BENCHMARKS

    def test_microbench_register_unregister_round_trip(self):
        builders = {
            "false-sharing": microbench.false_sharing,
            "migratory": microbench.migratory,
            "stream-scan": microbench.stream_scan,
            "hotspot": microbench.hotspot,
        }
        for name in MICROBENCH_FAMILIES:
            try:
                unregister(name)
                assert not is_registered(name)
                register(name, builders[name])
                assert is_registered(name)
            finally:
                # Restore even if an assert fired mid-way.
                if not is_registered(name):
                    register(name, builders[name])
            assert build_spec(name).name == name

    def test_register_and_unregister_custom(self):
        def custom(total_accesses=1000, seed=0):
            return build_spec("barnes", total_accesses=total_accesses, seed=seed)

        register("custom-bench", custom)
        assert is_registered("custom-bench")
        with pytest.raises(WorkloadError):
            register("custom-bench", custom)
        unregister("custom-bench")
        assert not is_registered("custom-bench")
        with pytest.raises(WorkloadError):
            unregister("barnes")

    def test_spec_validation(self):
        region = RegionSpec(name="r", kind="private", bytes_per_instance=8192)
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="bad", regions=(region,), mix={"missing": 1.0})
        with pytest.raises(WorkloadError):
            WorkloadSpec(name="bad", regions=(region, region), mix={"r": 1.0})
        with pytest.raises(WorkloadError):
            RegionSpec(name="r", kind="weird", bytes_per_instance=8192)
        with pytest.raises(WorkloadError):
            RegionSpec(name="r", kind="shared", bytes_per_instance=8192, sharing="mesh")
        with pytest.raises(WorkloadError):
            RegionSpec(name="r", kind="private", bytes_per_instance=100)

    def test_footprint_scaling_preserves_page_multiple(self):
        spec = build_spec("barnes").with_footprint_scale(16)
        for region in spec.regions:
            assert region.bytes_per_instance >= PAGE_SIZE
            assert region.bytes_per_instance % PAGE_SIZE == 0

    def test_scaled_accesses(self):
        spec = build_spec("barnes", total_accesses=100_000).scaled(0.1)
        assert spec.total_accesses == 10_000

    def test_with_threads_and_process(self):
        spec = build_spec("cholesky").with_threads(1, core_offset=8).with_process(2)
        assert spec.thread_count == 1
        assert spec.core_offset == 8
        assert spec.process_id == 2


class TestGeneration:
    def small_spec(self, name="barnes", accesses=4000):
        return build_spec(name, total_accesses=accesses).with_footprint_scale(32)

    def test_deterministic_for_seed(self):
        first = materialize(self.small_spec())
        second = materialize(self.small_spec())
        assert first == second

    def test_different_seed_differs(self):
        a = materialize(build_spec("barnes", total_accesses=2000, seed=1).with_footprint_scale(32))
        b = materialize(build_spec("barnes", total_accesses=2000, seed=2).with_footprint_scale(32))
        assert a != b

    def test_access_count_estimate(self):
        spec = self.small_spec()
        workload = SyntheticWorkload(spec)
        records = list(workload.generate())
        assert len(records) == workload.access_count_estimate()

    def test_all_cores_participate(self):
        records = materialize(self.small_spec())
        cores = {record.core for record in records}
        assert cores == set(range(16))

    def test_single_thread_uses_core_offset(self):
        spec = self.small_spec().with_threads(1, core_offset=9)
        records = materialize(spec)
        assert {record.core for record in records} == {9}

    def test_private_regions_only_touched_by_owner(self):
        spec = self.small_spec("cholesky", accesses=3000)
        workload = SyntheticWorkload(spec)
        private_ranges = {}
        for name, instances in workload._instances.items():
            for inst in instances:
                if inst.spec.kind == "private":
                    private_ranges[(inst.base_vaddr, inst.base_vaddr + inst.size_bytes)] = (
                        inst.owner_thread
                    )
        for record in workload.generate():
            for (start, end), owner in private_ranges.items():
                if start <= record.vaddr < end:
                    assert record.core == owner

    def test_producer_region_first_touched_by_thread_zero(self):
        spec = build_spec("blackscholes", total_accesses=2000).with_footprint_scale(32)
        workload = SyntheticWorkload(spec)
        portfolio = workload._instances["portfolio"][0]
        init_records = list(workload._init_phase())
        touched = {
            record.core
            for record in init_records
            if portfolio.base_vaddr <= record.vaddr < portfolio.base_vaddr + portfolio.size_bytes
        }
        assert touched == {0}

    def test_producer_region_only_written_by_thread_zero(self):
        # Regression: _pick_instance_and_chunk used to mark producer
        # regions owned=True for every thread, letting all threads write
        # data the model documents as init-by-thread-0 then read-shared.
        spec = build_spec("blackscholes", total_accesses=8000).with_footprint_scale(32)
        workload = SyntheticWorkload(spec)
        portfolio = workload._instances["portfolio"][0]
        start, end = portfolio.base_vaddr, portfolio.base_vaddr + portfolio.size_bytes
        readers, writers = set(), set()
        for record in workload._compute_phase():
            if start <= record.vaddr < end:
                (writers if record.is_write else readers).add(record.core)
        assert writers <= {0}
        assert len(readers) > 1  # still read-shared by the other threads

    def test_migratory_region_written_by_rotating_holders(self):
        spec = build_spec("migratory", total_accesses=6000).with_footprint_scale(4)
        workload = SyntheticWorkload(spec)
        guarded = workload._instances["guarded"][0]
        start, end = guarded.base_vaddr, guarded.base_vaddr + guarded.size_bytes
        writers = {
            record.core
            for record in workload._compute_phase()
            if start <= record.vaddr < end and record.is_write
        }
        # Ownership migrates: over a long run every thread gets to write.
        assert writers == set(range(spec.thread_count))

    def test_migratory_writes_come_in_single_holder_bursts(self):
        # Between handoffs only the current holder writes: the sequence
        # of writing cores must advance in rotation, never ping-pong.
        spec = build_spec("migratory", total_accesses=6000).with_footprint_scale(4)
        workload = SyntheticWorkload(spec)
        for region_name in ("locks", "guarded"):
            inst = workload._instances[region_name][0]
            start, end = inst.base_vaddr, inst.base_vaddr + inst.size_bytes
            write_cores = [
                record.core
                for record in SyntheticWorkload(spec)._compute_phase()
                if start <= record.vaddr < end and record.is_write
            ]
            transitions = [
                (a, b) for a, b in zip(write_cores, write_cores[1:]) if a != b
            ]
            assert transitions, f"{region_name}: expected an ownership handoff"
            for a, b in transitions:
                # Ownership only rotates forward.  A holder occasionally
                # finishes a burst without writing (write_fraction < 1),
                # so allow a few skipped holders — but never the backward
                # jumps a write ping-pong between two threads would show.
                assert (b - a) % spec.thread_count <= 3, (region_name, a, b)

    def test_footprint_reported(self):
        workload = build_workload("barnes", total_accesses=1000)
        assert workload.footprint_bytes() > 0

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=1000, max_value=4000))
    def test_compute_phase_access_count_exact(self, threads, accesses):
        spec = build_spec("dedup", total_accesses=accesses).with_footprint_scale(64)
        spec = spec.with_threads(threads)
        workload = SyntheticWorkload(spec)
        compute = list(workload._compute_phase())
        assert len(compute) == accesses
        assert {record.core for record in compute} <= set(range(threads))


class TestMultiProcess:
    def test_spec_builds_two_distinct_copies(self):
        mp = build_multiprocess_spec("barnes", total_accesses_per_copy=2000)
        assert mp.name == "barnes-2p"
        assert len(mp.copies) == 2
        assert mp.copies[0].process_id != mp.copies[1].process_id
        assert mp.copies[0].core_offset != mp.copies[1].core_offset
        assert all(copy.thread_count == 1 for copy in mp.copies)

    def test_rejects_non_study_benchmarks(self):
        with pytest.raises(WorkloadError):
            build_multiprocess_spec("blackscholes")
        with pytest.raises(WorkloadError):
            build_multiprocess_spec("barnes", cores=(3, 3))

    def test_generated_stream_interleaves_processes(self):
        mp = build_multiprocess_spec("cholesky", total_accesses_per_copy=1500)
        records = list(generate_multiprocess(mp))
        processes = {record.process_id for record in records}
        assert processes == {0, 1}
        cores = {record.core for record in records}
        assert cores == {0, 8}

    def test_interleave_helper_exhausts_all_streams(self):
        a = iter([1, 2, 3])
        b = iter([10])
        assert list(interleave([a, b])) == [1, 10, 2, 3]
