"""Round-trip, determinism and error-context tests for binary traces (v2+v3)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.errors import WorkloadError
from repro.trace import (
    FORMAT_BINARY,
    FORMAT_BLOCKED,
    FORMAT_TEXT,
    AccessChunk,
    BinaryTraceWriter,
    BlockedTraceWriter,
    count_records,
    inspect_trace,
    read_trace,
    read_trace_chunks,
    read_trace_native,
    read_trace_v3,
    read_trace_v3_chunks,
    sniff_format,
    write_trace,
    write_trace_v2,
    write_trace_v3,
)
from repro.trace.binary import (
    HEADER_SIZE,
    read_trace_v2,
    stored_record_count,
    v3_block_stats,
    v3_epoch_index,
)
from repro.trace import binary as trace_binary
from repro.trace.record import AccessRecord, AccessType
from repro.workloads.base import SyntheticWorkload
from repro.workloads.multiprocess import build_multiprocess_spec, generate_multiprocess
from repro.workloads.registry import build_spec

TINY = ExperimentSettings(scale=16, accesses=1500, multiprocess_accesses=800)


def workload_records(name="barnes", accesses=3000):
    spec = build_spec(name, total_accesses=accesses).with_footprint_scale(32)
    return list(SyntheticWorkload(spec).generate())


#: Arbitrary records: adversarial cores/addresses, not just generator output.
record_strategy = st.builds(
    AccessRecord,
    core=st.integers(min_value=0, max_value=1 << 20),
    vaddr=st.integers(min_value=0, max_value=(1 << 52) - 1),
    access_type=st.sampled_from(list(AccessType)),
    process_id=st.integers(min_value=0, max_value=1 << 10),
)


class TestFormatSniffing:
    def test_sniffs_both_formats(self, tmp_path):
        records = workload_records(accesses=500)
        text = tmp_path / "t.txt"
        binary = tmp_path / "t.rpt2"
        write_trace(text, records)
        write_trace(binary, records, format=FORMAT_BINARY)
        assert sniff_format(text) == FORMAT_TEXT
        assert sniff_format(binary) == FORMAT_BINARY

    def test_read_trace_dispatches_transparently(self, tmp_path):
        records = workload_records(accesses=500)
        text = tmp_path / "t.txt"
        binary = tmp_path / "t.rpt2"
        write_trace(text, records)
        write_trace(binary, records, format=FORMAT_BINARY)
        assert list(read_trace(text)) == records
        assert list(read_trace(binary)) == records

    def test_empty_file_is_text(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        assert sniff_format(path) == FORMAT_TEXT
        assert list(read_trace(path)) == []

    def test_unknown_write_format_rejected(self, tmp_path):
        with pytest.raises(WorkloadError, match="unknown trace format"):
            write_trace(tmp_path / "t", [], format="parquet")

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="does not exist"):
            sniff_format(tmp_path / "nope")


class TestBinaryRoundTrip:
    def test_workload_stream_round_trips(self, tmp_path):
        records = workload_records()
        path = tmp_path / "t.rpt2"
        written = write_trace_v2(path, records)
        assert written == len(records)
        assert list(read_trace_v2(path)) == records

    def test_text_and_binary_decode_identically(self, tmp_path):
        records = workload_records("dedup")
        text = tmp_path / "t.txt"
        binary = tmp_path / "t.rpt2"
        write_trace(text, records)
        write_trace(binary, records, format=FORMAT_BINARY)
        assert list(read_trace(text)) == list(read_trace(binary))

    def test_multiprocess_stream_round_trips(self, tmp_path):
        mp = build_multiprocess_spec("cholesky", total_accesses_per_copy=1000)
        records = list(generate_multiprocess(mp))
        path = tmp_path / "mp.rpt2"
        write_trace_v2(path, records)
        assert list(read_trace_v2(path)) == records

    def test_write_is_deterministic(self, tmp_path):
        records = workload_records(accesses=1000)
        a, b = tmp_path / "a.rpt2", tmp_path / "b.rpt2"
        write_trace_v2(a, records)
        write_trace_v2(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_binary_is_smaller_than_text(self, tmp_path):
        records = workload_records(accesses=2000)
        text, binary = tmp_path / "t.txt", tmp_path / "t.rpt2"
        write_trace(text, records)
        write_trace(binary, records, format=FORMAT_BINARY)
        assert binary.stat().st_size * 4 < text.stat().st_size

    @settings(max_examples=30, deadline=None)
    @given(records=st.lists(record_strategy, max_size=60))
    def test_arbitrary_records_round_trip(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("hyp") / "t.rpt2"
        write_trace_v2(path, records)
        assert list(read_trace_v2(path)) == records

    def test_streaming_writer_counts_and_patches_header(self, tmp_path):
        records = workload_records(accesses=500)
        path = tmp_path / "t.rpt2"
        with BinaryTraceWriter(path) as writer:
            for record in records:
                writer.write(record)
            assert writer.record_count == len(records)
        assert stored_record_count(path) == len(records)
        assert count_records(path) == len(records)

    def test_count_records_is_o1_for_closed_binary(self, tmp_path):
        records = workload_records(accesses=500)
        path = tmp_path / "t.rpt2"
        write_trace_v2(path, records)
        # Corrupt everything after the header: an O(1) count never sees it.
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE:] = b"\xff" * 4
        path.write_bytes(bytes(data))
        assert count_records(path) == len(records)


class TestBinaryErrors:
    def make_trace(self, tmp_path, records=None):
        path = tmp_path / "t.rpt2"
        write_trace_v2(path, records if records is not None else workload_records(accesses=200))
        return path

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.rpt2"
        path.write_bytes(b"\x89RPT9\r\n\x1a" + b"\x00" * 8)
        with pytest.raises(WorkloadError, match="bad magic"):
            list(read_trace_v2(path))

    def test_truncated_file_names_record_and_offset(self, tmp_path):
        path = self.make_trace(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 1])
        with pytest.raises(WorkloadError, match=r"record \d+ at byte \d+.*truncated"):
            list(read_trace_v2(path))

    def test_invalid_type_code_names_record_and_offset(self, tmp_path):
        path = self.make_trace(tmp_path)
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE] |= 0x03  # access-type code 3 is reserved
        path.write_bytes(bytes(data))
        with pytest.raises(WorkloadError, match="record 0 at byte 16.*type"):
            list(read_trace_v2(path))

    def test_header_count_mismatch_detected(self, tmp_path):
        path = self.make_trace(tmp_path)
        data = bytearray(path.read_bytes())
        # Lie about the record count.
        data[8:16] = (5).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(WorkloadError, match="promises 5 records"):
            list(read_trace_v2(path))

    def test_text_errors_still_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 1 R 0x40\nnot a record\n")
        with pytest.raises(WorkloadError, match="bad.txt:3"):
            list(read_trace(path))


class TestReplayVsGenerate:
    """Replaying a recorded trace must be bit-identical to generating."""

    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_snapshots_bit_identical(self, tmp_path, policy):
        from repro.analysis.executor import execute_run_spec, record_spec_trace

        spec = RunSpec("barnes", policy, settings=TINY)
        path = tmp_path / "barnes.rpt2"
        record_spec_trace(spec, path)
        generated = execute_run_spec(spec)
        replayed = execute_run_spec(spec.with_trace(path))
        assert replayed.to_dict() == generated.to_dict()

    def test_multiprocess_snapshot_bit_identical(self, tmp_path):
        from repro.analysis.executor import execute_run_spec, record_spec_trace

        spec = RunSpec("barnes", "allarm", layout="2p", settings=TINY)
        path = tmp_path / "barnes-2p.rpt2"
        record_spec_trace(spec, path)
        assert (
            execute_run_spec(spec.with_trace(path)).to_dict()
            == execute_run_spec(spec).to_dict()
        )

    def test_executor_trace_dir_serves_sweep(self, tmp_path):
        from repro.analysis.executor import (
            SOURCE_REPLAYED,
            SweepExecutor,
        )
        from repro.analysis.plan import figure3_plan

        plan = figure3_plan(TINY, benchmarks=["barnes"])
        recorded = SweepExecutor(
            trace_dir=tmp_path / "traces", record_traces=True
        ).run_plan(plan)
        assert all(r.source == SOURCE_REPLAYED for r in recorded.results)
        # One trace file serves both policies of the same workload stream.
        assert len(list((tmp_path / "traces").glob("*.rpt2"))) == 1
        generated = SweepExecutor().run_plan(plan)
        for left, right in zip(recorded.results, generated.results):
            assert left.spec == right.spec
            assert left.snapshot.to_dict() == right.snapshot.to_dict()

    def test_batched_sweep_records_blocked_traces(self, tmp_path):
        """A batched sweep — ``trace_format="blocked"``, so every run
        replays chunk-fed through the chunk kernel — records only v3
        traces and replays them bit-identically."""
        from repro.analysis.executor import SOURCE_REPLAYED, SweepExecutor
        from repro.analysis.plan import figure3_plan

        plan = figure3_plan(TINY, benchmarks=["barnes"])
        trace_dir = tmp_path / "traces"
        recorded = SweepExecutor(
            trace_dir=trace_dir, record_traces=True, trace_format="blocked"
        ).run_plan(plan)
        assert all(r.source == SOURCE_REPLAYED for r in recorded.results)
        assert list(trace_dir.glob("*.rpt2")) == []
        blocked = list(trace_dir.glob("*.rpt3"))
        assert len(blocked) == 1
        assert sniff_format(blocked[0]) == FORMAT_BLOCKED
        generated = SweepExecutor().run_plan(plan)
        for left, right in zip(recorded.results, generated.results):
            assert left.snapshot.to_dict() == right.snapshot.to_dict()

    def test_trace_format_override_and_defaults(self, tmp_path):
        from repro.analysis.executor import SweepExecutor, trace_file_name
        from repro.errors import ConfigurationError

        spec = RunSpec("barnes", "allarm", settings=TINY)
        assert SweepExecutor().trace_format == "binary"
        assert SweepExecutor(trace_format="blocked").trace_format == "blocked"
        assert trace_file_name(spec).endswith(".rpt2")
        assert trace_file_name(spec, format="blocked").endswith(".rpt3")
        with pytest.raises(ConfigurationError, match="trace format"):
            SweepExecutor(trace_format="parquet")
        with pytest.raises(ConfigurationError, match="trace format"):
            trace_file_name(spec, format="parquet")

    def test_record_guards_against_suffix_format_mismatch(self, tmp_path):
        from repro.analysis.executor import record_spec_trace
        from repro.errors import ConfigurationError

        spec = RunSpec("barnes", "allarm", settings=TINY)
        with pytest.raises(ConfigurationError, match="suffix"):
            record_spec_trace(spec, tmp_path / "t.rpt2", format="blocked")
        with pytest.raises(ConfigurationError, match="suffix"):
            record_spec_trace(spec, tmp_path / "t.rpt3", format="binary")

    def test_trace_source_changes_cache_identity(self, tmp_path):
        spec = RunSpec("barnes", "allarm", settings=TINY)
        traced = spec.with_trace(tmp_path / "t.rpt2")
        assert traced.digest() != spec.digest()
        assert traced.stream_digest() == spec.stream_digest()

    def test_executor_trace_dir_serves_blocked_recordings(self, tmp_path):
        """A `trace record --format blocked` directory must serve sweeps."""
        from repro.analysis.executor import (
            SOURCE_REPLAYED,
            SweepExecutor,
            record_spec_trace,
            trace_file_name,
        )
        from repro.analysis.plan import figure3_plan

        plan = figure3_plan(TINY, benchmarks=["barnes"])
        trace_dir = tmp_path / "traces"
        trace_dir.mkdir()
        for spec in plan.specs:
            path = (trace_dir / trace_file_name(spec)).with_suffix(".rpt3")
            if not path.exists():
                record_spec_trace(spec, path, format="blocked")
        assert list(trace_dir.glob("*.rpt2")) == []
        replayed = SweepExecutor(trace_dir=trace_dir).run_plan(plan)
        assert all(r.source == SOURCE_REPLAYED for r in replayed.results)
        generated = SweepExecutor().run_plan(plan)
        for left, right in zip(replayed.results, generated.results):
            assert left.spec == right.spec
            assert left.snapshot.to_dict() == right.snapshot.to_dict()


#: Records a v3 trace can hold: cores and pids are stored as one byte.
blocked_record_strategy = st.builds(
    AccessRecord,
    core=st.integers(min_value=0, max_value=255),
    vaddr=st.integers(min_value=0, max_value=(1 << 52) - 1),
    access_type=st.sampled_from(list(AccessType)),
    process_id=st.integers(min_value=0, max_value=255),
)


class TestBlockedV3RoundTrip:
    def test_workload_stream_round_trips(self, tmp_path):
        records = workload_records()
        path = tmp_path / "t.rpt3"
        written = write_trace_v3(path, records)
        assert written == len(records)
        assert list(read_trace_v3(path)) == records
        assert sniff_format(path) == FORMAT_BLOCKED
        assert list(read_trace(path)) == records  # transparent dispatch
        assert count_records(path) == len(records)

    def test_multiblock_layout_and_chunk_decode(self, tmp_path):
        records = workload_records(accesses=1000)
        path = tmp_path / "t.rpt3"
        write_trace_v3(path, records, block_records=256)
        chunks = list(read_trace_v3_chunks(path))
        expected_blocks = -(-len(records) // 256)
        full, tail = divmod(len(records), 256)
        assert [len(c) for c in chunks] == [256] * full + ([tail] if tail else [])
        back = [r for c in chunks for r in c.records()]
        assert back == records
        stats = v3_block_stats(path)
        assert stats["blocks"] == expected_blocks
        assert stats["max_block_records"] == 256
        assert stats["records_per_block"] == pytest.approx(
            len(records) / expected_blocks
        )

    def test_read_trace_chunks_dispatches_all_formats(self, tmp_path):
        records = workload_records(accesses=600)
        blocked = tmp_path / "t.rpt3"
        binary = tmp_path / "t.rpt2"
        write_trace_v3(blocked, records, block_records=128)
        write_trace_v2(binary, records)
        for path in (blocked, binary):
            back = [r for c in read_trace_chunks(path) for r in c.records()]
            assert back == records

    def test_read_trace_native_yields_the_stored_shape(self, tmp_path):
        records = workload_records(accesses=300)
        blocked, binary = tmp_path / "t.rpt3", tmp_path / "t.rpt2"
        write_trace_v3(blocked, records, block_records=128)
        write_trace_v2(binary, records)
        chunks = list(read_trace_native(blocked))
        assert all(isinstance(c, AccessChunk) for c in chunks)
        assert [r for c in chunks for r in c.records()] == records
        assert list(read_trace_native(binary)) == records

    def test_fallback_decoder_matches_numpy_decoder(self, tmp_path, monkeypatch):
        records = workload_records(accesses=700)
        path = tmp_path / "t.rpt3"
        write_trace_v3(path, records, block_records=128)
        fast = [r for c in read_trace_v3_chunks(path) for r in c.records()]
        monkeypatch.setattr(trace_binary, "_require_numpy", lambda: None)
        slow = [r for c in read_trace_v3_chunks(path) for r in c.records()]
        assert fast == slow == records

    def test_write_is_deterministic(self, tmp_path):
        records = workload_records(accesses=1000)
        a, b = tmp_path / "a.rpt3", tmp_path / "b.rpt3"
        write_trace_v3(a, records)
        write_trace_v3(b, records)
        assert a.read_bytes() == b.read_bytes()

    def test_streaming_writer_counts_and_patches_header(self, tmp_path):
        records = workload_records(accesses=500)
        path = tmp_path / "t.rpt3"
        with BlockedTraceWriter(path, block_records=64) as writer:
            for record in records:
                writer.write(record)
            assert writer.record_count == len(records)
        assert stored_record_count(path) == len(records)
        assert list(read_trace_v3(path)) == records

    @settings(max_examples=30, deadline=None)
    @given(records=st.lists(blocked_record_strategy, max_size=60))
    def test_arbitrary_records_round_trip(self, records, tmp_path_factory):
        path = tmp_path_factory.mktemp("hyp3") / "t.rpt3"
        write_trace_v3(path, records, block_records=7)
        assert list(read_trace_v3(path)) == records

    def test_empty_stream_round_trips(self, tmp_path):
        path = tmp_path / "empty.rpt3"
        assert write_trace_v3(path, []) == 0
        assert list(read_trace_v3(path)) == []
        assert count_records(path) == 0


class TestBlockedV3Errors:
    def make_trace(self, tmp_path, block_records=64):
        path = tmp_path / "t.rpt3"
        write_trace_v3(
            path, workload_records(accesses=200), block_records=block_records
        )
        return path

    def test_writer_rejects_wide_core_and_pid(self, tmp_path):
        wide_core = AccessRecord(
            core=256, vaddr=64, access_type=AccessType.READ, process_id=0
        )
        with pytest.raises(WorkloadError, match="core"):
            write_trace_v3(tmp_path / "t.rpt3", [wide_core])
        wide_pid = AccessRecord(
            core=0, vaddr=64, access_type=AccessType.READ, process_id=999
        )
        with pytest.raises(WorkloadError, match="process"):
            write_trace_v3(tmp_path / "t2.rpt3", [wide_pid])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "t.rpt3"
        path.write_bytes(b"\x89RPT9\r\n\x1a" + b"\x00" * 8)
        with pytest.raises(WorkloadError, match="bad magic"):
            list(read_trace_v3(path))

    def test_truncated_block_body_names_block_and_offset(self, tmp_path):
        path = self.make_trace(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 9])
        with pytest.raises(WorkloadError, match=r"block \d+ at byte \d+.*truncated"):
            list(read_trace_v3(path))

    @pytest.mark.parametrize("numpy_enabled", [True, False])
    def test_invalid_type_code_rejected_by_both_decoders(
        self, tmp_path, monkeypatch, numpy_enabled
    ):
        path = self.make_trace(tmp_path, block_records=200)
        data = bytearray(path.read_bytes())
        # Corrupt the first record's type byte (addrs: 8n, cores/pids: 2n).
        type_column = HEADER_SIZE + 8 + 8 * 200 + 2 * 200
        data[type_column] = 7
        path.write_bytes(bytes(data))
        if not numpy_enabled:
            monkeypatch.setattr(trace_binary, "_require_numpy", lambda: None)
        with pytest.raises(WorkloadError, match="invalid access-type"):
            list(read_trace_v3(path))

    def test_header_count_mismatch_detected(self, tmp_path):
        path = self.make_trace(tmp_path)
        data = bytearray(path.read_bytes())
        data[8:16] = (5).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(WorkloadError, match="promises 5 records"):
            list(read_trace_v3(path))


class TestEpochIndexV31:
    """v3.1 seekable epoch footer: round-trip, seeking, corruption."""

    BLOCK = 64
    EPOCH = 128

    def _write(self, tmp_path, accesses=1000):
        records = workload_records(accesses=accesses)
        path = tmp_path / "t.rpt3"
        write_trace_v3(
            path, records, block_records=self.BLOCK, epoch_records=self.EPOCH
        )
        return path, records

    def test_indexed_trace_round_trips_with_index_intact(self, tmp_path):
        path, records = self._write(tmp_path)
        epochs = -(-len(records) // self.EPOCH)
        assert list(read_trace_v3(path)) == records
        assert list(read_trace(path)) == records
        assert count_records(path) == len(records)
        index = v3_epoch_index(path)
        assert index["epoch_records"] == self.EPOCH
        assert len(index["entries"]) == epochs
        assert sum(n for _, n in index["entries"]) == len(records)
        info = inspect_trace(path)
        assert info.epochs == epochs
        assert info.epoch_records == self.EPOCH

    def test_epoch_slices_partition_the_stream(self, tmp_path):
        path, records = self._write(tmp_path)
        epochs = -(-len(records) // self.EPOCH)
        # Every start epoch seeks to exactly the stream's suffix from
        # there, so consecutive suffixes differ by one whole epoch.
        for k in range(epochs):
            chunks = list(read_trace_v3_chunks(path, start_epoch=k))
            fed = [r for chunk in chunks for r in chunk.records()]
            assert fed == records[k * self.EPOCH :]
        # The empty suffix at the end is legal and empty.
        assert list(read_trace_v3_chunks(path, start_epoch=epochs)) == []

    def test_slicing_unindexed_trace_names_the_fix(self, tmp_path):
        path = tmp_path / "plain.rpt3"
        write_trace_v3(path, workload_records(accesses=300), block_records=64)
        assert v3_epoch_index(path) is None
        with pytest.raises(WorkloadError, match="epoch_records"):
            list(read_trace_v3_chunks(path, start_epoch=1))

    def test_out_of_range_slice_rejected(self, tmp_path):
        path, records = self._write(tmp_path)
        epochs = -(-len(records) // self.EPOCH)
        with pytest.raises(WorkloadError, match="epoch"):
            list(read_trace_v3_chunks(path, start_epoch=epochs + 1))
        with pytest.raises(WorkloadError, match="epoch"):
            list(read_trace_v3_chunks(path, start_epoch=-1))

    def test_writer_rejects_epoch_not_on_block_boundary(self, tmp_path):
        with pytest.raises(WorkloadError, match="multiple"):
            BlockedTraceWriter(
                tmp_path / "t.rpt3", block_records=64, epoch_records=100
            )

    def test_corrupt_footer_is_a_clean_error(self, tmp_path):
        path, _records = self._write(tmp_path)
        data = bytearray(path.read_bytes())
        # Lie about the footer length in the EOF trailer.
        data[-16:-8] = (7).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(WorkloadError, match="footer"):
            v3_epoch_index(path)
        with pytest.raises(WorkloadError, match="footer"):
            list(read_trace_v3_chunks(path))


class TestTornAndUnclosedFiles:
    """Crash robustness: killed writers and torn files degrade cleanly."""

    def test_unclosed_v2_count_falls_back_to_scan(self, tmp_path):
        records = workload_records(accesses=400)
        path = tmp_path / "t.rpt2"
        write_trace_v2(path, records)
        # Rewind the header count to the unknown sentinel — exactly what a
        # writer killed after its last flush leaves behind.
        data = bytearray(path.read_bytes())
        data[8:16] = b"\xff" * 8
        path.write_bytes(bytes(data))
        assert stored_record_count(path) == -1
        assert count_records(path) == len(records)
        assert list(read_trace(path)) == records

    def test_writer_killed_between_flush_and_close(self, tmp_path):
        import os

        records = workload_records(accesses=640)
        path = tmp_path / "t.rpt3"
        writer = BlockedTraceWriter(path, block_records=64, epoch_records=128)
        for record in records:
            writer.write(record)
        # Simulate SIGKILL after the last block hit the disk but before
        # close(): flush the buffered block, then drop the handle without
        # running close() — no footer, no count patch.
        writer._flush_block()
        writer._handle.flush()
        os.close(writer._handle.fileno())

        assert sniff_format(path) == FORMAT_BLOCKED
        assert stored_record_count(path) == -1  # sentinel, never patched
        assert count_records(path) == len(records)  # full-scan fallback
        assert list(read_trace(path)) == records
        assert v3_epoch_index(path) is None  # footer was never written
        with pytest.raises(WorkloadError, match="epoch_records"):
            list(read_trace_v3_chunks(path, start_epoch=1))

    def test_torn_v2_file_raises_without_traceback_noise(self, tmp_path):
        records = workload_records(accesses=400)
        path = tmp_path / "t.rpt2"
        write_trace_v2(path, records)
        data = bytearray(path.read_bytes())
        data = data[: len(data) - 5]  # tear mid-record
        data[8:16] = b"\xff" * 8  # and the count was never patched
        path.write_bytes(bytes(data))
        with pytest.raises(WorkloadError):
            count_records(path)
        with pytest.raises(WorkloadError):
            list(read_trace(path))

    def test_torn_v3_block_raises_cleanly_from_count(self, tmp_path):
        records = workload_records(accesses=400)
        path = tmp_path / "t.rpt3"
        write_trace_v3(path, records, block_records=64)
        data = bytearray(path.read_bytes())
        data = data[: len(data) - 9]  # tear inside the final block
        data[8:16] = b"\xff" * 8
        path.write_bytes(bytes(data))
        with pytest.raises(WorkloadError, match="truncated"):
            count_records(path)


class TestBlockedReplay:
    """Blocked traces feed the chunk kernel bit-identically."""

    def test_blocked_replay_matches_generated_run(self, tmp_path):
        from repro.analysis.executor import execute_run_spec, record_spec_trace

        spec = RunSpec("barnes", "allarm", settings=TINY)
        path = tmp_path / "barnes.rpt3"
        record_spec_trace(spec, path, format=FORMAT_BLOCKED)
        generated = execute_run_spec(spec)
        replayed = execute_run_spec(spec.with_trace(path))
        assert replayed.to_dict() == generated.to_dict()


class TestInspect:
    def test_inspect_reports_both_formats(self, tmp_path):
        records = workload_records(accesses=400)
        text, binary = tmp_path / "t.txt", tmp_path / "t.rpt2"
        write_trace(text, records)
        write_trace(binary, records, format=FORMAT_BINARY)
        info_t, info_b = inspect_trace(text), inspect_trace(binary)
        assert info_t.format == FORMAT_TEXT and info_b.format == FORMAT_BINARY
        assert info_t.records == info_b.records == len(records)
        assert info_t.writes == info_b.writes
        assert info_b.core_count == 16
        assert info_b.bytes_per_record < info_t.bytes_per_record

    def test_inspect_reports_streams_and_blocks(self, tmp_path):
        records = workload_records(accesses=400)
        blocked = tmp_path / "t.rpt3"
        binary = tmp_path / "t.rpt2"
        write_trace_v3(blocked, records, block_records=100)
        write_trace_v2(binary, records)
        info_blocked = inspect_trace(blocked)
        info_binary = inspect_trace(binary)
        # Stored blocks for v3; estimated decode chunks for v2.
        assert info_blocked.blocks == -(-len(records) // 100)
        assert 0 < info_blocked.records_per_block <= 100.0
        assert info_binary.blocks >= 1
        assert info_blocked.decode_mb_s > 0
        # Per-stream counts: same partition from either format.
        assert info_blocked.stream_records == info_binary.stream_records
        assert sum(info_blocked.stream_records.values()) == len(records)
        for stream in info_blocked.stream_records:
            assert stream.startswith("p") and "/c" in stream

    def test_cli_trace_info_renders_blocked_trace(self, tmp_path, capsys):
        from repro.__main__ import main as repro_main

        path = tmp_path / "t.rpt3"
        write_trace_v3(path, workload_records(accesses=300), block_records=64)
        assert repro_main(["trace", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "blocked trace" in out
        assert "blocks" in out and "records/block" in out
        assert "decode MB/s" in out
        assert "streams" in out and "p0/c0" in out
