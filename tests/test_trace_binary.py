"""Round-trip, determinism and error-context tests for trace files.

v3 blocked is the format every writer emits; v1 text is read as the
import path for traces from other tools.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.errors import WorkloadError
from repro.trace import (
    FORMAT_BLOCKED,
    FORMAT_TEXT,
    TRACE_V3_MAGIC,
    AccessChunk,
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
    write_trace_v3,
)
from repro.trace.binary import (
    HEADER_SIZE,
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


def write_text(path, records):
    """Write *records* as a v1 text trace, as a foreign tool would."""
    path.write_text(
        "# <process> <core> <R|W|I> <address>\n"
        + "".join(f"{record.to_line()}\n" for record in records)
    )


class TestFormatSniffing:
    def test_sniffs_both_formats(self, tmp_path):
        records = workload_records(accesses=500)
        text = tmp_path / "t.txt"
        blocked = tmp_path / "t.rpt3"
        write_text(text, records)
        write_trace(blocked, records)
        assert sniff_format(text) == FORMAT_TEXT
        assert sniff_format(blocked) == FORMAT_BLOCKED

    def test_read_trace_dispatches_transparently(self, tmp_path):
        records = workload_records(accesses=500)
        text = tmp_path / "t.txt"
        blocked = tmp_path / "t.rpt3"
        write_text(text, records)
        write_trace(blocked, records)
        assert list(read_trace(text)) == records
        assert list(read_trace(blocked)) == records

    def test_empty_file_is_text(self, tmp_path):
        path = tmp_path / "empty.trace"
        path.write_bytes(b"")
        assert sniff_format(path) == FORMAT_TEXT
        assert list(read_trace(path)) == []

    def test_missing_file(self, tmp_path):
        with pytest.raises(WorkloadError, match="does not exist"):
            sniff_format(tmp_path / "nope")


class TestBinaryErrors:
    """Input that is neither a v3 trace nor valid v1 text fails with a
    :class:`WorkloadError` naming the file and line, never a traceback."""

    def test_text_errors_still_name_file_and_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# header\n0 1 R 0x40\nnot a record\n")
        with pytest.raises(WorkloadError, match="bad.txt:3"):
            list(read_trace(path))

    @pytest.mark.parametrize(
        "content, line",
        [
            (b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR", 1),
            # A trace in the retired v2 binary format.
            (b"\x89RPT2\r\n\x1a" + (3).to_bytes(8, "little") + b"\x45\x06\x80", 1),
            (b"0 1 R 0x40\n0 2 W 0x80\n\xff\xfe\n", 3),
        ],
        ids=["png", "v2", "late-garbage"],
    )
    def test_non_utf8_input_names_file_and_line(self, tmp_path, content, line):
        path = tmp_path / "foreign.bin"
        path.write_bytes(content)
        assert sniff_format(path) == FORMAT_TEXT
        for read in (
            lambda p: list(read_trace(p)),
            lambda p: list(read_trace_chunks(p)),
            count_records,
            inspect_trace,
        ):
            with pytest.raises(
                WorkloadError, match=rf"foreign.bin:{line}: neither a v3"
            ):
                read(path)

    def test_cli_trace_info_on_non_utf8_input_is_a_clean_error(
        self, tmp_path, capsys
    ):
        from repro.__main__ import main as repro_main

        path = tmp_path / "image.png"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR")
        assert repro_main(["trace", "info", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "image.png:1" in err
        assert "Traceback" not in err


class TestReplayVsGenerate:
    """Replaying a recorded trace must be bit-identical to generating."""

    @pytest.mark.parametrize("policy", ["baseline", "allarm"])
    def test_snapshots_bit_identical(self, tmp_path, policy):
        from repro.analysis.executor import execute_run_spec, record_spec_trace

        spec = RunSpec("barnes", policy, settings=TINY)
        path = tmp_path / "barnes.rpt3"
        record_spec_trace(spec, path)
        generated = execute_run_spec(spec)
        replayed = execute_run_spec(spec.with_trace(path))
        assert replayed.to_dict() == generated.to_dict()

    def test_multiprocess_snapshot_bit_identical(self, tmp_path):
        from repro.analysis.executor import execute_run_spec, record_spec_trace

        spec = RunSpec("barnes", "allarm", layout="2p", settings=TINY)
        path = tmp_path / "barnes-2p.rpt3"
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
        # One v3 trace file serves both policies of the same workload
        # stream, and every run replays it chunk-fed.
        traces = list((tmp_path / "traces").iterdir())
        assert [path.suffix for path in traces] == [".rpt3"]
        assert sniff_format(traces[0]) == FORMAT_BLOCKED
        generated = SweepExecutor().run_plan(plan)
        for left, right in zip(recorded.results, generated.results):
            assert left.spec == right.spec
            assert left.snapshot.to_dict() == right.snapshot.to_dict()

    def test_trace_source_changes_cache_identity(self, tmp_path):
        spec = RunSpec("barnes", "allarm", settings=TINY)
        traced = spec.with_trace(tmp_path / "t.rpt3")
        assert traced.digest() != spec.digest()
        assert traced.stream_digest() == spec.stream_digest()

    def test_executor_trace_dir_serves_blocked_recordings(self, tmp_path):
        """A `trace record` directory must serve sweeps."""
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
            path = trace_dir / trace_file_name(spec)
            if not path.exists():
                record_spec_trace(spec, path)
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
        text = tmp_path / "t.txt"
        write_trace_v3(blocked, records, block_records=128)
        write_text(text, records)
        for path in (blocked, text):
            back = [r for c in read_trace_chunks(path) for r in c.records()]
            assert back == records

    def test_read_trace_native_yields_the_stored_shape(self, tmp_path):
        records = workload_records(accesses=300)
        blocked, text = tmp_path / "t.rpt3", tmp_path / "t.txt"
        write_trace_v3(blocked, records, block_records=128)
        write_text(text, records)
        chunks = list(read_trace_native(blocked))
        assert all(isinstance(c, AccessChunk) for c in chunks)
        assert [r for c in chunks for r in c.records()] == records
        assert list(read_trace_native(text)) == records

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

    def test_multiprocess_stream_round_trips(self, tmp_path):
        mp = build_multiprocess_spec("cholesky", total_accesses_per_copy=1000)
        records = list(generate_multiprocess(mp))
        path = tmp_path / "mp.rpt3"
        write_trace_v3(path, records)
        assert list(read_trace_v3(path)) == records

    def test_count_records_is_o1_for_closed_trace(self, tmp_path):
        records = workload_records(accesses=500)
        path = tmp_path / "t.rpt3"
        write_trace_v3(path, records)
        # Corrupt everything after the header: an O(1) count never sees it.
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE:] = b"\xff" * 4
        path.write_bytes(bytes(data))
        assert count_records(path) == len(records)


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

    @pytest.mark.parametrize(
        "tail", [b"", b"\x00" * 3], ids=["magic-only", "magic-plus-3"]
    )
    def test_torn_header_raises_from_every_reader(self, tmp_path, tail):
        # A writer killed inside the 16-byte header leaves the magic and
        # part of the count: that is a damaged trace, not an empty one.
        path = tmp_path / "t.rpt3"
        path.write_bytes(TRACE_V3_MAGIC + tail)
        assert sniff_format(path) == FORMAT_BLOCKED
        for read in (
            lambda p: list(read_trace(p)),
            lambda p: list(read_trace_chunks(p)),
            count_records,
            stored_record_count,
            v3_epoch_index,
            v3_block_stats,
        ):
            with pytest.raises(WorkloadError, match="truncated header"):
                read(path)


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


class TestInspect:
    def test_inspect_reports_both_formats(self, tmp_path):
        records = workload_records(accesses=400)
        text, blocked = tmp_path / "t.txt", tmp_path / "t.rpt3"
        write_text(text, records)
        write_trace(blocked, records)
        info_t, info_b = inspect_trace(text), inspect_trace(blocked)
        assert info_t.format == FORMAT_TEXT and info_b.format == FORMAT_BLOCKED
        assert info_t.records == info_b.records == len(records)
        assert info_t.writes == info_b.writes
        assert info_b.core_count == 16
        assert info_b.bytes_per_record < info_t.bytes_per_record

    def test_inspect_reports_streams_and_blocks(self, tmp_path):
        records = workload_records(accesses=400)
        blocked = tmp_path / "t.rpt3"
        text = tmp_path / "t.txt"
        write_trace_v3(blocked, records, block_records=100)
        write_text(text, records)
        info_blocked = inspect_trace(blocked)
        info_text = inspect_trace(text)
        # Stored blocks for v3; estimated decode chunks for text.
        assert info_blocked.blocks == -(-len(records) // 100)
        assert 0 < info_blocked.records_per_block <= 100.0
        assert info_text.blocks >= 1
        assert info_blocked.decode_mb_s > 0
        # Per-stream counts: same partition from either format.
        assert info_blocked.stream_records == info_text.stream_records
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
