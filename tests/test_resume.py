"""Checkpointed and resumed replay: bit-identity, manifest guards, CLI.

The contract under test: replaying a trace with epoch checkpoints, and
resuming after a simulated kill, must both end in a snapshot
bit-identical (``snapshot_diff == []``) to a plain uninterrupted replay
— whether the trace feeds the packed engine records (a v1 text trace) or
chunks (a v3 trace, with or without an epoch index), across the
golden-corpus families.
"""

from __future__ import annotations

import struct

import pytest

from repro.analysis.retrypool import RetryPolicy
from repro.analysis.resume import (
    CheckpointManifest,
    _accesses_from_epoch,
    latest_checkpoint,
    load_manifest,
    record_checkpoints,
    write_manifest,
)
from repro.errors import SimulationError
from repro.stats.compare import snapshot_diff
from repro.stats.goldens import golden_specs
from repro.system.checkpoint import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    parse_checkpoint_epoch,
)
from repro.system.simulator import simulate
from repro.trace.binary import write_trace_v3
from repro.trace.io import read_trace
from repro.trace.record import AccessChunk

BLOCK = 256
EPOCH = 512


def _grid():
    """A family-covering slice of the golden grid: allarm + starved
    filter for each microbenchmark family, plus the 2-process layout."""
    specs = golden_specs()
    return [specs[3], specs[7], specs[11], specs[15], specs[17]]


def _write_trace(spec, path):
    records = list(spec.access_stream())
    write_trace_v3(path, records, block_records=BLOCK, epoch_records=EPOCH)
    return records


def _write_text_trace(spec, path):
    path.write_text("".join(f"{r.to_line()}\n" for r in spec.access_stream()))


def _plain_snapshot(config, trace):
    return simulate(config, read_trace(trace)).snapshot


# A v1 text trace feeds the packed engine records; a v3.1 trace feeds it
# chunks.
@pytest.mark.parametrize("feed", ("records", "chunks"))
def test_golden_grid_checkpointed_and_resumed_bit_identical(tmp_path, feed):
    for index, spec in enumerate(_grid()):
        config = spec.config()
        trace = tmp_path / f"{index}.trace"
        if feed == "chunks":
            _write_trace(spec, trace)
        else:
            _write_text_trace(spec, trace)
        base = _plain_snapshot(config, trace)

        # Serial checkpointed replay.
        ckpt = tmp_path / f"ck-{index}"
        serial = record_checkpoints(config, trace, EPOCH, ckpt)
        assert snapshot_diff(base, serial.snapshot) == []

        # Kill/resume: drop every checkpoint after epoch 1 (as if the run
        # died mid-epoch-2) and resume; the directory refills and the
        # final snapshot is unchanged.
        for path in sorted(ckpt.glob("epoch-*.ckpt"))[1:]:
            path.unlink()
        resumed = record_checkpoints(config, trace, EPOCH, ckpt, resume=True)
        assert snapshot_diff(base, resumed.snapshot) == []
        epoch, _path = latest_checkpoint(ckpt)
        assert epoch >= 1
        assert resumed.accesses_simulated == serial.accesses_simulated


def test_manifest_guards_against_mixed_directories(tmp_path):
    spec = _grid()[0]
    config = spec.config()
    trace = tmp_path / "t.rpt3"
    _write_trace(spec, trace)
    ckpt = tmp_path / "ck"
    record_checkpoints(config, trace, EPOCH, ckpt, engine="packed")
    # Same directory, different epoch size: refused, not silently mixed.
    with pytest.raises(SimulationError, match="checkpoint directory"):
        record_checkpoints(config, trace, EPOCH * 2, ckpt, engine="packed")
    # Different engine: also refused.
    with pytest.raises(SimulationError, match="checkpoint directory"):
        record_checkpoints(config, trace, EPOCH, ckpt, engine="reference")


def test_resume_refuses_checkpoints_from_another_version(tmp_path, monkeypatch):
    # Intact checkpoints written by a build with another layout version
    # are not torn files: quarantining them would make the resume
    # silently restart from zero.  They stay on disk and the resume
    # stops before replaying anything, even under a retry policy.
    spec = _grid()[0]
    config = spec.config()
    trace = tmp_path / "t.rpt3"
    _write_trace(spec, trace)
    ckpt = tmp_path / "ck"
    record_checkpoints(config, trace, EPOCH, ckpt)
    old = CHECKPOINT_VERSION - 1
    files = sorted(ckpt.glob("epoch-*.ckpt"))
    assert len(files) >= 2
    for path in files:
        blob = bytearray(path.read_bytes())
        struct.pack_into("<I", blob, len(CHECKPOINT_MAGIC), old)
        path.write_bytes(bytes(blob))
    before = {path.name: path.read_bytes() for path in ckpt.iterdir()}

    with pytest.raises(SimulationError) as excinfo:
        latest_checkpoint(ckpt)
    message = str(excinfo.value)
    assert f"version {old}" in message
    assert f"version {CHECKPOINT_VERSION}" in message
    assert "fresh --checkpoint-dir or re-record" in message
    def no_retry(_seconds):
        raise AssertionError("a version mismatch must not be retried")

    monkeypatch.setattr("repro.analysis.resume.time.sleep", no_retry)
    with pytest.raises(SimulationError, match=f"version {old}"):
        record_checkpoints(
            config, trace, EPOCH, ckpt, resume=True,
            retry=RetryPolicy(max_attempts=3, base_delay_s=1.0),
        )
    assert {path.name: path.read_bytes() for path in ckpt.iterdir()} == before

    # A torn file is damage whatever its version: it still quarantines,
    # and the scan moves on to the next (intact, old-version) file.
    newest = files[-1]
    newest.write_bytes(newest.read_bytes()[:-1])
    with pytest.raises(SimulationError, match=f"{files[-2].name}: checkpoint version"):
        latest_checkpoint(ckpt)
    assert (ckpt / f"{newest.name}.corrupt").exists()


def test_manifest_round_trip(tmp_path):
    manifest = CheckpointManifest(
        trace_name="t.rpt3",
        trace_records=4096,
        epoch_records=512,
        engine="packed",
        config_digest="abc123",
    )
    write_manifest(tmp_path, manifest)
    assert load_manifest(tmp_path) == manifest
    assert manifest.epochs == 8
    assert load_manifest(tmp_path / "absent") is None


#: A block size that does not divide EPOCH, so epoch boundaries fall
#: inside blocks and the unindexed source must slice its boundary chunk.
ODD_BLOCK = 200


def test_unindexed_source_feeds_chunks_from_any_epoch(tmp_path):
    # A v3 trace without a matching epoch index cannot seek, but it
    # still feeds chunks: whole leading chunks are dropped and the
    # boundary chunk is sliced at the epoch's first access.
    spec = _grid()[0]
    records = list(spec.access_stream())
    plain = tmp_path / "plain.rpt3"
    write_trace_v3(plain, records, block_records=ODD_BLOCK)
    mismatched = tmp_path / "mismatched.rpt3"
    write_trace_v3(
        mismatched, records, block_records=BLOCK, epoch_records=BLOCK
    )
    epochs = -(-len(records) // EPOCH)
    for trace in (plain, mismatched):
        for start in (0, 1, 3, epochs - 1, epochs):
            chunks = list(_accesses_from_epoch(trace, start, EPOCH))
            assert all(isinstance(chunk, AccessChunk) for chunk in chunks)
            fed = [r for chunk in chunks for r in chunk.records()]
            assert fed == records[start * EPOCH :]


def test_resume_without_index_replays_chunks(tmp_path):
    spec = _grid()[0]
    config = spec.config()
    trace = tmp_path / "plain.rpt3"
    records = list(spec.access_stream())
    write_trace_v3(trace, records, block_records=ODD_BLOCK)
    ckpt = tmp_path / "ck"
    result = record_checkpoints(config, trace, EPOCH, ckpt)
    base = _plain_snapshot(config, trace)
    assert snapshot_diff(base, result.snapshot) == []
    last, _path = latest_checkpoint(ckpt)
    # Resume from several epochs, each after dropping every later
    # checkpoint (as if the run died there); each resume refills the
    # directory.
    for start in (last, 3, 1):
        for path in ckpt.glob("epoch-*.ckpt"):
            if parse_checkpoint_epoch(path.name) > start:
                path.unlink()
        resumed = record_checkpoints(config, trace, EPOCH, ckpt, resume=True)
        assert snapshot_diff(base, resumed.snapshot) == []
        assert resumed.accesses_simulated == len(records)


class TestReplayCli:
    def _trace(self, tmp_path):
        spec = _grid()[0]
        trace = tmp_path / "t.rpt3"
        _write_trace(spec, trace)
        return trace

    def test_serial_and_resume_modes(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = self._trace(tmp_path)
        ckpt = tmp_path / "ck"
        base = [
            "replay",
            str(trace),
            "--checkpoint-dir",
            str(ckpt),
            "--scale",
            "16",
            "--pf-size",
            str(32 * 1024),
        ]
        assert main(base + ["--epoch-records", str(EPOCH)]) == 0
        out = capsys.readouterr().out
        assert "replayed to access" in out
        assert latest_checkpoint(ckpt) is not None

        assert main(base + ["--epoch-records", str(EPOCH), "--resume"]) == 0
        assert "replayed to access" in capsys.readouterr().out

    def test_serial_mode_requires_epoch_records(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = self._trace(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", str(trace), "--checkpoint-dir", str(tmp_path / "ck")])
        assert excinfo.value.code == 2
        assert "--epoch-records" in capsys.readouterr().err
