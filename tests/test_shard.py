"""Sharded and resumed replay: bit-identity, manifest guards, CLI.

The contract under test: replaying a v3.1 epoch-indexed trace serially
with checkpoints, resuming after a simulated kill, or sharding epochs
over a process pool must all end in a snapshot bit-identical
(``snapshot_diff == []``) to a plain single-process replay — whether the
trace feeds the packed engine records (a v2 trace) or chunks (a v3.1
trace, which alone can shard), across the golden-corpus families.
"""

from __future__ import annotations

import pytest

from repro.analysis.shard import (
    ShardManifest,
    latest_checkpoint,
    load_manifest,
    partition_epochs,
    record_checkpoints,
    replay_sharded,
    write_manifest,
)
from repro.errors import SimulationError, WorkloadError
from repro.stats.compare import snapshot_diff
from repro.stats.goldens import golden_specs
from repro.system.simulator import simulate
from repro.trace.binary import write_trace_v2, write_trace_v3
from repro.trace.io import read_trace

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


def _plain_snapshot(config, trace):
    return simulate(config, read_trace(trace)).snapshot


# ``packed`` replays a v2 trace (records); ``batched`` a v3.1 trace,
# whose blocks feed the packed engine as chunks.
@pytest.mark.parametrize("feed", ("packed", "batched"))
def test_golden_grid_sharded_and_resumed_bit_identical(tmp_path, feed):
    for index, spec in enumerate(_grid()):
        config = spec.config()
        trace = tmp_path / f"{index}.trace"
        if feed == "batched":
            _write_trace(spec, trace)
        else:
            write_trace_v2(trace, spec.access_stream())
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
        if feed == "packed":
            continue

        # Sharded across a real process pool (>= 2 workers).
        sharded = replay_sharded(config, trace, 2, ckpt)
        assert snapshot_diff(base, sharded.snapshot) == []
        assert len(sharded.spans) == 2
        assert sharded.accesses_simulated == serial.accesses_simulated


def test_sharded_requires_epoch_index(tmp_path):
    spec = _grid()[0]
    trace = tmp_path / "plain.rpt3"
    records = list(spec.access_stream())
    write_trace_v3(trace, records, block_records=BLOCK)  # no epoch index
    with pytest.raises(WorkloadError, match="epoch index"):
        replay_sharded(spec.config(), trace, 2, tmp_path / "ck")


def test_sharded_requires_recorded_checkpoints(tmp_path):
    spec = _grid()[0]
    trace = tmp_path / "t.rpt3"
    _write_trace(spec, trace)
    with pytest.raises(SimulationError, match="serial checkpointed replay"):
        replay_sharded(spec.config(), trace, 2, tmp_path / "empty")


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
        replay_sharded(config, trace, 2, ckpt, engine="reference")


def test_manifest_round_trip(tmp_path):
    manifest = ShardManifest(
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


def test_partition_epochs_contiguous_and_balanced():
    assert partition_epochs(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]
    assert partition_epochs(5, 2) == [(0, 3), (3, 5)]
    assert partition_epochs(3, 8) == [(0, 1), (1, 2), (2, 3)]
    assert partition_epochs(0, 4) == []


def test_resume_without_index_replays_records(tmp_path):
    # A v3 trace without a matching epoch index cannot seek, so a
    # mid-trace resume decodes records and skips to the epoch instead.
    spec = _grid()[0]
    config = spec.config()
    trace = tmp_path / "plain.rpt3"
    records = list(spec.access_stream())
    write_trace_v3(trace, records, block_records=BLOCK)
    ckpt = tmp_path / "ck"
    result = record_checkpoints(config, trace, EPOCH, ckpt)
    base = _plain_snapshot(config, trace)
    assert snapshot_diff(base, result.snapshot) == []
    for path in sorted(ckpt.glob("epoch-*.ckpt"))[1:]:
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

    def test_serial_resume_and_sharded_modes(self, tmp_path, capsys):
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

        assert main(base + ["--shards", "2"]) == 0
        assert "2 shards" in capsys.readouterr().out

    def test_serial_mode_requires_epoch_records(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = self._trace(tmp_path)
        code = main(
            ["replay", str(trace), "--checkpoint-dir", str(tmp_path / "ck")]
        )
        assert code == 2
        assert "--epoch-records" in capsys.readouterr().err
