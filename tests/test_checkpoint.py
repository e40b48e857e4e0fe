"""Checkpoint/restore bit-identity and envelope validation tests.

The checkpoint contract: running N accesses, checkpointing, restoring
the blob onto a freshly built machine and running the remaining M
accesses must produce a snapshot bit-identical (``snapshot_diff == []``)
to one uninterrupted N+M run — on every engine and input shape and every
workload family (LRU stamps and recency stacks are part of the state).
"""

from __future__ import annotations

import pytest

from repro.analysis.plan import ExperimentSettings, RunSpec
from repro.errors import SimulationError
from repro.stats.compare import snapshot_diff
from repro.system.checkpoint import (
    CHECKPOINT_MAGIC,
    checkpoint_file_name,
    decode_checkpoint,
    encode_checkpoint,
    parse_checkpoint_epoch,
)
from repro.system.config import experiment_config
from repro.system.simulator import Simulator, simulate
from repro.trace.record import chunk_records
from repro.workloads.registry import MICROBENCH_FAMILIES

TINY = ExperimentSettings(
    scale=16, accesses=1200, multiprocess_accesses=800, seed=3
)

#: Engine and input shape per feed: ``batched`` is the packed engine fed
#: AccessChunk batches, which replays through the chunk kernel.
FEEDS = {
    "reference": ("reference", False),
    "packed": ("packed", False),
    "batched": ("packed", True),
}


def _simulate(config, records, feed: str):
    engine, chunked = FEEDS[feed]
    return simulate(
        config, chunk_records(records) if chunked else records, engine=engine
    )


def _spec(family: str, layout: str = "16t") -> RunSpec:
    # The starved 32 kB filter keeps the eviction/invalidation paths hot,
    # so the checkpoint covers directory state that actually changes.
    return RunSpec(family, "allarm", pf_size=32 * 1024, layout=layout, settings=TINY)


def _split_run(config, records, feed: str, split: int):
    """Run with a checkpoint/restore seam at *split*; return the snapshot."""
    engine, chunked = FEEDS[feed]
    shape = chunk_records if chunked else list
    first = Simulator(config, engine=engine)
    first.run(shape(records[:split]))
    blob = first.machine.checkpoint()
    second = Simulator(config, engine=engine)
    second.restore(blob)
    return second.run(shape(records[split:])).snapshot


class TestRoundTripBitIdentity:
    @pytest.mark.parametrize("family", MICROBENCH_FAMILIES)
    @pytest.mark.parametrize("feed", FEEDS)
    def test_every_family_every_engine(self, family, feed):
        spec = _spec(family)
        config = spec.config()
        records = list(spec.access_stream())
        full = _simulate(config, records, feed).snapshot
        # An odd split keeps the seam off any chunk/block boundary.
        seam = _split_run(config, records, feed, len(records) // 2 + 1)
        assert snapshot_diff(full, seam) == []

    @pytest.mark.parametrize("feed", FEEDS)
    def test_multiprocess_layout(self, feed):
        spec = _spec("barnes", layout="2p")
        config = spec.config()
        records = list(spec.access_stream())
        full = _simulate(config, records, feed).snapshot
        seam = _split_run(config, records, feed, len(records) // 3)
        assert snapshot_diff(full, seam) == []

    def test_restore_rebinds_the_chunk_kernel(self):
        # A machine whose chunk kernel is already bound must replace it
        # on restore: the kernel's translation shadow points at
        # pre-restore page-table objects, and committing into them would
        # diverge.  The checkpointed run's chunk counters carry over.
        spec = _spec("hotspot")
        config = spec.config()
        records = list(spec.access_stream())
        split = len(records) // 2
        full = _simulate(config, records, "batched").snapshot
        donor = Simulator(config)
        donor.run(chunk_records(records[:split]))
        resumed = Simulator(config)
        resumed.machine.perform_chunk(next(chunk_records(records[:7])), 1.0)
        stale = resumed.machine._chunk_kernel
        assert stale is not None
        resumed.restore(donor.machine.checkpoint())
        assert resumed.machine._chunk_kernel is not stale
        assert resumed.machine.batch_summary() == donor.machine.batch_summary()
        seam = resumed.run(chunk_records(records[split:])).snapshot
        assert snapshot_diff(full, seam) == []

    def test_unsettled_message_tally_round_trips(self):
        # The packed engine tallies messages aside and folds the tally
        # into NetworkStats only when stats are read.  A checkpoint taken
        # mid-run must fold it (not drop it), and a restore must discard
        # whatever tally the target machine still holds.
        spec = _spec("hotspot")
        config = spec.config()
        records = list(spec.access_stream())
        split = len(records) // 2 + 1
        full = _simulate(config, records, "packed").snapshot
        donor = Simulator(config, engine="packed")
        donor._replay_records(records[:split], None)
        assert any(donor.machine._directories[0].counts)
        blob = donor.machine.checkpoint()
        resumed = Simulator(config, engine="packed")
        resumed._replay_records(records[: split // 2], None)
        assert any(resumed.machine._directories[0].counts)
        resumed.restore(blob)
        assert not any(resumed.machine._directories[0].counts)
        seam = resumed.run(records[split:]).snapshot
        assert snapshot_diff(full, seam) == []

    def test_checkpoint_is_deterministic(self):
        spec = _spec("hotspot")
        records = list(spec.access_stream())

        def _blob():
            simulator = Simulator(spec.config(), engine="packed")
            simulator.run(records)
            return simulator.machine.checkpoint()

        assert _blob() == _blob()


class TestEnvelope:
    def _machine(self):
        simulator = Simulator(experiment_config("baseline", scale=16))
        return simulator.machine

    def test_encode_decode_round_trip(self):
        state = {"nested": [1, 2, {"k": "v"}]}
        assert decode_checkpoint(encode_checkpoint(state)) == state

    def test_short_blob_rejected(self):
        with pytest.raises(SimulationError, match="truncated"):
            decode_checkpoint(b"\x00" * 8)

    def test_bad_magic_rejected(self):
        blob = bytearray(encode_checkpoint({}))
        blob[0] ^= 0xFF
        with pytest.raises(SimulationError, match="magic"):
            decode_checkpoint(bytes(blob))

    def test_version_mismatch_rejected(self):
        blob = bytearray(encode_checkpoint({}))
        blob[len(CHECKPOINT_MAGIC)] ^= 0xFF
        with pytest.raises(SimulationError, match="version"):
            decode_checkpoint(bytes(blob))

    def test_digest_mismatch_names_the_fix(self):
        blob = bytearray(self._machine().checkpoint())
        blob[-1] ^= 0x01  # flip one payload bit
        with pytest.raises(SimulationError, match="re-record"):
            decode_checkpoint(bytes(blob))

    def test_restore_rejects_other_configuration(self):
        blob = self._machine().checkpoint()
        other = Simulator(
            experiment_config("allarm", scale=16), engine="packed"
        )
        with pytest.raises(SimulationError, match="config"):
            other.machine.restore(blob)

    def test_restore_rejects_other_engine(self):
        config = experiment_config("baseline", scale=16)
        blob = Simulator(config, engine="reference").machine.checkpoint()
        packed = Simulator(config, engine="packed")
        with pytest.raises(SimulationError, match="same engine"):
            packed.machine.restore(blob)


class TestCheckpointedRun:
    def test_epoch_files_written_atomically(self, tmp_path):
        spec = _spec("false-sharing")
        records = list(spec.access_stream())
        simulator = Simulator(spec.config(), engine="packed")
        result = simulator.run(
            records,
            checkpoint_every=400,
            checkpoint_dir=tmp_path,
        )
        assert result.accesses_simulated == len(records)
        names = sorted(p.name for p in tmp_path.iterdir())
        # One file per whole epoch; the mid-epoch tail is not checkpointed.
        expected = [
            checkpoint_file_name(k) for k in range(1, len(records) // 400 + 1)
        ]
        assert names == expected
        assert not list(tmp_path.glob("*.tmp*"))
        for name in names:
            assert parse_checkpoint_epoch(name) >= 1

    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        spec = _spec("migratory")
        config = spec.config()
        records = list(spec.access_stream())
        for feed, (engine, chunked) in FEEDS.items():
            plain = _simulate(config, records, feed).snapshot
            simulator = Simulator(config, engine=engine)
            ticked = simulator.run(
                chunk_records(records) if chunked else records,
                checkpoint_every=333,  # never a chunk/block multiple
                checkpoint_dir=tmp_path / feed,
            ).snapshot
            assert snapshot_diff(plain, ticked) == []

    def test_run_validates_checkpoint_arguments(self, tmp_path):
        simulator = Simulator(experiment_config("baseline", scale=16))
        with pytest.raises(SimulationError, match="positive"):
            simulator.run([], checkpoint_every=0, checkpoint_dir=tmp_path)
        with pytest.raises(SimulationError, match="checkpoint_dir"):
            simulator.run([], checkpoint_every=10)
        with pytest.raises(SimulationError, match="epoch boundaries"):
            simulator.run(
                [],
                checkpoint_every=10,
                checkpoint_dir=tmp_path,
                checkpoint_start=5,
            )

    def test_parse_checkpoint_epoch_rejects_other_names(self):
        assert parse_checkpoint_epoch("manifest.json") == -1
        assert parse_checkpoint_epoch("epoch-abc.ckpt") == -1
        assert parse_checkpoint_epoch(checkpoint_file_name(17)) == 17
