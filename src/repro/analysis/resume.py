"""Checkpointed trace replay that resumes after a kill.

An interrupted plain replay restarts from zero.  :func:`record_checkpoints`
replays a trace serially on top of the engine checkpoints
(:mod:`repro.system.checkpoint`), writing an atomic machine checkpoint
at every epoch boundary.  With ``resume``, a re-invocation after a kill
restores the newest intact checkpoint and replays only the remaining
epochs; the final snapshot is bit-identical to an uninterrupted run.
A v3.1 trace's epoch index (:mod:`repro.trace.binary`) lets the resume
seek straight to its epoch.

The checkpoint directory is described by a small ``manifest.json``
(trace identity, epoch size, engine, configuration digest) so a resume
never silently mixes checkpoints from a different trace, epoch size or
machine.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro import faults
from repro.analysis.retrypool import RetryPolicy
from repro.errors import SimulationError
from repro.ioutil import atomic_write_json
from repro.system.checkpoint import (
    CheckpointVersionError,
    config_digest,
    parse_checkpoint_epoch,
    verify_checkpoint,
)
from repro.system.config import SystemConfig
from repro.system.fastcore import resolve_engine
from repro.system.simulator import SimulationResult, Simulator
from repro.trace.binary import read_trace_v3_chunks, v3_epoch_index
from repro.trace.io import count_records, read_trace, sniff_format
from repro.trace.record import AccessChunk

PathLike = Union[str, Path]

#: Manifest file describing a checkpoint directory.
MANIFEST_NAME = "manifest.json"


# ----------------------------------------------------------------------
# Checkpoint directory manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CheckpointManifest:
    """Identity of the run a checkpoint directory belongs to."""

    trace_name: str
    trace_records: int
    epoch_records: int
    engine: str
    config_digest: str

    @property
    def epochs(self) -> int:
        """Number of epochs the trace divides into (last may be short)."""
        return -(-self.trace_records // self.epoch_records)

    def to_dict(self) -> dict:
        return {
            "trace_name": self.trace_name,
            "trace_records": self.trace_records,
            "epoch_records": self.epoch_records,
            "engine": self.engine,
            "config_digest": self.config_digest,
        }


def write_manifest(directory: PathLike, manifest: CheckpointManifest) -> Path:
    """Atomically write *manifest* into *directory*."""
    return atomic_write_json(Path(directory) / MANIFEST_NAME, manifest.to_dict())


def load_manifest(directory: PathLike) -> Optional[CheckpointManifest]:
    """Read the manifest of *directory*, or ``None`` when absent/corrupt."""
    path = Path(directory) / MANIFEST_NAME
    try:
        data = json.loads(path.read_text())
        return CheckpointManifest(
            trace_name=str(data["trace_name"]),
            trace_records=int(data["trace_records"]),
            epoch_records=int(data["epoch_records"]),
            engine=str(data["engine"]),
            config_digest=str(data["config_digest"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _check_manifest(directory: Path, expected: CheckpointManifest) -> None:
    """Refuse to reuse a checkpoint directory recorded for a different run."""
    existing = load_manifest(directory)
    if existing is None:
        return
    if existing != expected:
        raise SimulationError(
            f"checkpoint directory {directory} was recorded for "
            f"{existing.to_dict()} but this replay expects "
            f"{expected.to_dict()}; use a fresh --checkpoint-dir or "
            f"re-record the checkpoints"
        )


def latest_checkpoint(
    directory: PathLike, verify: bool = True
) -> Optional[Tuple[int, Path]]:
    """Return ``(epoch, path)`` of the newest *intact* epoch checkpoint.

    Checkpoint writes are atomic against process death, but not against
    power loss on fsync-less media or later bit rot, so by default every
    candidate's envelope is digest-verified (without unpickling) before
    it is trusted.  A damaged file is quarantined as ``<name>.corrupt``
    and the scan falls back to the next-newest epoch — a resume after
    a torn write restarts one epoch earlier instead of crashing (or
    silently restoring garbage).  An intact file written by a build
    with another ``CHECKPOINT_VERSION`` stays in place and raises
    :class:`CheckpointVersionError`: quarantining it would make a
    resume silently restart from zero.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return None
    candidates: List[Tuple[int, Path]] = []
    for path in directory.iterdir():
        epoch = parse_checkpoint_epoch(path.name)
        if epoch >= 0:
            candidates.append((epoch, path))
    for epoch, path in sorted(candidates, reverse=True):
        if not verify:
            return epoch, path
        try:
            verify_checkpoint(path.read_bytes())
        except CheckpointVersionError as exc:
            raise CheckpointVersionError(f"{path}: {exc}") from None
        except (OSError, SimulationError):
            try:
                os.replace(path, path.with_name(path.name + ".corrupt"))
            except OSError:
                pass
            continue
        return epoch, path
    return None


# ----------------------------------------------------------------------
# Serial checkpointed replay (resume after kill)
# ----------------------------------------------------------------------
def _accesses_from_epoch(
    trace_path: Path, start_epoch: int, epoch_records: int
):
    """The trace from *start_epoch* on, in the shape that replays fastest.

    A v3 blocked trace always feeds chunks (the chunk kernel's path):
    when its v3.1 epoch index matches *epoch_records* the read seeks
    straight to the epoch's first block, otherwise whole leading chunks
    are dropped and the boundary chunk is sliced.  A v1 text trace
    parses records sequentially and skips.
    """
    skip = start_epoch * epoch_records
    if sniff_format(trace_path) != "blocked":
        return islice(read_trace(trace_path), skip, None)
    index = v3_epoch_index(trace_path)
    if index is not None and index["epoch_records"] == epoch_records:
        return read_trace_v3_chunks(trace_path, start_epoch=start_epoch)
    return _skip_chunks(read_trace_v3_chunks(trace_path), skip)


def _skip_chunks(
    chunks: Iterable[AccessChunk], skip: int
) -> Iterator[AccessChunk]:
    """*chunks* without their first *skip* accesses."""
    for chunk in chunks:
        size = len(chunk)
        if skip >= size:
            skip -= size
            continue
        yield chunk.sliced(skip, size) if skip else chunk
        skip = 0


def record_checkpoints(
    config: SystemConfig,
    trace_path: PathLike,
    epoch_records: int,
    checkpoint_dir: PathLike,
    engine: Optional[str] = None,
    resume: bool = False,
    workload_name: str = "",
    retry: Optional[RetryPolicy] = None,
) -> SimulationResult:
    """Replay *trace_path* serially, checkpointing every *epoch_records*.

    With ``resume``, an interrupted run picks up from the newest intact
    epoch checkpoint instead of replaying from zero; epoch numbering
    continues where the interrupted run left off, so the directory ends
    up with the same files either way and the final snapshot is
    bit-identical to an uninterrupted replay.

    A *retry* policy turns transient failures into automatic resumes:
    each retry attempt restarts from the newest intact checkpoint the
    failed attempt managed to write (or from scratch when none
    survived), with the policy's exponential
    backoff between attempts.  ``KeyboardInterrupt`` is never retried,
    nor is a checkpoint from a build with another layout version.
    """
    if epoch_records <= 0:
        raise SimulationError("epoch_records must be positive")
    trace_path = Path(trace_path)
    directory = Path(checkpoint_dir)
    engine = resolve_engine(engine)
    policy = retry if retry is not None else RetryPolicy()
    manifest = CheckpointManifest(
        trace_name=trace_path.name,
        trace_records=count_records(trace_path),
        epoch_records=epoch_records,
        engine=engine,
        config_digest=config_digest(config),
    )
    _check_manifest(directory, manifest)

    attempt = 1
    while True:
        faults.set_attempt(attempt)
        try:
            return _record_checkpoints_once(
                config, trace_path, epoch_records, directory, engine,
                manifest, workload_name,
                # A retry is a resume by construction: the failed attempt's
                # checkpoints are on disk and verified on discovery.
                resume=resume or attempt > 1,
            )
        except (KeyboardInterrupt, CheckpointVersionError):
            raise
        except Exception:
            if attempt >= policy.max_attempts:
                raise
            attempt += 1
            delay = policy.delay_for(attempt)
            if delay > 0:
                time.sleep(delay)
        finally:
            faults.set_attempt(1)


def _record_checkpoints_once(
    config: SystemConfig,
    trace_path: Path,
    epoch_records: int,
    directory: Path,
    engine: str,
    manifest: CheckpointManifest,
    workload_name: str,
    resume: bool,
) -> SimulationResult:
    """One attempt of :func:`record_checkpoints` (pre-flight already done)."""
    start_epoch = 0
    blob: Optional[bytes] = None
    if resume:
        found = latest_checkpoint(directory)
        if found is not None:
            start_epoch, path = found
            blob = path.read_bytes()

    simulator = Simulator(config, engine=engine)
    if blob is not None:
        simulator.restore(blob)
    accesses = _accesses_from_epoch(trace_path, start_epoch, epoch_records)
    directory.mkdir(parents=True, exist_ok=True)
    write_manifest(directory, manifest)
    result = simulator.run(
        accesses,
        workload_name=workload_name or trace_path.name,
        checkpoint_every=epoch_records,
        checkpoint_dir=directory,
        checkpoint_start=start_epoch * epoch_records,
    )
    return SimulationResult(
        config=result.config,
        snapshot=result.snapshot,
        accesses_simulated=start_epoch * epoch_records
        + result.accesses_simulated,
        workload_name=result.workload_name,
        engine=result.engine,
    )
