"""Checkpointed and sharded trace replay for billion-access runs.

Long replays have two operational problems the plain simulator loop
cannot answer: an interrupted run restarts from zero, and a single
process replays at single-core speed.  This module layers both on top of
the engine checkpoints (:mod:`repro.system.checkpoint`) and the v3.1
trace epoch index (:mod:`repro.trace.binary`):

* :func:`record_checkpoints` — replay a trace serially, writing an
  atomic machine checkpoint at every epoch boundary.  With ``resume``,
  a re-invocation after a kill restores the newest intact checkpoint
  and replays only the remaining epochs; the final snapshot is
  bit-identical to an uninterrupted run.
* :func:`replay_sharded` — fan the epochs of a v3.1 trace over a
  process pool.  Worker *k* restores the checkpoint at its span's start
  epoch (span 0 starts from a fresh machine), decodes only its epoch
  byte range and replays it; the last span's snapshot is the run's
  final state, bit-identical to a single-process replay.

Both modes share one checkpoint directory, described by a small
``manifest.json`` (trace identity, epoch size, engine, configuration
digest) so a resume or a shard never silently mixes checkpoints from a
different trace, epoch size or machine.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro import faults
from repro.analysis.retrypool import RetryPolicy, run_tasks
from repro.errors import ExecutionError, SimulationError, WorkloadError
from repro.ioutil import atomic_write_json
from repro.stats.snapshot import MachineSnapshot
from repro.system.checkpoint import (
    checkpoint_file_name,
    config_digest,
    parse_checkpoint_epoch,
    verify_checkpoint,
)
from repro.system.config import SystemConfig
from repro.system.fastcore import resolve_engine
from repro.system.simulator import SimulationResult, Simulator
from repro.trace.binary import read_trace_v3_chunks, v3_epoch_index
from repro.trace.io import count_records, read_trace, sniff_format

PathLike = Union[str, Path]

#: Manifest file describing a checkpoint directory.
MANIFEST_NAME = "manifest.json"


# ----------------------------------------------------------------------
# Checkpoint directory manifest
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardManifest:
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


def write_manifest(directory: PathLike, manifest: ShardManifest) -> Path:
    """Atomically write *manifest* into *directory*."""
    return atomic_write_json(Path(directory) / MANIFEST_NAME, manifest.to_dict())


def load_manifest(directory: PathLike) -> Optional[ShardManifest]:
    """Read the manifest of *directory*, or ``None`` when absent/corrupt."""
    path = Path(directory) / MANIFEST_NAME
    try:
        data = json.loads(path.read_text())
        return ShardManifest(
            trace_name=str(data["trace_name"]),
            trace_records=int(data["trace_records"]),
            epoch_records=int(data["epoch_records"]),
            engine=str(data["engine"]),
            config_digest=str(data["config_digest"]),
        )
    except (OSError, ValueError, KeyError, TypeError):
        return None


def _check_manifest(
    directory: Path, expected: ShardManifest, action: str
) -> None:
    """Refuse to reuse a checkpoint directory recorded for a different run."""
    existing = load_manifest(directory)
    if existing is None:
        return
    if existing != expected:
        raise SimulationError(
            f"checkpoint directory {directory} was recorded for "
            f"{existing.to_dict()} but this {action} expects "
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
    silently restoring garbage).
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

    A v3.1 trace whose epoch index matches *epoch_records* seeks straight
    to the epoch's first block and yields chunks (the chunk kernel's
    path); anything else decodes records sequentially and skips —
    correct for every format, merely slower to reach the tail.
    """
    index = None
    if sniff_format(trace_path) == "blocked":
        index = v3_epoch_index(trace_path)
    if index is not None and index["epoch_records"] == epoch_records:
        return read_trace_v3_chunks(trace_path, start_epoch=start_epoch)
    return islice(read_trace(trace_path), start_epoch * epoch_records, None)


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
    failed attempt managed to write (falling back to a from-scratch
    replay when it cannot seek there), with the policy's exponential
    backoff between attempts.  ``KeyboardInterrupt`` is never retried.
    """
    if epoch_records <= 0:
        raise SimulationError("epoch_records must be positive")
    trace_path = Path(trace_path)
    directory = Path(checkpoint_dir)
    engine = resolve_engine(engine)
    policy = retry if retry is not None else RetryPolicy()
    manifest = ShardManifest(
        trace_name=trace_path.name,
        trace_records=count_records(trace_path),
        epoch_records=epoch_records,
        engine=engine,
        config_digest=config_digest(config),
    )
    _check_manifest(directory, manifest, "replay")

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
        except KeyboardInterrupt:
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
    manifest: ShardManifest,
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


# ----------------------------------------------------------------------
# Sharded replay (process pool over epoch spans)
# ----------------------------------------------------------------------
@dataclass
class ShardedReplayResult:
    """Outcome of one sharded replay."""

    #: Final machine snapshot (end of the last epoch) — bit-identical to
    #: a single-process replay of the whole trace.
    snapshot: MachineSnapshot
    #: End-of-span snapshot per shard, in epoch order.
    span_snapshots: List[MachineSnapshot] = field(default_factory=list)
    #: ``(start_epoch, end_epoch)`` per shard, in epoch order.
    spans: List[Tuple[int, int]] = field(default_factory=list)
    epochs: int = 0
    accesses_simulated: int = 0


@dataclass(frozen=True)
class _SpanTask:
    """Picklable description of one shard's work."""

    config: SystemConfig
    trace_path: str
    engine: str
    start_epoch: int
    end_epoch: int
    checkpoint_path: Optional[str]


def _span_fault_key(task: _SpanTask) -> str:
    """The ``shard.span`` fault-site key naming one shard's epoch span."""
    return f"#{task.start_epoch}-{task.end_epoch}"


def _replay_span(task: _SpanTask) -> Tuple[MachineSnapshot, int]:
    """Pool worker body: restore the span's checkpoint and replay it.

    The :func:`faults.fire` call is the chaos hook standing in for a
    real shard failure; a no-op with no plan installed.
    """
    faults.fire("shard.span", key=_span_fault_key(task))

    simulator = Simulator(task.config, engine=task.engine)
    if task.checkpoint_path is not None:
        simulator.restore(Path(task.checkpoint_path).read_bytes())
    chunks = read_trace_v3_chunks(
        task.trace_path,
        start_epoch=task.start_epoch,
        end_epoch=task.end_epoch,
    )
    result = simulator.run(chunks, workload_name=Path(task.trace_path).name)
    return result.snapshot, result.accesses_simulated


def partition_epochs(epochs: int, shards: int) -> List[Tuple[int, int]]:
    """Split ``range(epochs)`` into at most *shards* contiguous spans."""
    if epochs <= 0:
        return []
    shards = max(1, min(shards, epochs))
    base, extra = divmod(epochs, shards)
    spans = []
    start = 0
    for index in range(shards):
        size = base + (1 if index < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def replay_sharded(
    config: SystemConfig,
    trace_path: PathLike,
    shards: int,
    checkpoint_dir: PathLike,
    engine: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
) -> ShardedReplayResult:
    """Replay a checkpointed v3.1 trace across a process pool.

    The trace's epochs are split into *shards* contiguous spans; the
    worker of each span restores the epoch checkpoint at its start
    (span 0 starts from a fresh machine) and replays only its span's
    blocks.  Requires the epoch checkpoints of a prior
    :func:`record_checkpoints` run in *checkpoint_dir* — the manifest is
    checked so checkpoints from a different trace, epoch size, engine
    or machine configuration are refused rather than silently replayed.

    A *retry* policy makes shard failure survivable: a failed span is
    retried from its epoch checkpoint (never by re-running the world),
    a hung span is killed at the policy's deadline, and a died worker
    only requeues the spans it took down.  When a span exhausts its
    attempts the whole replay raises
    :class:`~repro.errors.ExecutionError` naming the span.

    The returned :attr:`~ShardedReplayResult.snapshot` (the last span's
    end state) is bit-identical to a single-process replay.
    """
    if shards <= 0:
        raise SimulationError("shards must be positive")
    trace_path = Path(trace_path)
    directory = Path(checkpoint_dir)
    engine = resolve_engine(engine)
    index = (
        v3_epoch_index(trace_path)
        if sniff_format(trace_path) == "blocked"
        else None
    )
    if index is None:
        raise WorkloadError(
            f"{trace_path}: sharded replay needs a v3.1 blocked trace "
            f"with an epoch index; re-record it with "
            f"'trace record --format blocked --epoch-records <N>'"
        )
    epoch_records = int(index["epoch_records"])
    entries = index["entries"]
    epochs = len(entries)
    if epochs == 0:
        raise WorkloadError(f"{trace_path}: trace holds no epochs")
    manifest = ShardManifest(
        trace_name=trace_path.name,
        trace_records=sum(records for _offset, records in entries),
        epoch_records=epoch_records,
        engine=engine,
        config_digest=config_digest(config),
    )
    _check_manifest(directory, manifest, "sharded replay")

    spans = partition_epochs(epochs, shards)
    tasks = []
    for start, stop in spans:
        if start == 0:
            checkpoint_path: Optional[str] = None
        else:
            path = directory / checkpoint_file_name(start)
            if not path.exists():
                raise SimulationError(
                    f"sharded replay needs checkpoint {path.name} in "
                    f"{directory}; run the serial checkpointed replay "
                    f"first (replay --checkpoint-dir ... without --shards)"
                )
            checkpoint_path = str(path)
        tasks.append(
            _SpanTask(
                config=config,
                trace_path=str(trace_path),
                engine=engine,
                start_epoch=start,
                end_epoch=stop,
                checkpoint_path=checkpoint_path,
            )
        )

    report = run_tasks(
        tasks,
        _replay_span,
        policy=retry if retry is not None else RetryPolicy(),
        max_workers=len(tasks),
        keys=[_span_fault_key(task) for task in tasks],
    )
    if report.interrupted:
        raise KeyboardInterrupt("sharded replay interrupted")
    if report.failures:
        first = report.failures[0]
        raise ExecutionError(
            f"{len(report.failures)} of {len(tasks)} shard spans failed "
            f"permanently; first: span {first.key} ({first.kind} after "
            f"{first.attempts} attempt(s)): {first.error}",
            failures=report.failures,
        )
    outcomes = [report.results[index] for index in range(len(tasks))]
    span_snapshots = [snapshot for snapshot, _count in outcomes]
    return ShardedReplayResult(
        snapshot=span_snapshots[-1],
        span_snapshots=span_snapshots,
        spans=spans,
        epochs=epochs,
        accesses_simulated=sum(count for _snapshot, count in outcomes),
    )
