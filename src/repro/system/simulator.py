"""Trace-driven simulator: replays access streams against a machine.

The simulator consumes an iterable of
:class:`~repro.trace.record.AccessRecord` objects (from a synthetic
workload generator or a trace file), presents each access to the machine,
and advances the issuing core's clock by the access latency plus a fixed
amount of non-memory work per reference.  Execution time of the run is
the maximum per-core clock, so a configuration that reduces miss
latencies on the critical cores shows up directly as speedup — exactly
how the paper reports Figure 3a.

The shape of the source picks the replay path.  A source that yields
:class:`~repro.trace.record.AccessChunk` blocks (a v3 blocked trace)
goes to the packed machine's vectorised chunk kernel; a record source
goes to the per-record loop.  Both produce bit-identical snapshots, so
the choice is purely one of speed.  The reference machine has no chunk
kernel and replays chunk sources record by record.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Optional, Union

from repro import faults
from repro.errors import SimulationError
from repro.ioutil import atomic_write_bytes
from repro.stats.snapshot import MachineSnapshot, collect
from repro.system.checkpoint import checkpoint_file_name
from repro.system.config import SystemConfig
from repro.system.fastcore import build_machine, resolve_engine
from repro.system.machine import Machine
from repro.trace.record import AccessChunk, AccessRecord, AccessType, iter_chunks


@dataclass
class SimulationResult:
    """Outcome of one simulation run."""

    config: SystemConfig
    snapshot: MachineSnapshot
    accesses_simulated: int
    workload_name: str = ""
    engine: str = ""

    @property
    def execution_time_ns(self) -> float:
        """Parallel execution time of the run."""
        return self.snapshot.execution_time_ns

    @property
    def policy(self) -> str:
        """Directory allocation policy the run used."""
        return self.snapshot.policy


class Simulator:
    """Drives one machine through one access trace.

    Parameters
    ----------
    config:
        Machine description.
    engine:
        Simulation engine: ``"packed"`` (the default; flat-array cache
        state, see :mod:`repro.system.fastcore`) or ``"reference"``.
        Both produce bit-identical snapshots; ``None`` defers to the
        ``REPRO_ENGINE`` environment variable.  The engine is fixed per
        simulator; the replay path follows the shape of what :meth:`run`
        is fed.
    """

    def __init__(self, config: SystemConfig, engine: Optional[str] = None) -> None:
        self.config = config
        self.engine = resolve_engine(engine)
        self.machine = build_machine(config, self.engine)
        self._finished = False

    # ------------------------------------------------------------------
    def restore(self, blob: bytes) -> None:
        """Restore a machine checkpoint before :meth:`run` (resume support).

        *blob* must have been produced by :meth:`Machine.checkpoint` on
        an identically configured machine of the same engine (enforced
        by the blob's config digest).  The subsequent :meth:`run` call
        continues bit-identically from the checkpointed state, provided
        the caller feeds it the remainder of the same access stream.
        """
        if self._finished:
            raise SimulationError(
                "simulator instances are single-use; build a new one"
            )
        self.machine.restore(blob)

    def run(
        self,
        accesses: Iterable[AccessRecord],
        workload_name: str = "",
        max_accesses: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        checkpoint_start: int = 0,
    ) -> SimulationResult:
        """Replay *accesses* to completion and return the result.

        Parameters
        ----------
        accesses:
            Iterable of access records, already interleaved across
            cores — or of :class:`AccessChunk` blocks, which the packed
            engine replays through its chunk kernel.
        workload_name:
            Label stored in the result (used by the experiment harness).
        max_accesses:
            Optional cap on the number of records replayed, useful for
            smoke tests on long traces.
        checkpoint_every:
            With ``checkpoint_dir``, write an atomic machine checkpoint
            (``epoch-<k>.ckpt``) after every *checkpoint_every* replayed
            accesses.  Epoch boundaries split chunks exactly, so
            checkpointed replay stays bit-identical to plain replay.
        checkpoint_dir:
            Directory receiving the epoch checkpoint files (created as
            needed).
        checkpoint_start:
            Number of accesses already folded into the machine before
            this call (a multiple of *checkpoint_every*): resumed runs
            pass the resume offset here so epoch numbering continues
            where the interrupted run left off.
        """
        if self._finished:
            raise SimulationError("simulator instances are single-use; build a new one")
        accesses, chunked = self._source_shape(accesses)
        if checkpoint_every is not None:
            count = self._replay_checkpointed(
                accesses,
                chunked,
                max_accesses,
                checkpoint_every,
                checkpoint_dir,
                checkpoint_start,
            )
        elif chunked:
            count = self._replay_chunks(accesses, max_accesses)
        else:
            count = self._replay_records(accesses, max_accesses)
        self._finished = True
        snapshot = collect(self.machine)
        return SimulationResult(
            config=self.config,
            snapshot=snapshot,
            accesses_simulated=count,
            workload_name=workload_name,
            engine=self.engine,
        )

    # ------------------------------------------------------------------
    # Replay loops
    # ------------------------------------------------------------------
    def _source_shape(self, accesses):
        """Return ``(stream, chunked)``: *accesses* and the path it takes.

        The first item decides: chunk sources replay through the chunk
        kernel.  A machine without one (the reference engine) gets the
        chunks unpacked into records.
        """
        iterator = iter(accesses)
        first = next(iterator, None)
        if first is None:
            return (), False
        stream = chain((first,), iterator)
        if not isinstance(first, AccessChunk):
            return stream, False
        if hasattr(self.machine, "perform_chunk"):
            return stream, True
        return (record for chunk in stream for record in chunk.records()), False

    def _replay_records(
        self, accesses: Iterable[AccessRecord], max_accesses: Optional[int]
    ) -> int:
        """Per-record replay loop; returns the records consumed.

        Every per-record attribute chain is hoisted into a local so the
        loop body is dict-free.  This loop plus the machine's access
        fast path dominate sweep wall-clock time.
        """
        work_per_access = self.config.core.cpu_work_per_access_ns
        core_count = self.config.core_count
        clocks = [node.clock for node in self.machine.nodes]
        perform_access = self.machine.perform_access
        write_type = AccessType.WRITE
        instruction_type = AccessType.INSTRUCTION
        remaining = float("inf") if max_accesses is None else max_accesses
        count = 0
        for record in accesses:
            if count >= remaining:
                break
            core = record.core
            if core >= core_count:
                raise SimulationError(
                    f"trace references core {core} but the machine has "
                    f"{core_count} cores"
                )
            clock = clocks[core]
            clock.instructions += 1
            clock.now_ns += work_per_access
            access_type = record.access_type
            latency = perform_access(
                core,
                record.process_id,
                record.vaddr,
                access_type is write_type,
                access_type is instruction_type,
            )
            clock.now_ns += latency
            clock.stall_ns += latency
            count += 1
        return count

    def _replay_chunks(self, accesses, max_accesses: Optional[int]) -> int:
        """Chunk replay loop; returns the accesses consumed.

        No per-record Python work happens here: every chunk goes whole
        to the machine's chunk kernel.  A ``max_accesses`` cap is
        honoured mid-chunk by truncation.
        """
        machine = self.machine
        work_per_access = self.config.core.cpu_work_per_access_ns
        count = 0
        for chunk in iter_chunks(accesses):
            remaining = None if max_accesses is None else max_accesses - count
            if remaining is not None and remaining <= 0:
                break
            count += machine.perform_chunk(
                chunk, work_per_access, limit=remaining
            )
        return count

    # ------------------------------------------------------------------
    # Checkpointed replay
    # ------------------------------------------------------------------
    def _replay_checkpointed(
        self,
        accesses,
        chunked: bool,
        max_accesses: Optional[int],
        every: int,
        directory: Optional[Union[str, Path]],
        start: int,
    ) -> int:
        if every <= 0:
            raise SimulationError("checkpoint_every must be positive")
        if directory is None:
            raise SimulationError("checkpoint_every requires checkpoint_dir")
        if start < 0 or start % every != 0:
            raise SimulationError(
                "checkpoint_start must be a non-negative multiple of "
                "checkpoint_every (resume only from epoch boundaries)"
            )
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        if chunked:
            return self._replay_chunks_checkpointed(
                accesses, max_accesses, every, directory, start
            )
        return self._replay_records_checkpointed(
            accesses, max_accesses, every, directory, start
        )

    def _write_checkpoint(self, directory: Path, epoch: int) -> Path:
        # Chaos hook for crash-at-epoch-N injections, then a durable
        # write: checkpoints are the resume substrate, so they must
        # survive power loss, not just process death.
        faults.fire("sim.epoch", key=f"#{epoch}")
        return atomic_write_bytes(
            directory / checkpoint_file_name(epoch),
            self.machine.checkpoint(),
            fsync=True,
        )

    def _replay_records_checkpointed(
        self, accesses, max_accesses, every, directory, start
    ) -> int:
        iterator = iter(accesses)
        total = 0
        while True:
            take = (
                every
                if max_accesses is None
                else min(every, max_accesses - total)
            )
            if take <= 0:
                break
            count = self._replay_records(islice(iterator, take), None)
            total += count
            if count == every:
                self._write_checkpoint(directory, (start + total) // every)
            if count < take:
                break
        return total

    def _replay_chunks_checkpointed(
        self, accesses, max_accesses, every, directory, start
    ) -> int:
        machine = self.machine
        work_per_access = self.config.core.cpu_work_per_access_ns
        total = 0
        for chunk in iter_chunks(accesses):
            size = len(chunk)
            position = 0
            while position < size:
                take = min(size - position, every - (total % every))
                if max_accesses is not None:
                    take = min(take, max_accesses - total)
                    if take <= 0:
                        return total
                sub = (
                    chunk
                    if position == 0 and take == size
                    else chunk.sliced(position, position + take)
                )
                total += machine.perform_chunk(
                    sub, work_per_access, limit=take
                )
                position += take
                if total % every == 0:
                    self._write_checkpoint(directory, (start + total) // every)
            if max_accesses is not None and total >= max_accesses:
                break
        return total


def simulate(
    config: SystemConfig,
    accesses: Iterable[AccessRecord],
    workload_name: str = "",
    max_accesses: Optional[int] = None,
    engine: Optional[str] = None,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`Simulator` and run it once."""
    return Simulator(config, engine=engine).run(
        accesses, workload_name=workload_name, max_accesses=max_accesses
    )
