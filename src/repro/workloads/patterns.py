"""Multi-phase access-pattern DSL layered over :class:`SyntheticWorkload`.

The base workload model (:mod:`repro.workloads.base`) generates one
statistically stationary compute stream: the access mix, reuse and
sharing behaviour are the same at access 1 and access 1,000,000.  Real
programs are not stationary — they warm caches with a sequential fill,
settle into a steady state, and periodically thrash through data that
does not fit anywhere.  This module adds that time axis as a small,
composable DSL in the spirit of wiscsee's ``patternsuite.py`` phase
combinators: a workload may carry an ordered tuple of
:class:`PhaseSpec` entries, and its compute stream becomes the
barrier-separated concatenation of the phase streams.

Patterns
--------
``sequential-fill``
    Every thread walks its partition of the target region in address
    order (stores by default) — the warmup/initialisation shape that
    populates caches, probe filter and page tables.
``random-read``
    Uniform random loads over the *whole* target region, ignoring the
    per-thread partition — the capacity-thrash shape that sweeps working
    sets much larger than any cache and maximises sharer-set growth.
``snake``
    Each thread sweeps its partition forward, then backward, alternating
    per pass (wiscsee's snake): sequential locality without the
    wrap-around cold miss at each pass boundary.
``stride``
    Each thread walks its partition with a fixed line stride
    (``stride_lines``), wrapping modulo the partition — the
    power-of-two-conflict shape that defeats set-indexed structures.
``mix``
    The base model's stationary compute behaviour (region mix, reuse,
    sharing modes) for this phase's share of the run — the steady state
    between warmup and thrash phases.

Barriers
--------
Phases are barrier-separated: every thread issues all of its accesses
for phase *k* (round-robin interleaved, like the base compute loop)
before any thread issues an access of phase *k + 1*.  No synchronisation
cost is modelled — the barrier is purely an ordering constraint on the
generated stream, matching how the base model already treats the
init -> compute transition.

Reproducibility
---------------
Phase streams draw from the workload's single seeded RNG in generation
order, so a phased stream is a pure function of
(:class:`~repro.workloads.base.WorkloadSpec`, seed) exactly like an
unphased one, and packing it into chunks
(:func:`~repro.trace.record.chunk_records`) keeps the identical record
sequence across phase boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.trace.record import AccessRecord, AccessType

#: The pattern vocabulary of the DSL.
PHASE_PATTERNS: Tuple[str, ...] = (
    "sequential-fill",
    "random-read",
    "snake",
    "stride",
    "mix",
)

#: Store probability per pattern when the phase does not pin one.  Fills
#: write (they initialise data), thrash patterns mostly read.
DEFAULT_WRITE_FRACTIONS = {
    "sequential-fill": 1.0,
    "random-read": 0.0,
    "snake": 0.15,
    "stride": 0.05,
}


@dataclass(frozen=True)
class PhaseSpec:
    """One phase of a multi-phase workload.

    Parameters
    ----------
    name:
        Label for manifests and diagnostics (unique within a spec).
    pattern:
        One of :data:`PHASE_PATTERNS`.
    weight:
        This phase's share of the spec's ``total_accesses``; weights are
        normalised over the phase tuple, so ``scaled()`` keeps the phase
        structure while shrinking the run.
    region:
        Target region name.  Required for every pattern except ``mix``,
        which replays the spec-wide access mix and must leave it unset.
    write_fraction:
        Store probability; ``None`` uses the pattern default
        (:data:`DEFAULT_WRITE_FRACTIONS`).
    stride_lines:
        Line stride of the ``stride`` pattern (ignored elsewhere).
    """

    name: str
    pattern: str
    weight: float = 1.0
    region: Optional[str] = None
    write_fraction: Optional[float] = None
    stride_lines: int = 16

    def __post_init__(self) -> None:
        if not self.name:
            raise WorkloadError("phase needs a non-empty name")
        if self.pattern not in PHASE_PATTERNS:
            raise WorkloadError(
                f"phase {self.name}: unknown pattern {self.pattern!r}; "
                f"expected one of {PHASE_PATTERNS}"
            )
        if not self.weight > 0:
            raise WorkloadError(f"phase {self.name}: weight must be positive")
        if self.pattern == "mix":
            if self.region is not None:
                raise WorkloadError(
                    f"phase {self.name}: 'mix' replays the spec-wide access "
                    f"mix and may not target a single region"
                )
        elif self.region is None:
            raise WorkloadError(
                f"phase {self.name}: pattern {self.pattern!r} needs a region"
            )
        if self.write_fraction is not None and not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(f"phase {self.name}: bad write fraction")
        if self.stride_lines <= 0:
            raise WorkloadError(f"phase {self.name}: stride_lines must be positive")


def phase_counts(total_accesses: int, phases: Tuple[PhaseSpec, ...]) -> List[int]:
    """Split *total_accesses* across *phases* by weight, deterministically.

    Largest-remainder apportionment with the remainder handed out in
    phase order, so the counts are a pure function of the inputs and sum
    exactly to *total_accesses*.
    """
    if not phases:
        return []
    total_weight = sum(phase.weight for phase in phases)
    counts = [int(total_accesses * phase.weight / total_weight) for phase in phases]
    shortfall = total_accesses - sum(counts)
    for i in range(shortfall):
        counts[i % len(counts)] += 1
    return counts


def _thread_counts(total: int, threads: int) -> List[int]:
    """Per-thread access counts, same split as the base compute phase."""
    per_thread = total // threads
    remainder = total - per_thread * threads
    return [per_thread + (1 if t < remainder else 0) for t in range(threads)]


def generate_phases(workload) -> Iterator[AccessRecord]:
    """Yield the compute stream of a phased workload.

    *workload* is a :class:`~repro.workloads.base.SyntheticWorkload`
    whose spec carries phases.  Phases run strictly in order
    (barrier-separated); within each phase, threads are round-robin
    interleaved exactly like the base compute loop.
    """
    spec = workload.spec
    counts = phase_counts(spec.total_accesses, spec.phases)
    for phase, count in zip(spec.phases, counts):
        yield from _generate_phase(workload, phase, count)


def _generate_phase(workload, phase: PhaseSpec, total: int) -> Iterator[AccessRecord]:
    spec = workload.spec
    threads = spec.thread_count
    counts = _thread_counts(total, threads)
    if phase.pattern == "mix":
        issued = [0] * threads
        while any(issued[t] < counts[t] for t in range(threads)):
            for thread in range(threads):
                if issued[thread] >= counts[thread]:
                    continue
                issued[thread] += 1
                yield workload._one_access(thread)
        return

    rng = workload._rng
    write_fraction = phase.write_fraction
    if write_fraction is None:
        write_fraction = DEFAULT_WRITE_FRACTIONS[phase.pattern]
    instances = workload._instances[phase.region]
    private = instances[0].spec.kind == "private"
    shared_instance = instances[0]
    # Per-thread partition of a shared region (private regions already
    # have one instance per thread and need no partitioning).
    chunk_lines = max(1, shared_instance.line_count // threads)

    cursors = [0] * threads
    issued = [0] * threads
    stride = phase.stride_lines
    while any(issued[t] < counts[t] for t in range(threads)):
        for thread in range(threads):
            if issued[thread] >= counts[thread]:
                continue
            issued[thread] += 1
            if private:
                instance = instances[thread]
                start_line, part_lines = 0, instance.line_count
            else:
                instance = shared_instance
                start_line, part_lines = thread * chunk_lines, chunk_lines
            if phase.pattern == "sequential-fill":
                line = start_line + cursors[thread] % part_lines
                cursors[thread] += 1
            elif phase.pattern == "snake":
                position = cursors[thread] % part_lines
                sweep = cursors[thread] // part_lines
                if sweep % 2:
                    position = part_lines - 1 - position
                line = start_line + position
                cursors[thread] += 1
            elif phase.pattern == "stride":
                line = start_line + (cursors[thread] * stride) % part_lines
                cursors[thread] += 1
            else:  # random-read: thrash the whole region, partition ignored
                line = rng.randrange(instance.line_count)
            is_write = rng.random() < write_fraction
            yield AccessRecord(
                core=workload._core_of(thread),
                vaddr=instance.line_vaddr(line),
                access_type=AccessType.WRITE if is_write else AccessType.READ,
                process_id=spec.process_id,
            )
