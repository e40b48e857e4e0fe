"""Synthetic workload generation framework.

The paper evaluates ALLARM on SPLASH2 and Parsec binaries running under a
full-system simulator.  Those binaries (and the simulator) are substituted
here by synthetic generators that reproduce the properties the evaluation
actually depends on:

* the division of each thread's footprint into thread-private and shared
  data, and the *ratio of local to remote requests* this induces at the
  home directories under first-touch NUMA allocation (Figure 2);
* per-benchmark sharing structure — read-shared data initialised by one
  thread (blackscholes), nearest-neighbour halo exchange on a partitioned
  grid (ocean), pipelined hand-off between stages (dedup, x264),
  irregular power-law sharing (barnes, cholesky) — because it determines
  how much probe-filter state the shared data needs and how painful
  probe-filter evictions are;
* working-set sizes relative to the L2 and the probe filter, because they
  control whether misses are coherence-driven (where ALLARM helps) or
  capacity-driven (fluidanimate, where it does not).

A workload is described declaratively by a :class:`WorkloadSpec` holding
:class:`RegionSpec` entries plus an access mix, and materialised by
:class:`SyntheticWorkload`, which yields the interleaved access stream the
trace-driven simulator consumes.  Generation is deterministic for a given
seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import WorkloadError
from repro.trace.record import AccessRecord, AccessType
from repro.workloads.patterns import PhaseSpec, generate_phases

#: Virtual address where workload regions start being laid out.
_LAYOUT_BASE = 0x1000_0000
#: Gap left between regions so that they never share a page.
_LAYOUT_GAP = 1 << 20
#: Page and line sizes assumed by the layout (match the machine defaults).
PAGE_SIZE = 4096
LINE_SIZE = 64


# ----------------------------------------------------------------------
# Specifications
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RegionSpec:
    """One logical data region of a workload.

    Parameters
    ----------
    name:
        Key used by the access mix.
    kind:
        ``"private"`` regions are instantiated once per thread and only
        ever touched by their owner; ``"shared"`` regions exist once and
        are touched according to *sharing*.
    bytes_per_instance:
        Size of one instance (per thread for private, total for shared).
    sharing:
        For shared regions: ``"uniform"`` (any thread touches any line),
        ``"producer"`` (thread 0 first-touches everything and remains
        the only writer; all other threads read it), ``"halo"`` (the
        region is partitioned into per-thread chunks; threads mostly
        touch their own chunk and sometimes a neighbour's boundary),
        ``"pipeline"`` (chunk *t* is written by thread *t* and read by
        thread *t + 1*), ``"zipf"`` (power-law popularity over the whole
        region), or ``"migratory"`` (lock-style: ownership of the region
        migrates around the threads in bursts — the holder reads and
        writes it while every other thread only reads, as a spinning
        waiter does).
    reuse:
        Address selection within the chosen chunk: ``"zipf"`` (hot
        subset), ``"sequential"`` (streaming) or ``"uniform"``.
    write_fraction:
        Probability that an access to this region is a store.
    neighbour_fraction:
        For ``"halo"`` sharing: probability of touching a neighbour's
        boundary chunk instead of the thread's own chunk.
    """

    name: str
    kind: str
    bytes_per_instance: int
    sharing: str = "uniform"
    reuse: str = "zipf"
    write_fraction: float = 0.3
    neighbour_fraction: float = 0.15

    def __post_init__(self) -> None:
        if self.kind not in ("private", "shared"):
            raise WorkloadError(f"region {self.name}: unknown kind {self.kind!r}")
        if self.sharing not in (
            "uniform",
            "producer",
            "halo",
            "pipeline",
            "zipf",
            "migratory",
        ):
            raise WorkloadError(
                f"region {self.name}: unknown sharing {self.sharing!r}"
            )
        if self.reuse not in ("zipf", "sequential", "uniform"):
            raise WorkloadError(f"region {self.name}: unknown reuse {self.reuse!r}")
        if self.bytes_per_instance < PAGE_SIZE:
            raise WorkloadError(
                f"region {self.name}: must be at least one page "
                f"({self.bytes_per_instance} bytes given)"
            )
        if not 0.0 <= self.write_fraction <= 1.0:
            raise WorkloadError(f"region {self.name}: bad write fraction")


@dataclass(frozen=True)
class WorkloadSpec:
    """Complete description of one synthetic benchmark.

    ``phases`` optionally carries an ordered tuple of
    :class:`~repro.workloads.patterns.PhaseSpec` entries; a phased spec's
    compute stream is the barrier-separated concatenation of the phase
    streams (see :mod:`repro.workloads.patterns`) instead of the single
    stationary mix loop.  ``total_accesses`` stays the one run-length
    knob: it is apportioned across the phases by weight, so
    :meth:`scaled` shrinks a phased run without changing its structure.
    """

    name: str
    regions: Tuple[RegionSpec, ...]
    mix: Dict[str, float]
    thread_count: int = 16
    total_accesses: int = 200_000
    seed: int = 42
    process_id: int = 0
    core_offset: int = 0
    include_init_phase: bool = True
    description: str = ""
    phases: Tuple[PhaseSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.thread_count <= 0:
            raise WorkloadError("thread_count must be positive")
        if self.total_accesses <= 0:
            raise WorkloadError("total_accesses must be positive")
        names = {region.name for region in self.regions}
        if len(names) != len(self.regions):
            raise WorkloadError(f"{self.name}: duplicate region names")
        for key in self.mix:
            if key not in names:
                raise WorkloadError(f"{self.name}: mix references unknown region {key!r}")
        total = sum(self.mix.values())
        if total <= 0:
            raise WorkloadError(f"{self.name}: access mix sums to zero")
        phase_names = {phase.name for phase in self.phases}
        if len(phase_names) != len(self.phases):
            raise WorkloadError(f"{self.name}: duplicate phase names")
        for phase in self.phases:
            if phase.region is not None and phase.region not in names:
                raise WorkloadError(
                    f"{self.name}: phase {phase.name!r} targets unknown "
                    f"region {phase.region!r}"
                )

    def scaled(self, scale: float) -> "WorkloadSpec":
        """Return a copy with the access count scaled by *scale*.

        Region sizes are left unchanged so that working-set ratios (and
        therefore miss behaviour) are preserved; only run length shrinks.
        """
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        accesses = max(1000, int(self.total_accesses * scale))
        return replace(self, total_accesses=accesses)

    def with_footprint_scale(self, scale: int) -> "WorkloadSpec":
        """Return a copy with every region's footprint divided by *scale*.

        Used together with
        :func:`repro.system.config.experiment_config`, which scales the
        caches and probe filter by the same factor, so that the ratios of
        working set to L2 and to probe-filter coverage — the quantities
        the paper's behaviour depends on — are preserved while simulation
        cost drops by roughly the scale factor.
        """
        if scale <= 0:
            raise WorkloadError("footprint scale must be positive")
        regions = tuple(
            replace(
                region,
                bytes_per_instance=max(
                    PAGE_SIZE,
                    (region.bytes_per_instance // scale) // PAGE_SIZE * PAGE_SIZE,
                ),
            )
            for region in self.regions
        )
        return replace(self, regions=regions)

    def with_threads(self, thread_count: int, core_offset: int = 0) -> "WorkloadSpec":
        """Return a copy running on a different number of threads/cores."""
        return replace(self, thread_count=thread_count, core_offset=core_offset)

    def with_process(self, process_id: int) -> "WorkloadSpec":
        """Return a copy tagged with a different process id."""
        return replace(self, process_id=process_id)


# ----------------------------------------------------------------------
# Layout
# ----------------------------------------------------------------------
@dataclass
class _RegionInstance:
    """A concrete placed instance of a region in virtual memory."""

    spec: RegionSpec
    owner_thread: Optional[int]
    base_vaddr: int
    size_bytes: int

    @property
    def line_count(self) -> int:
        return self.size_bytes // LINE_SIZE

    @property
    def page_count(self) -> int:
        return self.size_bytes // PAGE_SIZE

    def line_vaddr(self, line_index: int) -> int:
        return self.base_vaddr + (line_index % self.line_count) * LINE_SIZE


class SyntheticWorkload:
    """Materialises a :class:`WorkloadSpec` into an access stream."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec
        self._layout_cursor = _LAYOUT_BASE + spec.process_id * (1 << 34)
        self._instances: Dict[str, List[_RegionInstance]] = {}
        self._mix_names: List[str] = []
        self._mix_weights: List[float] = []
        self._regions_by_name: Dict[str, RegionSpec] = {
            region.name: region for region in spec.regions
        }
        self._build_layout()
        self._build_mix()
        self._reset_stream_state()

    def _reset_stream_state(self) -> None:
        """Rewind the per-stream mutable state to the start of the run.

        Everything the stream draws on as it advances — the seeded RNG,
        the sequential-reuse cursors, migratory-lock ownership — lives
        here and is re-armed at the start of every :meth:`generate`
        call.  Without the reset, a second generation pass on the same
        instance would match the (RNG-free) init phase and then drift
        from the first compute access onward, which is exactly how a
        chunked pass (``chunk_records(generate())``) used to diverge from
        a prior streamed pass at the init -> compute phase boundary.
        """
        self._rng = random.Random(self.spec.seed)
        self._cursors: Dict[Tuple[str, int], int] = {}
        # Migratory regions: region name -> [current holder, accesses the
        # holder has left before ownership passes on].
        self._migratory_state: Dict[str, List[int]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Benchmark name from the spec."""
        return self.spec.name

    def generate(self) -> Iterator[AccessRecord]:
        """Yield the full interleaved access stream (init + compute).

        Every call yields the same deterministic stream: the per-stream
        state (RNG, cursors, lock ownership) is reset when iteration
        begins, so every pass is bit-identical and re-entrant on one
        instance.  (Two streams *interleaved* from the same instance
        still share that state and are not supported — consume one
        fully before starting the next.)
        """
        self._reset_stream_state()
        if self.spec.include_init_phase:
            yield from self._init_phase()
        yield from self._compute_phase()

    def access_count_estimate(self) -> int:
        """Rough number of records :meth:`generate` will yield."""
        init = 0
        if self.spec.include_init_phase:
            for instances in self._instances.values():
                init += sum(inst.page_count for inst in instances)
        return init + self.spec.total_accesses

    def footprint_bytes(self) -> int:
        """Total bytes of virtual memory the workload touches."""
        return sum(
            inst.size_bytes
            for instances in self._instances.values()
            for inst in instances
        )

    # ------------------------------------------------------------------
    # Layout and mix construction
    # ------------------------------------------------------------------
    def _build_layout(self) -> None:
        for region in self.spec.regions:
            instances: List[_RegionInstance] = []
            if region.kind == "private":
                for thread in range(self.spec.thread_count):
                    instances.append(self._place(region, owner_thread=thread))
            else:
                instances.append(self._place(region, owner_thread=None))
            self._instances[region.name] = instances

    def _place(self, region: RegionSpec, owner_thread: Optional[int]) -> _RegionInstance:
        size = (region.bytes_per_instance // PAGE_SIZE) * PAGE_SIZE
        instance = _RegionInstance(
            spec=region,
            owner_thread=owner_thread,
            base_vaddr=self._layout_cursor,
            size_bytes=size,
        )
        self._layout_cursor += size + _LAYOUT_GAP
        return instance

    def _build_mix(self) -> None:
        total = sum(self.spec.mix.values())
        cumulative = 0.0
        for name, weight in self.spec.mix.items():
            cumulative += weight / total
            self._mix_names.append(name)
            self._mix_weights.append(cumulative)
        # Guard against floating-point drift so the last bucket always wins.
        self._mix_weights[-1] = 1.0

    # ------------------------------------------------------------------
    # Initialisation phase: establishes first-touch page placement
    # ------------------------------------------------------------------
    def _init_phase(self) -> Iterator[AccessRecord]:
        """Touch one line of every page, by the page's designated first toucher.

        This is what pins each page to a NUMA node under first-touch
        allocation, and it reproduces the initialisation patterns the
        paper calls out (e.g. blackscholes' data being initialised by
        thread 0 and then shared read-only by the other threads).
        """
        for region_name in sorted(self._instances):
            for instance in self._instances[region_name]:
                yield from self._init_instance(instance)

    def _init_instance(self, instance: _RegionInstance) -> Iterator[AccessRecord]:
        region = instance.spec
        for page in range(instance.page_count):
            toucher = self._first_toucher(instance, page)
            vaddr = instance.base_vaddr + page * PAGE_SIZE
            yield AccessRecord(
                core=self._core_of(toucher),
                vaddr=vaddr,
                access_type=AccessType.WRITE,
                process_id=self.spec.process_id,
            )

    def _first_toucher(self, instance: _RegionInstance, page: int) -> int:
        region = instance.spec
        if region.kind == "private":
            return instance.owner_thread or 0
        if region.sharing in ("producer", "migratory"):
            # Producer data and lock structures are allocated (and hence
            # first touched) by the main thread.
            return 0
        if region.sharing in ("halo", "pipeline"):
            pages_per_thread = max(1, instance.page_count // self.spec.thread_count)
            return min(page // pages_per_thread, self.spec.thread_count - 1)
        # Uniform / zipf shared data: pages are first touched by the thread
        # that happens to reach them first; model this as striped.
        return page % self.spec.thread_count

    # ------------------------------------------------------------------
    # Compute phase
    # ------------------------------------------------------------------
    def _compute_phase(self) -> Iterator[AccessRecord]:
        if self.spec.phases:
            yield from generate_phases(self)
            return
        per_thread = self.spec.total_accesses // self.spec.thread_count
        remainder = self.spec.total_accesses - per_thread * self.spec.thread_count
        counts = [
            per_thread + (1 if t < remainder else 0)
            for t in range(self.spec.thread_count)
        ]
        issued = [0] * self.spec.thread_count
        # Round-robin interleaving approximates the loose lock-step of the
        # data-parallel benchmarks without modelling synchronisation.
        while any(issued[t] < counts[t] for t in range(self.spec.thread_count)):
            for thread in range(self.spec.thread_count):
                if issued[thread] >= counts[thread]:
                    continue
                issued[thread] += 1
                yield self._one_access(thread)

    def _one_access(self, thread: int) -> AccessRecord:
        region_name = self._pick_region()
        region = self._regions_by_name[region_name]
        instance, chunk, owned = self._pick_instance_and_chunk(
            region, region_name, thread
        )
        vaddr = self._pick_address(instance, chunk, thread, region)
        # Accesses to another thread's chunk (halo reads, pipeline input)
        # are loads: stencil and pipeline codes read their neighbours' data
        # and write their own, which is what keeps remotely-homed lines
        # read-shared rather than migratory.
        if owned:
            is_write = self._rng.random() < region.write_fraction
        else:
            is_write = False
        return AccessRecord(
            core=self._core_of(thread),
            vaddr=vaddr,
            access_type=AccessType.WRITE if is_write else AccessType.READ,
            process_id=self.spec.process_id,
        )

    def _pick_region(self) -> str:
        draw = self._rng.random()
        for name, cumulative in zip(self._mix_names, self._mix_weights):
            if draw <= cumulative:
                return name
        return self._mix_names[-1]

    def _pick_instance_and_chunk(
        self, region: RegionSpec, region_name: str, thread: int
    ) -> Tuple[_RegionInstance, Tuple[int, int], bool]:
        """Return the instance, the (start_line, line_count) chunk, and
        whether the chunk belongs to the accessing thread (owned chunks may
        be written; foreign chunks are only read)."""
        instances = self._instances[region_name]
        if region.kind == "private":
            instance = instances[thread]
            return instance, (0, instance.line_count), True

        instance = instances[0]
        lines = instance.line_count
        threads = self.spec.thread_count
        chunk_lines = max(1, lines // threads)

        if region.sharing in ("uniform", "zipf"):
            return instance, (0, lines), True
        if region.sharing == "producer":
            # Thread 0 initialised the data and remains its only writer;
            # every other thread reads it (blackscholes' portfolio).  A
            # previous version returned owned=True for every thread,
            # which let all of them write data the model documents as
            # init-by-thread-0 then read-shared.
            return instance, (0, lines), thread == 0
        if region.sharing == "migratory":
            state = self._migratory_state.get(region_name)
            if state is None:
                state = [0, self.MIGRATORY_BURST]
                self._migratory_state[region_name] = state
            holder, remaining = state
            if thread != holder:
                # Waiters spin-read the lock word and guarded data.
                return instance, (0, lines), False
            if remaining <= 1:
                state[0] = (holder + 1) % threads
                state[1] = self.MIGRATORY_BURST
            else:
                state[1] = remaining - 1
            return instance, (0, lines), True
        if region.sharing == "halo":
            target = thread
            if self._rng.random() < region.neighbour_fraction:
                delta = self._rng.choice((-1, 1))
                target = (thread + delta) % threads
            return instance, (target * chunk_lines, chunk_lines), target == thread
        # pipeline: read the previous stage's chunk, write our own.
        if self._rng.random() < region.write_fraction:
            target = thread
        else:
            target = (thread - 1) % threads
        return instance, (target * chunk_lines, chunk_lines), target == thread

    def _pick_address(
        self,
        instance: _RegionInstance,
        chunk: Tuple[int, int],
        thread: int,
        region: RegionSpec,
    ) -> int:
        start_line, line_count = chunk
        if region.reuse == "sequential":
            key = (region.name, thread)
            cursor = self._cursors.get(key, 0)
            self._cursors[key] = cursor + 1
            line = start_line + (cursor % line_count)
        elif region.reuse == "zipf":
            line = start_line + self._zipf_index(line_count)
        else:
            line = start_line + self._rng.randrange(line_count)
        return instance.line_vaddr(line)

    #: Accesses a migratory region's holder performs before ownership
    #: passes to the next thread — a critical section of a handful of
    #: read-modify-writes, as lock-protected updates are.
    MIGRATORY_BURST = 6

    #: Fraction of a region treated as its hot subset under "zipf" reuse.
    HOT_FRACTION = 0.12
    #: Upper bound on the hot subset, in lines.  Real benchmarks reuse a
    #: cacheable working set regardless of how large their total footprint
    #: is; capping the hot subset keeps that true for the synthetic
    #: generators even on multi-megabyte shared regions.
    HOT_LINES_CAP = 192
    #: Fraction of accesses that go to the hot subset (the rest are uniform
    #: over the whole region, giving the long multi-reader tail that keeps
    #: sparse directories under pressure).
    HOT_WEIGHT = 0.7

    def _zipf_index(self, line_count: int) -> int:
        """Skewed index in ``[0, line_count)``: a hot subset plus a long tail.

        The two-tier shape approximates the power-law reuse of the real
        benchmarks: most accesses hit a small, cacheable hot set, while the
        remainder sweep the whole region, so over a run a large fraction of
        the region is touched by more than one thread — the behaviour that
        populates (and pressures) the home directories.
        """
        hot_lines = max(1, min(int(line_count * self.HOT_FRACTION), self.HOT_LINES_CAP))
        if self._rng.random() < self.HOT_WEIGHT:
            return self._rng.randrange(hot_lines)
        return self._rng.randrange(line_count)

    def _core_of(self, thread: int) -> int:
        return self.spec.core_offset + thread


# ----------------------------------------------------------------------
# Helpers used by the registry and experiments
# ----------------------------------------------------------------------
def materialize(spec: WorkloadSpec) -> List[AccessRecord]:
    """Generate the whole access stream into a list (small workloads only)."""
    return list(SyntheticWorkload(spec).generate())


def interleave(streams: List[Iterator[AccessRecord]]) -> Iterator[AccessRecord]:
    """Round-robin interleave several access streams until all are exhausted.

    Used by the multi-process workloads (Section III-B) to co-schedule two
    independent single-threaded benchmark copies.
    """
    active = list(streams)
    while active:
        still_active = []
        for stream in active:
            try:
                yield next(stream)
            except StopIteration:
                continue
            still_active.append(stream)
        active = still_active
