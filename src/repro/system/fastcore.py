"""The packed simulation engine: :class:`PackedMachine` and engine selection.

Two engines can drive the paper's evaluation:

* ``"reference"`` — the original :class:`~repro.system.machine.Machine`
  over the dataclass/dict cache model.  Clear, introspectable, slow.
* ``"packed"`` — :class:`PackedMachine`, which swaps every node's cache
  hierarchy for the flat-array :class:`~repro.cache.packed.PackedHierarchy`,
  every node's sparse directory for the flat-array
  :class:`~repro.core.packed_directory.PackedProbeFilter`, and services
  both the hit-dominated common case (index arithmetic inlined straight
  into :meth:`PackedMachine.perform_access`) and *every* steady-state
  miss flavour — probe-filter hits, ALLARM no-allocate local misses,
  allocations into a free way, allocations that evict a probe-filter
  victim (invalidation fan-out included) and L2 eviction notifications
  — without leaving the packed representation.  Each node's directory
  is a :class:`~repro.core.packed_directory.PackedDirectory`, the only
  directory a packed machine builds.  Cold translations go
  straight to the allocator's first-touch mapping (no redundant memo
  re-probe) and are counted in ``translation_fills``.  A packed
  machine never enters the reference miss machinery
  (``Machine._service_miss``) and builds no reference
  ``DirectoryController``; the reference engine keeps running them in
  every differential suite.

The packed engine takes accesses in either shape, and the input picks
the path: :meth:`PackedMachine.perform_access` replays one record at a
time, and :meth:`PackedMachine.perform_chunk` hands a columnar
:class:`~repro.trace.record.AccessChunk` block to the vectorised chunk
kernel (:mod:`repro.system.batchcore`), which is imported and bound on
the first chunk — record-fed runs never load it or numpy.  The
simulator sends chunk sources (v3 blocked traces) down the chunk path
and record sources down the per-record loop.

The two engines must produce **bit-identical**
:class:`~repro.stats.snapshot.MachineSnapshot`\\ s for any config and
access stream, in either shape; ``tests/test_cross_engine.py`` enforces
this across the policy × probe-filter-size × eviction-mode grid on every
registered workload family, and the lock-step fuzzer
(``tests/test_conformance_fuzz.py``) compares every node's resident
cache lines (state and way) and probe-filter entries mid-run.
``packed`` is the default engine; pass ``engine="reference"`` (or
``--engine reference``) to fall back.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.cache.packed import (
    CODE_CAN_WRITE,
    CODE_IS_DIRTY,
    CODE_IS_OWNER,
    STATE_INVALID,
    STATE_MODIFIED,
    PackedHierarchy,
)
from repro.core.packed_directory import (
    GETS,
    GETX,
    KINDS,
    PackedDirectory,
    PackedProbeFilter,
    fold_message_tally,
    route_latencies,
)
from repro.errors import ConfigurationError
from repro.memory.dram import Dram
from repro.system.config import SystemConfig
from repro.system.machine import Machine
from repro.trace.record import AccessChunk

#: Engine names accepted everywhere an engine can be chosen.
ENGINES = ("reference", "packed")

#: The engine used when none is requested (verified bit-identical to the
#: reference engine; see docs/performance.md).
DEFAULT_ENGINE = "packed"

#: Chunk-path counters, kept by the chunk kernel and reported by
#: :meth:`PackedMachine.batch_summary` (all zero on a record-fed run).
CHUNK_COUNTERS = (
    "chunks", "accesses", "bulk_hits", "residue", "reclassifies",
    "fallback_accesses",
)


def resolve_engine(engine: Optional[str]) -> str:
    """Validate an engine name; ``None`` means :data:`DEFAULT_ENGINE`."""
    if engine is None:
        engine = DEFAULT_ENGINE
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; expected one of {ENGINES}"
        )
    return engine


def build_machine(config: SystemConfig, engine: Optional[str] = None) -> Machine:
    """Build the machine implementation for *engine* (default: packed)."""
    if resolve_engine(engine) == "packed":
        return PackedMachine(config)
    return Machine(config)


class PackedMachine(Machine):
    """The reference machine over packed arrays, with an inlined hot path.

    Construction and the NUMA/network/DRAM components are inherited;
    the node hierarchies and probe filters (via :attr:`hierarchy_class`
    and :attr:`probe_filter_class`), the node directories (via
    :meth:`_build_directories`) and the per-access entry point are
    packed.  :meth:`perform_access` is one flat body: L1 and L2 lookups,
    the request side of the directory transaction, the L2 fill with its
    victim's inclusion drop and notice or writeback, and one L1 fill
    that the L2 hit and the L2 fill both end in.  The per-flavour
    directory work (probe-filter hit or miss, victim fan-out, eviction
    notices) is a call into the home node's
    :class:`~repro.core.packed_directory.PackedDirectory`.
    """

    hierarchy_class = PackedHierarchy
    probe_filter_class = PackedProbeFilter

    #: Eviction-notification modes, coded for the miss fast path.
    _EVICT_MODES = {"none": 0, "owned": 1, "dirty": 2}

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        # Hot-path bindings: one list index replaces the node -> caches ->
        # level attribute chain.  Each entry is (L1D, L1I, L2), so a
        # bool ``is_instruction`` picks the L1.  The caches are mutated
        # in place, so these aliases never go stale.
        self._levels = [
            (node.caches.l1d, node.caches.l1i, node.caches.l2)
            for node in self.nodes
        ]
        self._clocks = [node.clock for node in self.nodes]
        self._core_count = len(self.nodes)
        # Alias of the allocator's translation map (mutated in place,
        # never rebound) so the fast path can service a warm translation
        # without a call.  The memo-hit body below must mirror
        # NumaAllocator.translate exactly; the allocator's own affinity
        # check is subsumed by this method's core bounds check (every
        # core is its own node).
        self._translation_memo = self.allocator._translation_cache
        self._translate_fill = self.allocator._translate_slow
        self._page_size = config.os.page_size
        # Miss path: the node directories, indexed by home node.
        self._directories = [node.directory for node in self.nodes]
        self._evict_mode = self._EVICT_MODES[config.directory.eviction_notification]
        self.translation_fills = 0
        # The chunk kernel binds on the first chunk (perform_chunk).  It
        # is the only chunk-path attribute here: past 29 instance
        # attributes CPython stops sharing dict keys between instances,
        # which slows every ``self.`` load on the per-access hot path.
        self._chunk_kernel = None

    def _build_directories(
        self,
        caches: List[PackedHierarchy],
        probe_filters: List[PackedProbeFilter],
        drams: List[Dram],
    ) -> List[PackedDirectory]:
        """One packed directory per node, sharing one message tally and
        the per-route latency lists."""
        nodes = len(caches)
        counts = [0] * (nodes * nodes * KINDS)
        routes = route_latencies(self.network, self.sizing, nodes)
        return [
            PackedDirectory(
                node_id, probe_filter, dram, caches,
                self._build_policy(node_id), self.config, counts, *routes,
            )
            for node_id, (probe_filter, dram) in enumerate(zip(probe_filters, drams))
        ]

    def settle_stats(self) -> None:
        """Fold the directories' message tally into ``NetworkStats``."""
        fold_message_tally(
            self._directories[0].counts, self.network, self.sizing, self._core_count
        )

    def perform_access(
        self,
        core: int,
        process_id: int,
        vaddr: int,
        is_write: bool,
        is_instruction: bool = False,
    ) -> float:
        """Execute one memory access on *core*; return its latency in ns.

        Behaviourally identical to :meth:`Machine.perform_access` (same
        counters, same replacement decisions, same latencies).  The L1
        read hit — the overwhelmingly common case on the paper's
        workloads — completes after one memoized translation and one
        residency-map probe, with LRU touched by a single stamp store.
        No lookup raises: a miss is a ``dict.get`` default, and a fill
        picks its way with one ``min`` over the set's stamps.
        """
        if core < 0 or core >= self._core_count:
            raise ConfigurationError(
                f"core {core} out of range for a {self._core_count}-core machine"
            )
        page_size = self._page_size
        vpage = vaddr // page_size
        frame_base = self._translation_memo.get((process_id, vpage))
        if frame_base is not None:
            paddr = frame_base + (vaddr - vpage * page_size)
        else:
            # Cold translation: map the page directly, skipping the
            # memo re-probe inside NumaAllocator.translate that is
            # known to miss.
            self.translation_fills += 1
            paddr = self._translate_fill(process_id, core, vaddr, vpage)
        line = paddr & self._line_mask
        self._clocks[core].memory_accesses += 1

        levels = self._levels[core]
        l1 = levels[is_instruction]
        l2 = levels[2]
        slot = l1.where.get(line, -1)
        if slot >= 0:
            # L1 hit: count, stamp; a read is done.
            l1.hits += 1
            stamp = l1.stamp + 1
            l1.stamp = stamp
            l1.stamps[slot] = stamp
            if not is_write:
                return self._cache_latency
            l2_slot = l2.where.get(line, -1)
            if l2_slot < 0:
                raise ConfigurationError(
                    f"inclusion violated: line {line:#x} in "
                    f"{l1.name} but not in {l2.name}"
                )
            if CODE_CAN_WRITE[l2.states[l2_slot]]:
                l2.states[l2_slot] = STATE_MODIFIED
                return self._cache_latency
            # Present but not writable: an upgrade transaction follows.
            transaction = True
        else:
            l1.misses += 1
            l2_slot = l2.where.get(line, -1)
            if l2_slot >= 0:
                l2.hits += 1
                stamp = l2.stamp + 1
                l2.stamp = stamp
                l2.stamps[l2_slot] = stamp
                fill_code = l2.states[l2_slot]
                transaction = is_write and not CODE_CAN_WRITE[fill_code]
                if is_write and not transaction:
                    l2.states[l2_slot] = fill_code = STATE_MODIFIED
                latency = self._cache_latency
            else:
                l2.misses += 1
                transaction = True

        if transaction:
            # The request side of DirectoryController.service_request.
            directory = self._directories[line // self._bytes_per_node]
            home = directory.node_id
            stats = directory.stats
            if core == home:
                stats.local_requests += 1
            else:
                stats.remote_requests += 1
            route = core * self._core_count + home
            if is_write:
                directory.counts[route * KINDS + GETX] += 1
            else:
                directory.counts[route * KINDS + GETS] += 1
            latency = directory.ctl_lat[route] + directory.dir_ns
            pf = directory.probe_filter
            pf.reads += 1
            pf_slot = pf.where.get(line, -1)
            if pf_slot >= 0:
                pf.hits += 1
                stamp = pf.stamp + 1
                pf.stamp = stamp
                pf.stamps[pf_slot] = stamp
                if is_write:
                    sub, fill_code = directory._hit_write(pf_slot, core, line)
                else:
                    sub, fill_code = directory._hit_read(pf_slot, core, line)
            else:
                pf.misses += 1
                sub, fill_code = directory._miss(core, line, is_write)
            latency = self._cache_latency + (latency + sub)
            self.transactions_serviced += 1

            if l2_slot >= 0:
                # An upgrade: the line is already resident (and the
                # directory work never moves it), so only its state
                # changes, in the L2 and in each L1 holding it.
                l2.states[l2_slot] = fill_code
                for cache in (levels[0], levels[1]):
                    slot = cache.where.get(line, -1)
                    if slot >= 0:
                        cache.states[slot] = fill_code
                return latency

            # L2 fill into the first free way, else the LRU way: every
            # fill stamps its slot positive and a free slot holds 0, so
            # the first minimum stamp is that way.
            assoc = l2.associativity
            base = ((line >> l2.line_shift) & l2.set_mask) * assoc
            stamps = l2.stamps
            window = stamps[base:base + assoc]
            l2_slot = base + window.index(min(window))
            victim = l2.tags[l2_slot]
            if victim >= 0:
                # The victim leaves both L1s (inclusion), then notifies
                # its home directory or writes back.
                victim_code = l2.states[l2_slot]
                del l2.where[victim]
                l2.evictions += 1
                for cache in (levels[0], levels[1]):
                    slot = cache.where.pop(victim, -1)
                    if slot >= 0:
                        cache.tags[slot] = -1
                        cache.states[slot] = STATE_INVALID
                        cache.stamps[slot] = 0
                mode = self._evict_mode
                if mode == 1:
                    notify = CODE_IS_OWNER[victim_code]  # owned or dirty
                elif mode == 2:
                    notify = CODE_IS_DIRTY[victim_code]
                else:
                    notify = False
                if notify:
                    self._directories[victim // self._bytes_per_node].handle_eviction(
                        core, victim, victim_code
                    )
                elif CODE_IS_DIRTY[victim_code]:
                    # Even without a directory notification, dirty data
                    # must reach memory.
                    self._directories[victim // self._bytes_per_node].dram.access(
                        victim, True
                    )
            l2.tags[l2_slot] = line
            l2.where[line] = l2_slot
            l2.states[l2_slot] = fill_code
            stamp = l2.stamp + 1
            l2.stamp = stamp
            stamps[l2_slot] = stamp

        # L1 fill, after an L2 hit or the L2 fill above, with the L2's
        # way rule.  An L1 victim leaves silently, since the inclusive L2
        # still holds it.
        assoc = l1.associativity
        base = ((line >> l1.line_shift) & l1.set_mask) * assoc
        stamps = l1.stamps
        window = stamps[base:base + assoc]
        slot = base + window.index(min(window))
        victim = l1.tags[slot]
        if victim >= 0:
            del l1.where[victim]
            l1.evictions += 1
        l1.tags[slot] = line
        l1.where[line] = slot
        l1.states[slot] = fill_code
        stamp = l1.stamp + 1
        l1.stamp = stamp
        stamps[slot] = stamp
        return latency

    def perform_chunk(
        self,
        chunk: AccessChunk,
        work_per_access_ns: float,
        limit: Optional[int] = None,
    ) -> int:
        """Replay one :class:`AccessChunk` (clock protocol included).

        Applies exactly the per-record clock accounting of
        :meth:`Simulator.run` — bulk for committed hit runs, sequential
        for residue — so a chunked run and a per-record run of the same
        stream produce bit-identical snapshots at chunk boundaries.
        *limit* truncates the chunk (a ``max_accesses`` cut mid-chunk).
        Returns the number of accesses replayed.
        """
        kernel = self._chunk_kernel or self._bind_chunk_kernel()
        return kernel.perform_chunk(chunk, work_per_access_ns, limit)

    def _bind_chunk_kernel(self):
        # Imported here, not at module level: record-fed runs must never
        # load the kernel or numpy.
        from repro.system.batchcore import ChunkKernel

        self._chunk_kernel = ChunkKernel(self)
        return self._chunk_kernel

    def restore_chunk_counters(self, counters: Optional[Dict[str, int]]) -> None:
        """Replace the chunk kernel after a checkpoint restore.

        A bound kernel's translation shadow holds frame bases from before
        the restore, which the restored translation map need not share, so it
        is always dropped.  *counters* (``None`` for a record-fed run) are
        carried into a fresh kernel bound from the restored state.
        """
        self._chunk_kernel = None
        if counters:
            kernel = self._bind_chunk_kernel()
            for name, value in counters.items():
                setattr(kernel, name, value)

    def chunk_counters(self) -> Optional[Dict[str, int]]:
        """The chunk kernel's counters, or ``None`` before any chunk."""
        kernel = self._chunk_kernel
        return None if kernel is None else kernel.counters()

    def miss_path_summary(self) -> Dict[str, object]:
        """Counters describing how misses were serviced (for reports/tests).

        ``fast_misses`` counts misses serviced by the packed miss path —
        every miss on this engine, so it equals ``transactions_serviced``.
        """
        return {
            "fast_misses": self.transactions_serviced,
            "translation_fills": self.translation_fills,
        }

    @property
    def batched_residue_ratio(self) -> float:
        """Fraction of chunk-fed accesses that replayed per-access."""
        return self.batch_summary()["residue_ratio"]

    def batch_summary(self) -> Dict[str, object]:
        """Chunk-path counters (reports, benches, tests).

        All zero on a record-fed run; ``vector_path`` is true once a
        chunk has bound a kernel that vectorises this configuration.
        """
        kernel = self._chunk_kernel
        summary: Dict[str, object] = self.chunk_counters() or dict.fromkeys(
            CHUNK_COUNTERS, 0
        )
        total = summary["accesses"]
        summary["residue_ratio"] = (
            (summary["residue"] + summary["fallback_accesses"]) / total
            if total
            else 0.0
        )
        summary["vector_path"] = kernel is not None and kernel.vector_ok
        return summary

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedMachine(nodes={len(self.nodes)}, "
            f"policy={self.config.directory_policy})"
        )
