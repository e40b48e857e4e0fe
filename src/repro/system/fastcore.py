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
  (see :class:`~repro.core.packed_directory.PackedDirectoryFastPath`)
  — without leaving the packed representation.  Cold translations go
  straight to the allocator's page-table fill (no redundant memo
  re-probe) and are counted in ``translation_fills``.  A packed
  machine never enters the reference miss machinery
  (``Machine._service_miss``, the directory controller's transaction
  loop); the reference engine keeps running it in every differential
  suite.

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
registered workload family.  ``packed`` is the default engine; set
``REPRO_ENGINE=reference`` (or pass ``engine="reference"``) to fall back.
"""

from __future__ import annotations

import os
from typing import Dict, Optional

from repro.cache.packed import (
    ACCESS_MISS,
    CODE_CAN_WRITE,
    CODE_IS_DIRTY,
    CODE_IS_OWNER,
    POLICY_LRU,
    POLICY_PLRU,
    PackedHierarchy,
    plru_touch,
)
from repro.coherence.transactions import RequestKind
from repro.core.packed_directory import PackedDirectoryFastPath, PackedProbeFilter
from repro.errors import ConfigurationError
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
    """Validate an engine name, defaulting from ``$REPRO_ENGINE``.

    ``None`` resolves to the ``REPRO_ENGINE`` environment variable when
    set, else :data:`DEFAULT_ENGINE`.
    """
    if engine is None:
        engine = os.environ.get("REPRO_ENGINE") or DEFAULT_ENGINE
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

    Construction and the NUMA/network components are inherited; the node
    hierarchies and probe filters (via :attr:`hierarchy_class` and
    :attr:`probe_filter_class`), the per-access entry point and the miss
    path (:meth:`_service_miss`) are packed.
    """

    hierarchy_class = PackedHierarchy
    probe_filter_class = PackedProbeFilter

    #: Eviction-notification modes, coded for the miss fast path.
    _EVICT_MODES = {"none": 0, "owned": 1, "dirty": 2}

    def __init__(self, config: SystemConfig) -> None:
        super().__init__(config)
        # Hot-path bindings: one list index replaces the node -> caches ->
        # l1 attribute chain, and the line shift/mask pair replaces the
        # div/mod set arithmetic.  The arrays themselves live on the
        # PackedCache objects and are mutated in place, so these aliases
        # never go stale.
        self._l1d = [node.caches.l1d for node in self.nodes]
        self._l1i = [node.caches.l1i for node in self.nodes]
        self._clocks = [node.clock for node in self.nodes]
        self._core_count = len(self.nodes)
        self._line_shift = config.line_size.bit_length() - 1
        # Alias of the allocator's translation memo (mutated in place,
        # never rebound) so the fast path can service a warm translation
        # without a call.  The memo-hit body below must mirror
        # NumaAllocator.translate exactly — including the per-page stat
        # upkeep; the allocator's own affinity check is subsumed by this
        # method's core bounds check (machine-built allocators map every
        # in-range core to a node).
        self._translation_memo = self.allocator._translation_cache
        self._translate_fill = self.allocator._translate_slow
        self._page_size = config.os.page_size
        # Miss path: one packed servicer per home directory, sharing a
        # lazily filled (src, dst) -> delivery-constants table.
        routes: dict = {}
        self._fast_dirs = [
            PackedDirectoryFastPath(self, node, routes) for node in self.nodes
        ]
        self._evict_mode = self._EVICT_MODES[config.directory.eviction_notification]
        self.translation_fills = 0
        # The chunk kernel binds on the first chunk (perform_chunk).  It
        # is the only chunk-path attribute here: past 29 instance
        # attributes CPython stops sharing dict keys between instances,
        # which slows every ``self.`` load on the per-access hot path.
        self._chunk_kernel = None
        if config.core.replacement == "lru":
            # LRU (the Table I default) gets a branch-free specialisation;
            # the instance attribute shadows the generic method below.
            self.perform_access = self._perform_access_lru

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
        counters, same replacement decisions, same latencies); the L1
        read hit — the overwhelmingly common case on the paper's
        workloads — completes after one memoized translation and one
        C-level ``array.index`` scan, with LRU touched by a single
        stamp store.
        """
        nodes = self.nodes
        if core < 0 or core >= len(nodes):
            raise ConfigurationError(
                f"core {core} out of range for a {len(nodes)}-core machine"
            )
        node = nodes[core]
        page_size = self._page_size
        vpage = vaddr // page_size
        entry = self._translation_memo.get((process_id, vpage))
        if entry is not None:
            frame_base, mapping, table_stats = entry
            table_stats.lookups += 1
            mapping.touches += 1
            paddr = frame_base + (vaddr - vpage * page_size)
        else:
            # Cold (or next-touch-pending) translation: fill the page
            # table directly, skipping the memo re-probe inside
            # NumaAllocator.translate that is known to miss.
            self.translation_fills += 1
            paddr = self._translate_fill(process_id, core, vaddr, vpage)
        line_paddr = paddr & self._line_mask
        node.clock.memory_accesses += 1

        l1 = (self._l1i if is_instruction else self._l1d)[core]
        assoc = l1.associativity
        base = ((line_paddr >> self._line_shift) & l1.set_mask) * assoc
        try:
            slot = l1.tags.index(line_paddr, base, base + assoc)
        except ValueError:
            slot = -1
        if slot >= 0 and not is_write:
            # L1 read hit: count, stamp, done.
            l1.hits += 1
            kind = l1.kind
            if kind == POLICY_LRU:
                stamp = l1.stamp + 1
                l1.stamp = stamp
                l1.stamps[slot] = stamp
            elif kind == POLICY_PLRU:
                set_index = base // assoc
                l1.plru_bits[set_index] = plru_touch(
                    l1.plru_bits[set_index], slot - base, assoc
                )
            return self._cache_latency

        code = node.caches.access_fast(line_paddr, is_write, is_instruction, slot)
        if code < ACCESS_MISS:
            return self._cache_latency
        return self._service_miss(
            node, core, line_paddr, is_write, is_instruction, code > ACCESS_MISS
        )

    def _perform_access_lru(
        self,
        core: int,
        process_id: int,
        vaddr: int,
        is_write: bool,
        is_instruction: bool = False,
    ) -> float:
        """LRU-specialised :meth:`perform_access` (identical behaviour)."""
        if core < 0 or core >= self._core_count:
            raise ConfigurationError(
                f"core {core} out of range for a {self._core_count}-core machine"
            )
        page_size = self._page_size
        vpage = vaddr // page_size
        entry = self._translation_memo.get((process_id, vpage))
        if entry is not None:
            frame_base, mapping, table_stats = entry
            table_stats.lookups += 1
            mapping.touches += 1
            paddr = frame_base + (vaddr - vpage * page_size)
        else:
            self.translation_fills += 1
            paddr = self._translate_fill(process_id, core, vaddr, vpage)
        line_paddr = paddr & self._line_mask
        self._clocks[core].memory_accesses += 1

        l1 = (self._l1i if is_instruction else self._l1d)[core]
        assoc = l1.associativity
        base = ((line_paddr >> self._line_shift) & l1.set_mask) * assoc
        try:
            slot = l1.tags.index(line_paddr, base, base + assoc)
        except ValueError:
            slot = -1
        if slot >= 0 and not is_write:
            l1.hits += 1
            stamp = l1.stamp + 1
            l1.stamp = stamp
            l1.stamps[slot] = stamp
            return self._cache_latency

        node = self.nodes[core]
        code = node.caches.access_fast(line_paddr, is_write, is_instruction, slot)
        if code < ACCESS_MISS:
            return self._cache_latency
        return self._service_miss(
            node, core, line_paddr, is_write, is_instruction, code > ACCESS_MISS
        )

    def perform_chunk(
        self,
        chunk: AccessChunk,
        work_per_access_ns: float,
        limit: Optional[int] = None,
    ) -> int:
        """Replay one :class:`AccessChunk` (clock protocol included).

        Applies exactly the per-record clock/instruction accounting of
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

        A bound kernel's translation shadow holds ``(table_stats,
        mapping)`` objects from before the restore; committing counters
        into those orphans would silently diverge the snapshot, so it is
        always dropped.  *counters* (``None`` for a record-fed run) are
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

    def _service_miss(
        self,
        node,
        core: int,
        line_paddr: int,
        is_write: bool,
        is_instruction: bool,
        needs_upgrade: bool,
    ) -> float:
        """Packed miss path: directory transaction and fill, array-native.

        Behaviourally identical to :meth:`Machine._service_miss` — same
        counters, same replacement and protocol decisions, same latency
        floats — but serviced through
        :class:`~repro.core.packed_directory.PackedDirectoryFastPath`
        with no ``Transaction``/``Message`` object churn.  Every
        structural event is packed too: probe-filter evictions run their
        invalidation fan-out in :meth:`PackedDirectoryFastPath._miss`,
        and L2 eviction notifications go through
        :meth:`PackedDirectoryFastPath.handle_eviction`.
        """
        fast = self._fast_dirs[line_paddr // self._bytes_per_node]
        caches = node.caches
        # The miss is serviced atomically, so its MSHR entry would be
        # released before anything else could look at the file.
        caches.mshrs.allocate_release(
            line_paddr, RequestKind.WRITE if is_write else RequestKind.READ
        )
        latency, fill_code = fast.service(core, line_paddr, is_write)
        self.transactions_serviced += 1

        if needs_upgrade:
            # The line is already resident; only its state changes (the
            # raw-array form of Cache.set_state, upgrade counting included).
            fill_writable = CODE_CAN_WRITE[fill_code]
            l2 = caches.l2
            l2_slot = l2.find(line_paddr)
            if fill_writable and not CODE_CAN_WRITE[l2.states[l2_slot]]:
                l2.upgrades += 1
            l2.states[l2_slot] = fill_code
            for l1 in (caches.l1i, caches.l1d):
                l1_slot = l1.find(line_paddr)
                if l1_slot >= 0:
                    if fill_writable and not CODE_CAN_WRITE[l1.states[l1_slot]]:
                        l1.upgrades += 1
                    l1.states[l1_slot] = fill_code
        else:
            victim = caches.l2._fill_code(line_paddr, fill_code)
            if victim is not None:
                victim_tag, victim_code, _ = victim
                caches.l1i._drop(victim_tag)
                caches.l1d._drop(victim_tag)
                mode = self._evict_mode
                if mode == 1:
                    notify = CODE_IS_OWNER[victim_code]  # owned or dirty
                elif mode == 2:
                    notify = CODE_IS_DIRTY[victim_code]
                else:
                    notify = False
                if notify:
                    self._fast_dirs[
                        victim_tag // self._bytes_per_node
                    ].handle_eviction(core, victim_tag, victim_code)
                elif CODE_IS_DIRTY[victim_code]:
                    # Even without a directory notification, dirty data
                    # must reach memory.
                    self._fast_dirs[
                        victim_tag // self._bytes_per_node
                    ].mem_writeback(victim_tag)
            (caches.l1i if is_instruction else caches.l1d)._fill_code(
                line_paddr, fill_code
            )

        return self._cache_latency + latency

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
