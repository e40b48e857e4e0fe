"""The chunk kernel: vectorised replay of :class:`AccessChunk` blocks.

The packed machine (:mod:`repro.system.fastcore`) pays one Python call
per access, which caps hit-dominated replay on interpreter dispatch.
When a simulator is fed chunks — columnar
:class:`~repro.trace.record.AccessChunk` blocks, as v3 blocked traces
decode into — :meth:`PackedMachine.perform_chunk` hands each block to
the :class:`ChunkKernel` bound to that machine.  The kernel vectorises
the overwhelmingly common case (warm translation + L1 hit under LRU)
over whole blocks with numpy and replays the *residue* — misses,
upgrades, cold translations, and any access whose classification a
residue access may have disturbed — through the untouched per-access
packed path.  Record-fed runs never reach this module, so they never
import numpy.

Bit-identity with per-record replay and with the reference engine
remains the hard contract (golden corpus, cross-engine differ, lock-step
fuzzer).  The kernel guarantees it by construction:

* **Classification is conservative.**  Per chunk it classifies each
  access as *bulk-committable L1 hit* or *residue*; residue accesses
  replay one-by-one through :meth:`PackedMachine.perform_access`, which
  handles every case exactly.  Wrongly classifying a hit as residue is
  always safe; the kernel never does the reverse because …
* **Hit runs are stable.**  Within a run of consecutive classified hits,
  no tag changes and no state becomes less writable: read hits only
  touch recency/stat state, write hits only raise an L2 state that is
  already writable to MODIFIED.  So a classification taken at the start
  of the run is still exact when the run commits.
* **Disturbances are tracked, not guessed.**  A residue access can
  invalidate later classifications only by (a) displacing a victim line
  — every such path increments an eviction counter (L1/L2/probe-filter),
  so a counter delta triggers reclassification of the chunk remainder —
  or (b) invalidating/downgrading copies of *the accessed line itself*,
  so that line is poisoned and later classified hits on it are demoted
  to residue (downgrades only endanger write hits; invalidations
  endanger all).  A translation fill also triggers reclassification —
  not for safety (fills are additive) but so accesses behind a cold page
  re-classify as hits once the page is warm.
* **Bulk arithmetic is exact.**  Bulk clock updates use
  ``k * (work + latency)``, which is bit-identical to ``k`` sequential
  additions only when the addends are dyadic rationals (every default
  latency is a multiple of 0.5 ns).  The kernel *verifies* dyadicity at
  runtime and runs the chunk sequentially when the check fails, so
  exotic latencies degrade to packed speed instead of to wrong floats.
  LRU stamps commit as a strictly increasing sequence with last-wins
  per slot (``np.maximum.at``), reproducing the sequential stamps and
  counter exactly.

Vectorisation requires numpy, LRU replacement and a power-of-two page
size; otherwise — and always when numpy is absent — the kernel replays
every chunk access-by-access through the packed path, still
bit-identical.  Tests force that path by setting the module's numpy
handle ``_np`` to ``None`` before the first chunk.
"""

from __future__ import annotations

from typing import Dict, List, Optional

try:  # numpy is an optional extra (``pip install repro[fast]``)
    import numpy as _np
except ImportError:  # pragma: no cover - tests patch _np instead
    _np = None

from repro.cache.packed import CODE_CAN_WRITE, STATE_MODIFIED
from repro.errors import SimulationError
from repro.system.fastcore import CHUNK_COUNTERS
from repro.trace.record import TYPE_INSTRUCTION, TYPE_WRITE, AccessChunk

#: Reclassifications tolerated per chunk before the kernel bails to
#: sequential replay for the chunk remainder.  Bounds the vector
#: overhead on miss-heavy chunks.
RECLASS_LIMIT = 10

#: Translation hash-table size (power of two).
_TBL = 1 << 12
#: Bits reserved for the virtual page in a packed (pid, vpage) key.
_VPAGE_BITS = 45
#: Dyadic precision for the bulk-clock exactness check: a latency is
#: bulk-safe when it is an integer multiple of 2**-12 ns.
_DYADIC_SCALE = 1 << 12


def _is_dyadic(value: float) -> bool:
    """True when *value* is an exact multiple of ``2**-12`` nanoseconds."""
    scaled = value * _DYADIC_SCALE
    return scaled == int(scaled)


class _Classification:
    """Vector classification of a chunk remainder ``[offset, n)``."""

    __slots__ = ("offset", "ok", "lines", "l1_slot", "l2_slot", "chan", "tslot", "nz")

    def __init__(self, offset, ok, lines, l1_slot, l2_slot, chan, tslot, nz):
        self.offset = offset
        self.ok = ok
        self.lines = lines
        self.l1_slot = l1_slot
        self.l2_slot = l2_slot
        self.chan = chan
        self.tslot = tslot
        #: Local indices (ascending) of residue-classified accesses.
        self.nz = nz


class ChunkKernel:
    """Chunked, vectorised replay bound to one :class:`PackedMachine`.

    :meth:`PackedMachine.perform_chunk` builds the kernel on the
    machine's first chunk, so record-fed machines never allocate the
    vector state.  Residue accesses funnel back into the machine's
    :meth:`perform_access`, so snapshots stay bit-identical.  The kernel
    also keeps the chunk-path counters (:data:`CHUNK_COUNTERS`) that
    :meth:`PackedMachine.batch_summary` reports and checkpoints carry.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.chunks = self.accesses = self.bulk_hits = 0
        self.residue = self.reclassifies = self.fallback_accesses = 0
        config = machine.config
        # Aliases of machine state that is mutated in place, never
        # rebound (restore included), so they never go stale.
        self._clocks = machine._clocks
        self._core_count = machine._core_count
        self._cache_latency = machine._cache_latency
        self._translation_memo = machine._translation_memo
        self._perform_access = machine.perform_access
        page_size = config.os.page_size
        self._numpy = _np
        self.vector_ok = (
            _np is not None
            and config.core.replacement == "lru"
            and page_size & (page_size - 1) == 0
            and _is_dyadic(self._cache_latency)
        )
        if self.vector_ok:
            self._bind_vector_state(page_size)

    # ------------------------------------------------------------------
    # Vector-path state
    # ------------------------------------------------------------------
    def _bind_vector_state(self, page_size: int) -> None:
        np = self._numpy
        machine = self.machine
        self._page_shift = page_size.bit_length() - 1
        self._page_off_mask = page_size - 1
        self._line_and_mask = ~(machine.config.line_size - 1)
        # Channel layout: channel = core * 2 + is_instruction.
        self._chan_caches = []
        self._chan_tags = []
        self._chan_stamps = []
        for node in machine.nodes:
            for cache in (node.caches.l1d, node.caches.l1i):
                self._chan_caches.append(cache)
                self._chan_tags.append(np.frombuffer(cache.tags, dtype=np.int64))
                self._chan_stamps.append(np.frombuffer(cache.stamps, dtype=np.int64))
        self._l2_caches = [node.caches.l2 for node in machine.nodes]
        self._l2_tags = [np.frombuffer(c.tags, dtype=np.int64) for c in self._l2_caches]
        self._l2_states = [
            np.frombuffer(c.states, dtype=np.uint8) for c in self._l2_caches
        ]
        max_assoc = max(
            max(c.associativity for c in self._chan_caches),
            max(c.associativity for c in self._l2_caches),
        )
        self._ways = np.arange(max_assoc, dtype=np.int64)
        self._can_write_lut = np.array(CODE_CAN_WRITE, dtype=bool)
        # Direct-mapped translation table shadowing the allocator memo:
        # packed (pid, vpage) keys, frame bases, and the (table_stats,
        # mapping) pair whose counters a bulk hit commit must maintain.
        self._tkeys = np.full(_TBL, -1, dtype=np.int64)
        self._tframes = np.zeros(_TBL, dtype=np.int64)
        self._tstats: List[Optional[tuple]] = [None] * _TBL
        # Counters whose delta reveals a displaced line (see module doc).
        self._evict_counters = []
        for node in machine.nodes:
            caches = node.caches
            self._evict_counters.extend((caches.l1i, caches.l1d, caches.l2))
        self._probe_filters = [node.probe_filter for node in machine.nodes]

    def counters(self) -> Dict[str, int]:
        """The chunk-path counters, by name."""
        return {name: getattr(self, name) for name in CHUNK_COUNTERS}

    def _disturbance_stamp(self) -> int:
        """Monotone counter summarising every line-displacing event."""
        total = self.machine.translation_fills
        for cache in self._evict_counters:
            total += cache.evictions
        for pf in self._probe_filters:
            total += pf.evictions
        return total

    # ------------------------------------------------------------------
    # Chunk entry point
    # ------------------------------------------------------------------
    def perform_chunk(
        self,
        chunk: AccessChunk,
        work_per_access_ns: float,
        limit: Optional[int] = None,
    ) -> int:
        """Replay one chunk (clock protocol included); return accesses run.

        See :meth:`PackedMachine.perform_chunk`.
        """
        n = len(chunk)
        if limit is not None and limit < n:
            chunk = chunk.truncated(limit)
            n = limit
        if n == 0:
            return 0
        self.chunks += 1
        self.accesses += n
        if not self.vector_ok or not _is_dyadic(work_per_access_ns):
            self._replay_slice(chunk, 0, n, work_per_access_ns)
            self.fallback_accesses += n
            return n
        self._perform_chunk_vector(chunk, n, work_per_access_ns)
        return n

    # ------------------------------------------------------------------
    # Sequential fallback / residue replay
    # ------------------------------------------------------------------
    def _replay_one(
        self, core: int, process_id: int, vaddr: int, type_code: int, work_ns: float
    ) -> None:
        if core >= self._core_count or core < 0:
            raise SimulationError(
                f"trace references core {core} but the machine has "
                f"{self._core_count} cores"
            )
        clock = self._clocks[core]
        clock.instructions += 1
        clock.now_ns += work_ns
        latency = self._perform_access(
            core,
            process_id,
            vaddr,
            type_code == TYPE_WRITE,
            type_code == TYPE_INSTRUCTION,
        )
        clock.now_ns += latency
        clock.stall_ns += latency

    def _replay_slice(
        self, chunk: AccessChunk, start: int, stop: int, work_ns: float
    ) -> None:
        cores = chunk.cores
        vaddrs = chunk.vaddrs
        types = chunk.types
        pids = chunk.pids
        for i in range(start, stop):
            self._replay_one(cores[i], pids[i], vaddrs[i], types[i], work_ns)

    # ------------------------------------------------------------------
    # Vector path
    # ------------------------------------------------------------------
    def _perform_chunk_vector(self, chunk: AccessChunk, n: int, work_ns: float) -> None:
        np = self._numpy
        cores = np.frombuffer(chunk.cores, dtype=np.int64, count=n)
        vaddrs = np.frombuffer(chunk.vaddrs, dtype=np.int64, count=n)
        types = np.frombuffer(chunk.types, dtype=np.int64, count=n)
        pids = np.frombuffer(chunk.pids, dtype=np.int64, count=n)

        bad = (cores < 0) | (cores >= self._core_count)
        if bad.any():
            first_bad = int(np.argmax(bad))
            if first_bad:
                self._perform_chunk_vector(chunk, first_bad, work_ns)
            raise SimulationError(
                f"trace references core {int(cores[first_bad])} but the "
                f"machine has {self._core_count} cores"
            )

        cls = self._classify(cores, vaddrs, types, pids, 0, n)
        if cls is None:
            # Exotic address/pid ranges: stay sequential for this chunk.
            self._replay_slice(chunk, 0, n, work_ns)
            self.fallback_accesses += n
            return

        c_cores = chunk.cores
        c_vaddrs = chunk.vaddrs
        c_types = chunk.types
        c_pids = chunk.pids
        page_size = self.machine.config.os.page_size
        memo = self._translation_memo
        reclassifies = 0
        poison_all: set = set()
        poison_write: set = set()
        poison_all_arr = poison_write_arr = None
        nz = cls.nz
        nz_ptr = 0
        pos = 0
        # Exponential-backoff refresh: once enough residue accesses since
        # the last classification displaced nothing (typical of cold
        # warm-up, where fills land in free ways), the stale all-miss
        # classification is rebuilt so the now-resident lines classify as
        # hits.  Doubling the threshold bounds refreshes at O(log chunk)
        # even on all-miss chunks.
        unexplained_streak = 0
        refresh_at = 16
        while pos < n:
            # End of the candidate hit run: the next residue-classified
            # access at or after pos.
            rel = pos - cls.offset
            while nz_ptr < len(nz) and nz[nz_ptr] < rel:
                nz_ptr += 1
            run_end = int(nz[nz_ptr]) + cls.offset if nz_ptr < len(nz) else n
            # Poisoned lines demote classified hits back to residue.
            if run_end > pos and (poison_all or poison_write):
                a = pos - cls.offset
                b = run_end - cls.offset
                run_lines = cls.lines[a:b]
                hazard = None
                if poison_all:
                    if poison_all_arr is None:
                        poison_all_arr = np.fromiter(
                            poison_all, dtype=np.int64, count=len(poison_all)
                        )
                    hazard = np.isin(run_lines, poison_all_arr)
                if poison_write:
                    if poison_write_arr is None:
                        poison_write_arr = np.fromiter(
                            poison_write, dtype=np.int64, count=len(poison_write)
                        )
                    write_hazard = (types[pos:run_end] == TYPE_WRITE) & np.isin(
                        run_lines, poison_write_arr
                    )
                    hazard = write_hazard if hazard is None else hazard | write_hazard
                if hazard is not None and hazard.any():
                    run_end = pos + int(np.argmax(hazard))
            if run_end > pos:
                self._commit_run(cls, cores, types, pos, run_end, work_ns)
                self.bulk_hits += run_end - pos
                pos = run_end
                if pos >= n:
                    break
            # Residue access at pos: replay sequentially, then decide how
            # much of the classification survives.
            before = self._disturbance_stamp()
            core = c_cores[pos]
            pid = c_pids[pos]
            vaddr = c_vaddrs[pos]
            type_code = c_types[pos]
            self._replay_one(core, pid, vaddr, type_code, work_ns)
            self.residue += 1
            pos += 1
            if pos >= n:
                break
            refresh = False
            if self._disturbance_stamp() != before:
                # A line was displaced somewhere (or a page went warm):
                # classifications past this point are suspect — rebuild.
                reclassifies += 1
                unexplained_streak = 0
                if reclassifies > RECLASS_LIMIT:
                    self._replay_slice(chunk, pos, n, work_ns)
                    self.residue += n - pos
                    return
                refresh = True
            else:
                # Nothing was displaced: only copies of the accessed line
                # can have been invalidated (write/upgrade) or downgraded
                # (read), so poison that one line.  A cold translation has
                # no classified hits to its (unique) frame — skip it.
                entry = memo.get((pid, vaddr // page_size))
                if entry is not None:
                    line = (
                        entry[0] + (vaddr % page_size)
                    ) & self._line_and_mask
                    if type_code == TYPE_WRITE:
                        if line not in poison_all:
                            poison_all.add(line)
                            poison_all_arr = None
                    else:
                        if line not in poison_write:
                            poison_write.add(line)
                            poison_write_arr = None
                unexplained_streak += 1
                if unexplained_streak >= refresh_at:
                    refresh_at <<= 1
                    unexplained_streak = 0
                    refresh = True
            if refresh:
                self.reclassifies += 1
                cls = self._classify(cores, vaddrs, types, pids, pos, n)
                if cls is None:
                    self._replay_slice(chunk, pos, n, work_ns)
                    self.fallback_accesses += n - pos
                    return
                nz = cls.nz
                nz_ptr = 0
                poison_all.clear()
                poison_write.clear()
                poison_all_arr = poison_write_arr = None

    def _install_translations(self, keys, matched) -> None:
        """Pull missing memo entries into the direct-mapped table."""
        np = self._numpy
        missing = np.unique(keys[~matched])
        memo = self._translation_memo
        vpage_mask = (1 << _VPAGE_BITS) - 1
        for key in missing:
            key = int(key)
            entry = memo.get((key >> _VPAGE_BITS, key & vpage_mask))
            if entry is None:
                continue  # cold translation: stays residue
            slot = (key ^ (key >> 39)) & (_TBL - 1)
            self._tkeys[slot] = key
            self._tframes[slot] = entry[0]
            self._tstats[slot] = (entry[2], entry[1])

    def _classify(self, cores, vaddrs, types, pids, start, n):
        """Vector-classify accesses ``[start, n)``; None = stay sequential."""
        np = self._numpy
        sl = slice(start, n)
        v = vaddrs[sl]
        p = pids[sl]
        t = types[sl]
        vpage = v >> self._page_shift
        if (
            int(v.min()) < 0
            or int(p.min()) < 0
            or int(p.max()) >= (1 << (63 - _VPAGE_BITS))
            or int(vpage.max()) >= (1 << _VPAGE_BITS)
        ):
            return None
        keys = (p << _VPAGE_BITS) | vpage
        hashes = (keys ^ (keys >> 39)) & (_TBL - 1)
        matched = self._tkeys[hashes] == keys
        if not matched.all():
            self._install_translations(keys, matched)
            matched = self._tkeys[hashes] == keys
        paddr = self._tframes[hashes] + (v & self._page_off_mask)
        lines = paddr & self._line_and_mask

        ok = matched.copy()
        m = n - start
        l1_slot = np.zeros(m, dtype=np.int64)
        l2_slot = np.full(m, -1, dtype=np.int64)
        chan = (cores[sl] << 1) | (t == TYPE_INSTRUCTION)
        chan_counts = np.bincount(chan, minlength=len(self._chan_caches))
        for ch in np.nonzero(chan_counts)[0]:
            ch = int(ch)
            idx = np.nonzero(chan == ch)[0]
            cache = self._chan_caches[ch]
            assoc = cache.associativity
            sub_lines = lines[idx]
            base = ((sub_lines >> cache.line_shift) & cache.set_mask) * assoc
            flat = base[:, None] + self._ways[:assoc]
            eq = self._chan_tags[ch][flat] == sub_lines[:, None]
            found = eq.any(axis=1)
            l1_slot[idx] = base + np.argmax(eq, axis=1)
            sub_ok = found
            if ch & 1 == 0:  # data channel: writes need a writable L2 copy
                writes = np.nonzero(t[idx] == TYPE_WRITE)[0]
                if writes.size:
                    l2 = self._l2_caches[ch >> 1]
                    l2_assoc = l2.associativity
                    write_lines = sub_lines[writes]
                    l2_base = (
                        (write_lines >> l2.line_shift) & l2.set_mask
                    ) * l2_assoc
                    l2_flat = l2_base[:, None] + self._ways[:l2_assoc]
                    l2_eq = self._l2_tags[ch >> 1][l2_flat] == write_lines[:, None]
                    l2_found = l2_eq.any(axis=1)
                    slots = l2_base + np.argmax(l2_eq, axis=1)
                    writable = l2_found & self._can_write_lut[
                        self._l2_states[ch >> 1][slots]
                    ]
                    l2_slot[idx[writes]] = slots
                    sub_ok = sub_ok.copy()
                    sub_ok[writes] &= writable
            ok[idx] &= sub_ok
        return _Classification(
            offset=start,
            ok=ok,
            lines=lines,
            l1_slot=l1_slot,
            l2_slot=l2_slot,
            chan=chan,
            tslot=hashes,
            nz=np.nonzero(~ok)[0],
        )

    def _commit_run(self, cls, cores, types, pos, end, work_ns: float) -> None:
        """Bulk-apply a run ``[pos, end)`` of classified L1 hits."""
        np = self._numpy
        a = pos - cls.offset
        b = end - cls.offset
        per_access = work_ns + self._cache_latency
        latency = self._cache_latency

        core_counts = np.bincount(cores[pos:end], minlength=self._core_count)
        for core in np.nonzero(core_counts)[0]:
            k = int(core_counts[core])
            clock = self._clocks[int(core)]
            clock.instructions += k
            clock.memory_accesses += k
            clock.now_ns += k * per_access
            clock.stall_ns += k * latency

        chans = cls.chan[a:b]
        slots = cls.l1_slot[a:b]
        chan_counts = np.bincount(chans, minlength=len(self._chan_caches))
        run_types = types[pos:end]
        l2_slots = cls.l2_slot[a:b]
        for ch in np.nonzero(chan_counts)[0]:
            ch = int(ch)
            k = int(chan_counts[ch])
            cache = self._chan_caches[ch]
            idx = np.nonzero(chans == ch)[0]
            prev = cache.stamp
            # Stamps are assigned in chunk order (prev+1 … prev+k); the
            # sequence is strictly increasing, so maximum-at == last-wins
            # == the sequential final state.
            np.maximum.at(
                self._chan_stamps[ch],
                slots[idx],
                prev + 1 + np.arange(k, dtype=np.int64),
            )
            cache.stamp = prev + k
            cache.hits += k
            if ch & 1 == 0:
                writes = idx[run_types[idx] == TYPE_WRITE]
                if writes.size:
                    # Committed write hits: the silent L2 upgrade to
                    # MODIFIED (writability already verified).
                    self._l2_states[ch >> 1][l2_slots[writes]] = STATE_MODIFIED

        t_counts = np.bincount(cls.tslot[a:b], minlength=_TBL)
        for slot in np.nonzero(t_counts)[0]:
            table_stats, mapping = self._tstats[int(slot)]
            count = int(t_counts[slot])
            table_stats.lookups += count
            mapping.touches += count
