"""The chunk kernel: vectorised replay of :class:`AccessChunk` blocks.

The packed machine (:mod:`repro.system.fastcore`) pays one Python call
per access, which caps hit-dominated replay on interpreter dispatch.
When a simulator is fed chunks — columnar
:class:`~repro.trace.record.AccessChunk` blocks, as v3 blocked traces
decode into — :meth:`PackedMachine.perform_chunk` hands each block to
the :class:`ChunkKernel` bound to that machine.  The kernel vectorises
the overwhelmingly common case (warm translation + L1 hit) over whole
blocks with numpy and replays the *residue* — misses, upgrades, cold
translations, and any access whose classification a residue access may
have disturbed — through the untouched per-access packed path.
Record-fed runs never reach this module, so they never import numpy.

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
  LRU stamps commit as a strictly increasing sequence per channel with
  last-wins per slot (``np.maximum.at``), reproducing the sequential
  stamps and counter exactly.

Classification and commit make no numpy call per (core, I/D) channel:
see ``docs/performance.md``, "The chunk path", for the flat layout.

Vectorisation requires numpy and a power-of-two page size; otherwise —
and always when numpy is absent — the kernel replays every chunk
access-by-access through the packed path, still bit-identical.  Tests
force that path by setting the module's numpy handle ``_np`` to ``None``
before the first chunk.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, NamedTuple, Optional

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


def _lookup(np, tags, assoc, sets, lines):
    """Find each line in its flat set of the way array *tags*.

    Returns the found mask and each line's flat slot (its set's first
    way when absent); a line sits in at most one way of its set.
    """
    hit = np.flatnonzero(tags.reshape(-1, assoc)[sets] == lines[:, None])
    rows, ways = np.divmod(hit, assoc)
    found = np.zeros(len(lines), dtype=bool)
    found[rows] = True
    slots = sets * assoc
    slots[rows] += ways
    return found, slots


def _sorted_lines(np, lines: set):
    """*lines* as a sorted array led by ``-1``, which is no line."""
    return np.sort(np.array([-1, *lines], dtype=np.int64))


def _member(sorted_lines, lines):
    """Mask of *lines* present in a :func:`_sorted_lines` array.

    One binary search per line; *lines* are never sorted.
    """
    found = sorted_lines.searchsorted(lines)
    found[found == len(sorted_lines)] = 0
    return sorted_lines[found] == lines


class _Classification(NamedTuple):
    """Vector classification of a chunk remainder ``[offset, n)``."""

    offset: int
    lines: object
    #: Flat slot over every L1 (see ``ChunkKernel._chan_offset``).
    l1_slot: object
    chan: object
    #: Local indices (ascending) of write hits whose L2 copy is writable
    #: but not yet MODIFIED, and their flat L2 slots.
    upgrades: list
    upgrade_slots: list
    #: Local indices (ascending) of residue-classified accesses.
    nz: list


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
        self._line_shift = machine.config.line_size.bit_length() - 1
        # Channel layout: channel = core * 2 + is_instruction.  The
        # channels' tag arrays, laid end to end, form one flat (channel,
        # set, way) index; each channel keeps its own offset and set mask
        # (L1I and L1D sizes may differ, their associativity may not).
        caches = [
            c for node in machine.nodes for c in (node.caches.l1d, node.caches.l1i)
        ]
        self._chan_caches = caches
        self._chan_count = len(caches)
        self._chan_tags = [np.frombuffer(c.tags, dtype=np.int64) for c in caches]
        self._chan_stamps = [np.frombuffer(c.stamps, dtype=np.int64) for c in caches]
        sizes = [len(c.tags) for c in caches]
        self._chan_offset = np.cumsum([0] + sizes[:-1], dtype=np.int64)
        self._l1_assoc = caches[0].associativity
        self._chan_set_base = self._chan_offset // self._l1_assoc
        self._chan_set_mask = np.array([c.set_mask for c in caches], dtype=np.int64)
        self._stamp_scratch = np.zeros(sum(sizes), dtype=np.int64)
        # Every L2 has one geometry: a flat L2 slot is core * size + slot.
        l2_caches = [node.caches.l2 for node in machine.nodes]
        l2 = l2_caches[0]
        self._l2_size = len(l2.tags)
        self._l2_set_base = np.arange(len(l2_caches), dtype=np.int64) * l2.set_count
        self._l2_set_mask = l2.set_mask
        self._l2_assoc = l2.associativity
        self._l2_tags = [np.frombuffer(c.tags, dtype=np.int64) for c in l2_caches]
        self._l2_states = [np.frombuffer(c.states, dtype=np.uint8) for c in l2_caches]
        self._l2_caches = l2_caches
        self._can_write_lut = np.array(CODE_CAN_WRITE, dtype=bool)
        # Direct-mapped translation table shadowing the allocator memo:
        # packed (pid, vpage) keys and their frame bases.
        self._tkeys = np.full(_TBL, -1, dtype=np.int64)
        self._tframes = np.zeros(_TBL, dtype=np.int64)
        # Counters whose delta reveals a displaced line (see module doc).
        self._evict_counters = caches + l2_caches
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
        clock.now_ns += work_ns
        latency = self._perform_access(
            core,
            process_id,
            vaddr,
            type_code == TYPE_WRITE,
            type_code == TYPE_INSTRUCTION,
        )
        clock.now_ns += latency

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

        page_size = self.machine.config.os.page_size
        memo = self._translation_memo
        reclassifies = 0
        poison_all: set = set()
        poison_write: set = set()
        poisoned = None  # sorted (poison_all, poison_write), rebuilt lazily
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
            nz = cls.nz
            i = bisect_left(nz, pos - cls.offset)
            run_end = nz[i] + cls.offset if i < len(nz) else n
            # Poisoned lines demote classified hits back to residue.
            if run_end > pos and (poison_all or poison_write):
                if poisoned is None:
                    poisoned = (
                        _sorted_lines(np, poison_all),
                        _sorted_lines(np, poison_write),
                    )
                run_lines = cls.lines[pos - cls.offset:run_end - cls.offset]
                hazard = _member(poisoned[0], run_lines) | (
                    types[pos:run_end] == TYPE_WRITE
                ) & _member(poisoned[1], run_lines)
                if hazard.any():
                    run_end = pos + int(hazard.argmax())
            if run_end > pos:
                self._commit_run(cls, pos, run_end, work_ns)
                self.bulk_hits += run_end - pos
                pos = run_end
                if pos >= n:
                    break
            # Residue access at pos: replay sequentially, then decide how
            # much of the classification survives.
            before = self._disturbance_stamp()
            pid, vaddr, type_code = chunk.pids[pos], chunk.vaddrs[pos], chunk.types[pos]
            self._replay_one(chunk.cores[pos], pid, vaddr, type_code, work_ns)
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
                frame_base = memo.get((pid, vaddr // page_size))
                if frame_base is not None:
                    line = (frame_base + vaddr % page_size) & self._line_and_mask
                    target = poison_all if type_code == TYPE_WRITE else poison_write
                    if line not in target:
                        target.add(line)
                        poisoned = None
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
                poison_all.clear()
                poison_write.clear()
                poisoned = None

    def _install_translations(self, keys, matched) -> None:
        """Pull missing memo entries into the direct-mapped table."""
        np = self._numpy
        missing = np.unique(keys[~matched])
        memo = self._translation_memo
        vpage_mask = (1 << _VPAGE_BITS) - 1
        for key in missing:
            key = int(key)
            frame_base = memo.get((key >> _VPAGE_BITS, key & vpage_mask))
            if frame_base is None:
                continue  # cold translation: stays residue
            slot = (key ^ (key >> 39)) & (_TBL - 1)
            self._tkeys[slot] = key
            self._tframes[slot] = frame_base

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
        line_numbers = lines >> self._line_shift

        # One tag gather over every L1 at once, by flat set: the
        # channel's first set plus the line's set under its own mask.
        chan = (cores[sl] << 1) | (t == TYPE_INSTRUCTION)
        sets = self._chan_set_base[chan] + (line_numbers & self._chan_set_mask[chan])
        tags = np.concatenate(self._chan_tags)
        found, l1_slot = _lookup(np, tags, self._l1_assoc, sets, lines)
        ok = matched & found
        # Writes also need a writable L2 copy: one gather over every L2,
        # indexed by core.  Write hits on a line that is not yet MODIFIED
        # are the upgrades the commit applies.
        writes = np.flatnonzero(t == TYPE_WRITE)
        upgrades = upgrade_slots = []
        if writes.size:
            l2_sets = self._l2_set_base[cores[sl][writes]] + (
                line_numbers[writes] & self._l2_set_mask
            )
            tags = np.concatenate(self._l2_tags)
            found, l2_slot = _lookup(np, tags, self._l2_assoc, l2_sets, lines[writes])
            state = np.concatenate(self._l2_states)[l2_slot]
            ok[writes] &= found & self._can_write_lut[state]
            upgrade = ok[writes] & (state != STATE_MODIFIED)
            upgrades = writes[upgrade].tolist()
            upgrade_slots = l2_slot[upgrade].tolist()
        nz = np.flatnonzero(~ok).tolist()
        return _Classification(start, lines, l1_slot, chan, upgrades, upgrade_slots, nz)

    def _commit_run(self, cls, pos, end, work_ns: float) -> None:
        """Bulk-apply a run ``[pos, end)`` of classified L1 hits."""
        np = self._numpy
        a = pos - cls.offset
        b = end - cls.offset
        # Group the run by channel (stable: chunk order within a channel).
        # A hit's stamp is its channel's counter plus its rank there.
        chans = cls.chan[a:b]
        order = chans.argsort(kind="stable")
        chans = chans[order]
        counts = np.bincount(chans, minlength=self._chan_count)
        ends = counts.cumsum()
        caches = self._chan_caches
        prev = np.fromiter((c.stamp for c in caches), np.int64, self._chan_count)
        stamps = (prev - ends + counts)[chans] + np.arange(1, b - a + 1)
        # Last-wins per slot without relying on the order of repeated
        # fancy-index writes: every hit on a slot takes the slot's
        # largest stamp, so duplicate writes below all agree.
        slots = cls.l1_slot[a:b][order]
        scratch = self._stamp_scratch
        scratch[slots] = 0
        np.maximum.at(scratch, slots, stamps)
        stamps = scratch[slots]
        slots -= self._chan_offset[chans]
        chan_stamps = self._chan_stamps
        for ch, (k, stop) in enumerate(zip(counts.tolist(), ends.tolist())):
            if k:
                chan_stamps[ch][slots[stop - k:stop]] = stamps[stop - k:stop]
                cache = caches[ch]
                cache.stamp += k
                cache.hits += k
        per_access = work_ns + self._cache_latency
        for core, k in enumerate((counts[0::2] + counts[1::2]).tolist()):
            if k:
                clock = self._clocks[core]
                clock.memory_accesses += k
                clock.now_ns += k * per_access
        # Committed write hits: the silent L2 upgrade to MODIFIED
        # (writability already verified at classification).
        lo, hi = bisect_left(cls.upgrades, a), bisect_left(cls.upgrades, b)
        for slot in cls.upgrade_slots[lo:hi]:
            core, slot = divmod(slot, self._l2_size)
            self._l2_caches[core].states[slot] = STATE_MODIFIED
