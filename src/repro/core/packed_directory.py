"""Packed sparse directory: flat-array probe filter + fast miss servicing.

PR 3's packed engine inlined the L1/L2 *hit* path but fell back to the
reference object graph for every coherence transaction, so miss-heavy
workloads (false sharing, migratory locks, hotspots) ran at reference
speed.  This module packs the miss path too:

* :class:`PackedProbeFilter` stores one home node's sparse directory in
  flat arrays indexed by ``slot = set_index * associativity + way``:

  ===============  ==============  ============================================
  Array            Type            Contents
  ===============  ==============  ============================================
  ``tags``         ``array('q')``  tracked line address per way (``-1`` free)
  ``owners``       ``array('q')``  owner node id per way (``-1`` = no owner)
  ``sharer_bits``  ``list[int]``   sharer bitmask per way (bit *n* = node *n*)
  ``stamps``       ``array('q')``  monotonic LRU stamps (``0`` = never/reset)
  ===============  ==============  ============================================

  plus per-set tree-PLRU bit words / lazily seeded RNGs for the non-LRU
  replacement policies, exactly mirroring the reference
  :class:`~repro.core.probe_filter.ProbeFilter` (same stats, same victim
  ways, same free-way preference, same RNG seeding ``seed + node_id``
  then per-set ``+ set_index + 1``).  :meth:`~PackedProbeFilter.peek`
  returns a read-only :class:`~repro.core.probe_filter.ProbeFilterEntry`
  view, which is all the coherence invariant checks need.

* :class:`PackedDirectoryFastPath` services every steady-state miss
  flavour — probe-filter hits (reads and writes, including invalidation
  fan-out), ALLARM no-allocate local misses, allocating misses into a
  free way **and** allocating misses that evict a probe-filter victim
  (victim selection, holder-word walk, per-holder invalidation/ack
  accounting, dirty writebacks) — entirely in the packed
  representation, with per-route latency/traffic constants replacing
  per-message ``Message``/``Transaction`` object churn.  L2 eviction
  *notifications* (both ``owned`` and ``dirty`` modes) are likewise
  packed via :meth:`PackedDirectoryFastPath.handle_eviction`, so a
  packed machine never runs the reference directory controller.

**Bit-identity is the contract**: every counter the snapshot layer reads
(:class:`~repro.core.directory.DirectoryStats`, probe-filter stats,
``NetworkStats`` including per-type message/byte counts, DRAM and
memory-controller counters) and every latency float must be exactly what
the reference ``DirectoryController.service_request`` would have
produced, down to float-addition order.  Per-router and per-link
counters are *not* part of the snapshot contract and are maintained only
by the reference message loop; ``docs/performance.md`` documents this.

Requester-side MSHR slots are the shared :class:`~repro.cache.mshr.MshrFile`.
The reference ``Machine._service_miss`` brackets each transaction with
``allocate``/``release``; the packed ``_service_miss`` calls
:meth:`~repro.cache.mshr.MshrFile.allocate_release` once per miss,
before the transaction, which leaves the same ``MshrStats`` (counters
only on an empty file; the real pair, merge and full-file stall
included, when a harness has pre-registered in-flight lines).
"""

from __future__ import annotations

import random
from array import array
from typing import Dict, List, Optional, Set, Tuple

from repro.cache.packed import (
    CODE_AFTER_REMOTE_READ,
    CODE_IS_DIRTY,
    CODE_IS_OWNER,
    STATE_EXCLUSIVE,
    STATE_INVALID,
    STATE_MODIFIED,
    STATE_OWNED,
    STATE_SHARED,
    plru_touch,
    plru_victim,
)
from repro.coherence.messages import MessageType
from repro.core.probe_filter import ProbeFilterEntry, ProbeFilterStats
from repro.errors import ConfigurationError, ProtocolError
from repro.memory.address import is_power_of_two

#: Replacement policy kinds (mirrors ``repro.cache.packed``).
_PF_LRU = 0
_PF_PLRU = 1
_PF_RANDOM = 2
_PF_KINDS = {"lru": _PF_LRU, "plru": _PF_PLRU, "random": _PF_RANDOM}

#: Message-type value strings, hoisted so the fast path never touches the
#: enum (the names key ``NetworkStats.messages_by_type``).
_GETS = MessageType.GET_SHARED.value
_GETX = MessageType.GET_EXCLUSIVE.value
_FWD_GETS = MessageType.FORWARD_GET_SHARED.value
_FWD_GETX = MessageType.FORWARD_GET_EXCLUSIVE.value
_INV = MessageType.INVALIDATE.value
_ACK = MessageType.ACK.value
_DATA_MEM = MessageType.DATA_FROM_MEMORY.value
_DATA_OWNER = MessageType.DATA_FROM_OWNER.value
_WB_DATA = MessageType.WRITEBACK_DATA.value
_WB_ACK = MessageType.WRITEBACK_ACK.value
_PUT_S = MessageType.PUT_SHARED.value
_PUT_E = MessageType.PUT_EXCLUSIVE.value
_LOCAL_PROBE = MessageType.LOCAL_STATE_PROBE.value
_LOCAL_RESP = MessageType.LOCAL_STATE_RESPONSE.value


class PackedProbeFilter:
    """Flat-array sparse directory, bit-identical to :class:`ProbeFilter`.

    Construction parameters and validation match the reference exactly.
    The miss path works on flat slots (:meth:`find_slot`,
    :meth:`allocate_fast`, :meth:`allocate_evict`,
    :meth:`deallocate_fast`); :meth:`peek` builds a
    :class:`ProbeFilterEntry` view for the invariant checks.
    """

    __slots__ = (
        "node_id",
        "coverage_bytes",
        "associativity",
        "line_size",
        "set_count",
        "entry_count",
        "line_shift",
        "set_mask",
        "kind",
        "tags",
        "owners",
        "sharer_bits",
        "stamps",
        "stamp",
        "plru_bits",
        "_rng_seed",
        "_rngs",
        "lookups",
        "hits",
        "misses",
        "allocations",
        "evictions",
        "deallocations",
        "eviction_invalidations",
        "reads",
        "writes",
    )

    def __init__(
        self,
        node_id: int,
        coverage_bytes: int = 512 * 1024,
        associativity: int = 4,
        line_size: int = 64,
        replacement: str = "lru",
        seed: int = 0,
    ) -> None:
        if coverage_bytes <= 0:
            raise ConfigurationError("probe filter coverage must be positive")
        if not is_power_of_two(line_size):
            raise ConfigurationError("probe filter line size must be a power of two")
        if coverage_bytes % (associativity * line_size) != 0:
            raise ConfigurationError(
                "probe filter coverage must be a multiple of associativity * line_size"
            )
        entry_count = coverage_bytes // line_size
        set_count = entry_count // associativity
        if not is_power_of_two(set_count):
            raise ConfigurationError(
                f"probe filter set count {set_count} must be a power of two"
            )
        try:
            kind = _PF_KINDS[replacement]
        except KeyError:
            raise ConfigurationError(
                f"unknown replacement policy {replacement!r}; expected one of "
                f"('lru', 'plru', 'random')"
            ) from None
        if kind == _PF_PLRU and associativity & (associativity - 1) != 0:
            raise ConfigurationError("tree PLRU needs power-of-two associativity")

        self.node_id = node_id
        self.coverage_bytes = coverage_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.set_count = set_count
        self.entry_count = entry_count
        self.line_shift = line_size.bit_length() - 1
        self.set_mask = set_count - 1
        self.kind = kind

        self.tags = array("q", [-1]) * entry_count
        self.owners = array("q", [-1]) * entry_count
        self.sharer_bits: List[int] = [0] * entry_count
        self.stamps = array("q", [0]) * entry_count
        self.stamp = 0
        self.plru_bits: List[int] = [0] * set_count if kind == _PF_PLRU else []
        # Reference parity: ReplacementPolicyFactory(replacement,
        # seed=seed + node_id) pre-increments its counter, so set i's RNG
        # is seeded ``seed + node_id + i + 1``.  Created lazily — RNG
        # state depends only on the number of victim choices made.
        self._rng_seed = seed + node_id
        self._rngs: Dict[int, random.Random] = {}

        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0
        self.deallocations = 0
        self.eviction_invalidations = 0
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Stats / geometry
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ProbeFilterStats:
        """Read-only snapshot of the counters as ``ProbeFilterStats``."""
        return ProbeFilterStats(
            lookups=self.lookups,
            hits=self.hits,
            misses=self.misses,
            allocations=self.allocations,
            evictions=self.evictions,
            deallocations=self.deallocations,
            eviction_invalidations=self.eviction_invalidations,
            reads=self.reads,
            writes=self.writes,
        )

    def set_index(self, line_address: int) -> int:
        """Return the set index for a line-aligned address."""
        return (line_address >> self.line_shift) & self.set_mask

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot of every mutable field of this filter.

        Covers the flat arrays (tags, owners, sharer bitmasks, LRU
        stamps), the global stamp counter, per-set PLRU words, the states
        of all lazily created per-set RNGs (only the ones actually
        consulted, preserving lazy-creation semantics), and the nine
        stat counters.
        """
        return {
            "tags": self.tags.tobytes(),
            "owners": self.owners.tobytes(),
            "sharer_bits": list(self.sharer_bits),
            "stamps": self.stamps.tobytes(),
            "stamp": self.stamp,
            "plru_bits": list(self.plru_bits),
            "rngs": {idx: rng.getstate() for idx, rng in self._rngs.items()},
            "counters": (
                self.lookups,
                self.hits,
                self.misses,
                self.allocations,
                self.evictions,
                self.deallocations,
                self.eviction_invalidations,
                self.reads,
                self.writes,
            ),
        }

    def load_state_dict(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        Arrays are updated with equal-length slice assignment (never
        reallocated) so any outside references to the backing buffers
        stay valid.
        """
        tags = array("q")
        tags.frombytes(state["tags"])
        owners = array("q")
        owners.frombytes(state["owners"])
        stamps = array("q")
        stamps.frombytes(state["stamps"])
        if len(tags) != len(self.tags):
            raise ConfigurationError(
                f"probe filter {self.node_id}: checkpoint does not match "
                f"this geometry"
            )
        self.tags[:] = tags
        self.owners[:] = owners
        self.sharer_bits[:] = state["sharer_bits"]
        self.stamps[:] = stamps
        self.stamp = state["stamp"]
        self.plru_bits[:] = state["plru_bits"]
        self._rngs.clear()
        for idx, rng_state in state["rngs"].items():
            rng = random.Random()
            rng.setstate(rng_state)
            self._rngs[idx] = rng
        (
            self.lookups,
            self.hits,
            self.misses,
            self.allocations,
            self.evictions,
            self.deallocations,
            self.eviction_invalidations,
            self.reads,
            self.writes,
        ) = state["counters"]

    # ------------------------------------------------------------------
    # Packed primitives (used by the fast path)
    # ------------------------------------------------------------------
    def find_slot(self, line_address: int) -> int:
        """Return the flat slot tracking *line_address*, or ``-1``."""
        base = (
            (line_address >> self.line_shift) & self.set_mask
        ) * self.associativity
        try:
            return self.tags.index(line_address, base, base + self.associativity)
        except ValueError:
            return -1

    def has_free_way(self, line_address: int) -> bool:
        """True when the line's set has an unallocated way."""
        base = (
            (line_address >> self.line_shift) & self.set_mask
        ) * self.associativity
        try:
            self.tags.index(-1, base, base + self.associativity)
            return True
        except ValueError:
            return False

    def touch(self, slot: int) -> None:
        """Record recency for *slot* (allocate or lookup hit)."""
        kind = self.kind
        if kind == _PF_LRU:
            stamp = self.stamp + 1
            self.stamp = stamp
            self.stamps[slot] = stamp
        elif kind == _PF_PLRU:
            assoc = self.associativity
            set_index, way = divmod(slot, assoc)
            self.plru_bits[set_index] = plru_touch(
                self.plru_bits[set_index], way, assoc
            )

    def _reset(self, slot: int) -> None:
        if self.kind == _PF_LRU:
            self.stamps[slot] = 0

    def victim_way(self, set_index: int) -> int:
        """Choose the victim way of a full set (reference tie-breaks)."""
        kind = self.kind
        assoc = self.associativity
        if kind == _PF_LRU:
            # First minimum == first never-touched way, else the LRU way
            # (see PackedCache.victim_way).
            base = set_index * assoc
            window = self.stamps[base:base + assoc]
            return window.index(min(window))
        if kind == _PF_PLRU:
            return plru_victim(self.plru_bits[set_index], assoc)
        rng = self._rngs.get(set_index)
        if rng is None:
            rng = self._rngs[set_index] = random.Random(
                self._rng_seed + set_index + 1
            )
        return rng.choice(range(assoc))

    def allocate_fast(self, line_address: int, owner: int, sharer_mask: int) -> None:
        """Install an entry into a set known to have a free way.

        The caller has already probed
        for residency (absent) and a free way (present), so no victim can
        arise and no views are built.  *owner* is ``-1`` for no owner.
        """
        base = (
            (line_address >> self.line_shift) & self.set_mask
        ) * self.associativity
        slot = self.tags.index(-1, base, base + self.associativity)
        self.tags[slot] = line_address
        self.owners[slot] = owner
        self.sharer_bits[slot] = sharer_mask
        self.touch(slot)
        self.allocations += 1
        self.writes += 1

    def allocate_evict(
        self, line_address: int, owner: int, sharer_mask: int
    ) -> Tuple[int, int]:
        """Install an entry into a full set, evicting the policy's victim.

        Fast-path sibling of :meth:`allocate_fast` for the no-free-way
        case: the caller has already probed for residency (absent) and a
        free way (none), so a victim always exists.  Returns
        ``(victim_line_address, victim_holder_mask)`` — the holder mask
        merges the victim's owner bit into its sharer word — so the
        caller can run the invalidation fan-out without a view being
        built.  Counter deltas (one eviction, ``holder_count`` eviction
        invalidations, the extra victim read-out, one allocation, one
        write) match the reference ``ProbeFilter.allocate``'s victim
        branch exactly.
        """
        assoc = self.associativity
        set_index = (line_address >> self.line_shift) & self.set_mask
        slot = set_index * assoc + self.victim_way(set_index)
        victim_line = self.tags[slot]
        victim_owner = self.owners[slot]
        holder_mask = self.sharer_bits[slot]
        if victim_owner >= 0:
            holder_mask |= 1 << victim_owner
        self.evictions += 1
        self.eviction_invalidations += bin(holder_mask).count("1")
        # An eviction reads out the victim's tag+state and then writes
        # the replacement: count both array accesses for energy.
        self.reads += 1
        self.tags[slot] = line_address
        self.owners[slot] = owner
        self.sharer_bits[slot] = sharer_mask
        self.touch(slot)
        self.allocations += 1
        self.writes += 1
        return victim_line, holder_mask

    def deallocate_fast(self, slot: int) -> None:
        """Free *slot* (the packed form of ``ProbeFilter.deallocate``).

        The caller has already located the slot and read out whatever it
        needed from the entry; counter deltas (one deallocation, one
        write) match the reference exactly.
        """
        self.tags[slot] = -1
        self.owners[slot] = -1
        self.sharer_bits[slot] = 0
        self._reset(slot)
        self.deallocations += 1
        self.writes += 1

    # ------------------------------------------------------------------
    # Entry views (invariant checks)
    # ------------------------------------------------------------------
    def _view(self, slot: int) -> ProbeFilterEntry:
        owner = self.owners[slot]
        mask = self.sharer_bits[slot]
        sharers: Set[int] = set()
        while mask:
            low = mask & -mask
            sharers.add(low.bit_length() - 1)
            mask ^= low
        return ProbeFilterEntry(
            line_address=self.tags[slot],
            owner=owner if owner >= 0 else None,
            sharers=sharers,
            way=slot % self.associativity,
        )

    def peek(self, line_address: int) -> Optional[ProbeFilterEntry]:
        """Look up without disturbing statistics or recency (tests/debug)."""
        slot = self.find_slot(line_address)
        return self._view(slot) if slot >= 0 else None

    def occupancy(self) -> int:
        """Number of entries currently allocated."""
        return self.entry_count - self.tags.count(-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedProbeFilter(node={self.node_id}, "
            f"coverage={self.coverage_bytes}B, {self.associativity}-way)"
        )


class PackedDirectoryFastPath:
    """Fast miss servicing for one home node over packed directory state.

    One instance per node; all instances share one lazily filled
    ``routes`` table mapping ``(src, dst)`` to the delivery constants the
    reference network would have produced for a control and a data
    message on that route (latency computed with the *same* per-hop
    float-addition order as ``Network.deliver``, so reusing the cached
    float is bit-identical to recomputing it).

    :meth:`service` returns ``(transaction_latency_ns, fill_state_code)``
    and handles every miss flavour itself, including allocations into a
    full probe-filter set (victim eviction with its invalidation
    fan-out); :meth:`handle_eviction` is the packed form of
    ``DirectoryController.handle_cache_eviction`` for L2 eviction
    notifications.
    """

    __slots__ = (
        "node_id",
        "pf",
        "policy",
        "dstats",
        "hierarchies",
        "routes",
        "net_stats",
        "msgs_by_type",
        "bytes_by_type",
        "routing",
        "routers",
        "links",
        "ctl_bytes",
        "data_bytes",
        "ctl_flits",
        "data_flits",
        "dir_ns",
        "cache_ns",
        "probe_ns",
        "mc_stats",
        "sched_ns",
        "dram",
        "dram_stats",
    )

    def __init__(self, machine, node, routes: Dict[Tuple[int, int], tuple]) -> None:
        directory = node.directory
        self.node_id = node.node_id
        self.pf: PackedProbeFilter = node.probe_filter
        self.policy = directory.policy
        self.dstats = directory.stats
        self.hierarchies = [n.caches for n in machine.nodes]
        self.routes = routes
        network = machine.network
        self.net_stats = network.stats
        self.msgs_by_type = network.stats.messages_by_type
        self.bytes_by_type = network.stats.bytes_by_type
        self.routing = network.routing
        self.routers = network.routers
        self.links = network.links
        sizing = machine.message_factory.sizing
        self.ctl_bytes = sizing.control_bytes
        self.data_bytes = sizing.data_bytes
        self.ctl_flits = sizing.flits_of(MessageType.ACK)
        self.data_flits = sizing.flits_of(MessageType.DATA_FROM_MEMORY)
        timings = directory.timings
        self.dir_ns = timings.directory_access_ns
        self.cache_ns = timings.cache_access_ns
        self.probe_ns = timings.local_probe_ns
        self.mc_stats = node.memory_controller.stats
        self.sched_ns = node.memory_controller.scheduling_overhead_ns
        self.dram = node.dram
        self.dram_stats = node.dram.stats

    # ------------------------------------------------------------------
    # Packed equivalents of the reference component calls
    # ------------------------------------------------------------------
    def _route(self, src: int, dst: int) -> tuple:
        """Delivery constants for a route; computed once, reused forever.

        ``(ctl_latency, data_latency, ctl_flit_hops, data_flit_hops,
        ctl_byte_hops, data_byte_hops)`` — the latencies sum per-hop
        router pipeline and link traversal in exactly the order
        ``Network.deliver`` does.
        """
        key = (src, dst)
        info = self.routes.get(key)
        if info is None:
            path = self.routing.route(src, dst)
            hops = len(path) - 1
            ctl = 0.0
            data = 0.0
            for i in range(hops):
                router = self.routers[path[i]]
                link = self.links[(path[i], path[i + 1])]
                ctl += router.pipeline_latency_ns
                ctl += link.latency_ns + link.serialization_ns(self.ctl_bytes)
                data += router.pipeline_latency_ns
                data += link.latency_ns + link.serialization_ns(self.data_bytes)
            info = (
                ctl,
                data,
                self.ctl_flits * hops,
                self.data_flits * hops,
                self.ctl_bytes * hops,
                self.data_bytes * hops,
            )
            self.routes[key] = info
        return info

    def _send_ctl(self, name: str, src: int, dst: int) -> float:
        """Account one control message; return its delivery latency."""
        msgs = self.msgs_by_type
        msgs[name] = msgs.get(name, 0) + 1
        stats = self.net_stats
        if src == dst:
            stats.local_messages += 1
            return 0.0
        info = self._route(src, dst)
        stats.messages_sent += 1
        stats.bytes_injected += self.ctl_bytes
        stats.flit_hops += info[2]
        stats.byte_hops += info[4]
        bbt = self.bytes_by_type
        bbt[name] = bbt.get(name, 0) + self.ctl_bytes
        return info[0]

    def _send_data(self, name: str, src: int, dst: int) -> float:
        """Account one data message; return its delivery latency."""
        msgs = self.msgs_by_type
        msgs[name] = msgs.get(name, 0) + 1
        stats = self.net_stats
        if src == dst:
            stats.local_messages += 1
            return 0.0
        info = self._route(src, dst)
        stats.messages_sent += 1
        stats.bytes_injected += self.data_bytes
        stats.flit_hops += info[3]
        stats.byte_hops += info[5]
        bbt = self.bytes_by_type
        bbt[name] = bbt.get(name, 0) + self.data_bytes
        return info[1]

    def mem_read(self, line_address: int) -> float:
        """Inline ``MemoryController.read_line`` (same stats, same floats)."""
        self.mc_stats.line_reads += 1
        dram = self.dram
        stats = self.dram_stats
        row = line_address // dram.row_bytes
        if row == dram._open_row:
            stats.row_hits += 1
            latency = dram.row_hit_latency_ns
        else:
            stats.row_misses += 1
            dram._open_row = row
            latency = dram.access_latency_ns
        stats.reads += 1
        stats.bytes_read += dram.line_size
        return self.sched_ns + latency

    def mem_writeback(self, line_address: int) -> float:
        """Inline ``MemoryController.writeback_line``."""
        self.mc_stats.line_writebacks += 1
        dram = self.dram
        stats = self.dram_stats
        row = line_address // dram.row_bytes
        if row == dram._open_row:
            stats.row_hits += 1
            latency = dram.row_hit_latency_ns
        else:
            stats.row_misses += 1
            dram._open_row = row
            latency = dram.access_latency_ns
        stats.writes += 1
        stats.bytes_written += dram.line_size
        return self.sched_ns + latency

    # ------------------------------------------------------------------
    # Structural events (mirror the reference eviction machinery)
    # ------------------------------------------------------------------
    def _evict_victim(self, line_address: int, holder_mask: int) -> None:
        """Invalidate an evicted probe-filter victim everywhere it is cached.

        Packed form of ``DirectoryController._evict_victim``: each holder
        (ascending node order — the low-bit walk equals
        ``sorted(victim.holders)``) receives an invalidation and responds
        with an ack; dirty copies are written back to memory.  Background
        traffic: the message latencies never reach any critical path,
        but every counter (eviction messages, invalidations, writebacks,
        network and DRAM stats) lands exactly as the reference message
        loop would have left it.
        """
        home = self.node_id
        dstats = self.dstats
        hierarchies = self.hierarchies
        mask = holder_mask
        while mask:
            low = mask & -mask
            holder = low.bit_length() - 1
            mask ^= low
            self._send_ctl(_INV, home, holder)
            self._send_ctl(_ACK, holder, home)
            dstats.eviction_messages += 2
            dstats.invalidations_sent += 1
            if CODE_IS_DIRTY[hierarchies[holder].invalidate_code(line_address)]:
                self._send_data(_WB_DATA, holder, home)
                dstats.eviction_messages += 1
                dstats.eviction_writebacks += 1
                self.mem_writeback(line_address)

    def handle_eviction(
        self, evicting_node: int, line_address: int, state_code: int
    ) -> None:
        """Handle an L2 eviction notice for a line homed at this directory.

        Packed form of ``DirectoryController.handle_cache_eviction``,
        covering both notification modes: dirty lines send writeback
        data, clean owned lines a PutE, plain sharers a PutS; the home
        acks, dirty data reaches DRAM, and the probe-filter entry is
        trimmed in place (deallocated once the last holder leaves).
        Untracked lines (ALLARM local data) write back locally with no
        coherence traffic.
        """
        self.dstats.cache_eviction_notices += 1
        pf = self.pf
        slot = pf.find_slot(line_address)  # peek: stats/recency untouched
        dirty = CODE_IS_DIRTY[state_code]
        if slot < 0:
            # An untracked line: only the home node's local core can hold
            # one, so the writeback (if any) is entirely local.
            if dirty:
                self.mem_writeback(line_address)
                self.dstats.untracked_local_writebacks += 1
            return

        home = self.node_id
        if dirty:
            self._send_data(_WB_DATA, evicting_node, home)
        elif CODE_IS_OWNER[state_code]:
            self._send_ctl(_PUT_E, evicting_node, home)
        else:
            self._send_ctl(_PUT_S, evicting_node, home)
        self._send_ctl(_WB_ACK, home, evicting_node)
        if dirty:
            self.mem_writeback(line_address)

        owner = pf.owners[slot]
        if owner == evicting_node:
            pf.owners[slot] = owner = -1
        sharer_mask = pf.sharer_bits[slot] & ~(1 << evicting_node)
        pf.sharer_bits[slot] = sharer_mask
        holders = sharer_mask | (1 << owner) if owner >= 0 else sharer_mask
        if holders:
            pf.writes += 1  # probe_filter.update(entry)
        else:
            pf.deallocate_fast(slot)

    # ------------------------------------------------------------------
    # Request servicing (mirrors DirectoryController.service_request)
    # ------------------------------------------------------------------
    def service(
        self, requester: int, line_address: int, is_write: bool
    ) -> Tuple[float, int]:
        """Service one L2 miss/upgrade; return ``(latency_ns, fill_code)``.

        A miss that allocates into a full set evicts the replacement
        policy's victim in place, with the same invalidation fan-out,
        writebacks and counters the reference ``_evict_victim`` produces.
        """
        home = self.node_id
        dstats = self.dstats
        if requester == home:
            dstats.local_requests += 1
        else:
            dstats.remote_requests += 1
        if is_write:
            dstats.write_requests += 1
            latency = self._send_ctl(_GETX, requester, home)
        else:
            dstats.read_requests += 1
            latency = self._send_ctl(_GETS, requester, home)
        latency += self.dir_ns

        pf = self.pf
        pf.lookups += 1
        pf.reads += 1
        slot = pf.find_slot(line_address)
        if slot >= 0:
            pf.hits += 1
            pf.touch(slot)
            if is_write:
                sub, fill = self._hit_write(slot, requester, line_address)
            else:
                sub, fill = self._hit_read(slot, requester, line_address)
        else:
            pf.misses += 1
            sub, fill = self._miss(requester, line_address, is_write)
        return latency + sub, fill

    def _hit_read(
        self, slot: int, requester: int, line_address: int
    ) -> Tuple[float, int]:
        pf = self.pf
        hierarchies = self.hierarchies
        home = self.node_id
        owner = pf.owners[slot]
        supplier = -1
        if (
            owner >= 0
            and owner != requester
            and hierarchies[owner].l2.find(line_address) >= 0
        ):
            supplier = owner
        else:
            # Hammer supplies clean data cache-to-cache as well: scan the
            # sharers in ascending node order (== sorted(entry.sharers)).
            mask = pf.sharer_bits[slot]
            while mask:
                low = mask & -mask
                sharer = low.bit_length() - 1
                if (
                    sharer != requester
                    and hierarchies[sharer].l2.find(line_address) >= 0
                ):
                    supplier = sharer
                    break
                mask ^= low
        sub = 0.0
        if supplier >= 0:
            sub += self._send_ctl(_FWD_GETS, home, supplier)
            sub += self.cache_ns
            hierarchies[supplier].handle_downgrade(line_address)
            sub += self._send_data(_DATA_OWNER, supplier, requester)
            pf.sharer_bits[slot] |= 1 << requester
            had_other_sharers = True
        else:
            sub += self.mem_read(line_address)
            sub += self._send_data(_DATA_MEM, home, requester)
            pf.sharer_bits[slot] |= 1 << requester
            if owner >= 0 and hierarchies[owner].l2.find(line_address) < 0:
                # Stale owner (silently dropped clean line); clear it.
                pf.owners[slot] = -1
            had_other_sharers = False
        pf.writes += 1  # probe_filter.update(entry)
        if not had_other_sharers:
            # _requester_fill_state peeks the updated entry: SHARED when
            # the line now has more than one recorded holder.
            owner_now = pf.owners[slot]
            holders = pf.sharer_bits[slot]
            if owner_now >= 0:
                holders |= 1 << owner_now
            had_other_sharers = holders & (holders - 1) != 0
        return sub, STATE_SHARED if had_other_sharers else STATE_EXCLUSIVE

    def _hit_write(
        self, slot: int, requester: int, line_address: int
    ) -> Tuple[float, int]:
        pf = self.pf
        hierarchies = self.hierarchies
        home = self.node_id
        dstats = self.dstats
        owner = pf.owners[slot]
        requester_bit = 1 << requester
        original_holders = pf.sharer_bits[slot]
        if owner >= 0:
            original_holders |= 1 << owner
        holders = original_holders & ~requester_bit

        invalidation_latency = 0.0
        data_latency = 0.0
        data_sent = False
        if (
            owner >= 0
            and owner != requester
            and hierarchies[owner].l2.find(line_address) >= 0
        ):
            # The owner both supplies data and invalidates its copy.
            fwd = self._send_ctl(_FWD_GETX, home, owner)
            fwd += self.cache_ns
            hierarchies[owner].invalidate_code(line_address)
            fwd += self._send_data(_DATA_OWNER, owner, requester)
            data_latency = fwd
            data_sent = True
            holders &= ~(1 << owner)

        mask = holders
        while mask:
            low = mask & -mask
            holder = low.bit_length() - 1
            mask ^= low
            path = self._send_ctl(_INV, home, holder)
            path += self.cache_ns
            if CODE_IS_DIRTY[hierarchies[holder].invalidate_code(line_address)]:
                self._send_data(_WB_DATA, holder, home)
                self.mem_writeback(line_address)
            path += self._send_ctl(_ACK, holder, requester)
            if path > invalidation_latency:
                invalidation_latency = path
            dstats.invalidations_sent += 1

        if not data_sent and not original_holders & requester_bit:
            # Not an upgrade: memory supplies the data.
            data_latency = self.mem_read(line_address)
            data_latency += self._send_data(_DATA_MEM, home, requester)

        pf.owners[slot] = requester
        pf.sharer_bits[slot] = 0
        pf.writes += 1  # probe_filter.update(entry)
        # Invalidations and the data fetch proceed in parallel; the
        # request completes when the slower of the two finishes.
        if invalidation_latency > data_latency:
            return invalidation_latency, STATE_MODIFIED
        return data_latency, STATE_MODIFIED

    def _miss(
        self, requester: int, line_address: int, is_write: bool
    ) -> Tuple[float, int]:
        home = self.node_id
        policy = self.policy
        allocate = policy.should_allocate(requester, home, line_address)
        probe_local = policy.needs_local_probe(requester, home, line_address)
        dstats = self.dstats

        if not allocate:
            # ALLARM local-core miss: service straight from memory with no
            # directory state and no coherence traffic.
            if requester != home:
                raise ProtocolError(
                    "allocation policy skipped allocation for a remote requester"
                )
            sub = self.mem_read(line_address)
            sub += self._send_data(_DATA_MEM, home, requester)
            return sub, STATE_MODIFIED if is_write else STATE_EXCLUSIVE

        hierarchies = self.hierarchies
        local_code = STATE_INVALID
        probe_latency = 0.0
        if probe_local and requester != home:
            dstats.local_probes_sent += 1
            msgs = self.msgs_by_type
            stats = self.net_stats
            msgs[_LOCAL_PROBE] = msgs.get(_LOCAL_PROBE, 0) + 1
            stats.local_messages += 1
            msgs[_LOCAL_RESP] = msgs.get(_LOCAL_RESP, 0) + 1
            stats.local_messages += 1
            probe_latency = self.probe_ns
            home_l2 = hierarchies[home].l2
            local_slot = home_l2.find(line_address)
            if local_slot >= 0:
                local_code = home_l2.states[local_slot]
                dstats.local_probes_found_line += 1

        # Work out who will hold the line once the request completes, then
        # allocate the entry (evicting the policy's victim when the set
        # is full, exactly as the reference allocate/_evict_victim pair).
        if local_code == STATE_INVALID or requester == home:
            owner, sharer_mask = requester, 0
        elif is_write:
            # The local copy will be invalidated; the requester becomes
            # the sole owner.
            owner, sharer_mask = requester, 0
        elif CODE_AFTER_REMOTE_READ[local_code] == STATE_OWNED:
            # The local cache keeps the (still dirty) line and owns it.
            owner, sharer_mask = home, 1 << requester
        else:
            owner, sharer_mask = -1, (1 << home) | (1 << requester)
        pf = self.pf
        if pf.has_free_way(line_address):
            pf.allocate_fast(line_address, owner, sharer_mask)
        else:
            victim_line, victim_holders = pf.allocate_evict(
                line_address, owner, sharer_mask
            )
            self._evict_victim(victim_line, victim_holders)

        local_supplies = local_code != STATE_INVALID and requester != home
        if local_supplies:
            # The untracked local copy supplies (or is invalidated for)
            # the requester; no DRAM access on the critical path.
            if is_write:
                hierarchies[home].invalidate_code(line_address)
            else:
                hierarchies[home].handle_downgrade(line_address)
            data_latency = self._send_data(_DATA_OWNER, home, requester)
        else:
            data_latency = self.mem_read(line_address)
            data_latency += self._send_data(_DATA_MEM, home, requester)

        if probe_latency > 0.0:
            if local_code == STATE_INVALID and data_latency >= probe_latency:
                dstats.local_probes_hidden += 1
                sub = (
                    data_latency
                    if data_latency > probe_latency
                    else probe_latency
                )
            else:
                sub = probe_latency + data_latency
        else:
            sub = data_latency
        if is_write:
            return sub, STATE_MODIFIED
        return sub, STATE_SHARED if local_supplies else STATE_EXCLUSIVE
