"""Packed sparse directory: flat-array probe filter + the packed directory.

The packed engine services every coherence transaction without leaving
flat arrays; this module holds the directory side of it:

* :class:`PackedProbeFilter` stores one home node's sparse directory in
  flat arrays indexed by ``slot = set_index * associativity + way``:

  ===============  ==============  ============================================
  Array            Type            Contents
  ===============  ==============  ============================================
  ``tags``         ``array('q')``  tracked line address per way (``-1`` free)
  ``owners``       ``array('q')``  owner node id per way (``-1`` = no owner)
  ``sharer_bits``  ``list[int]``   sharer bitmask per way (bit *n* = node *n*)
  ``stamps``       ``array('q')``  monotonic LRU stamps (``0`` = free)
  ``where``        ``dict``        tracked line address -> slot
  ===============  ==============  ============================================

  It behaves exactly like the reference
  :class:`~repro.core.probe_filter.ProbeFilter` (same stats, same LRU
  victim ways, same free-way preference).  :meth:`~PackedProbeFilter.peek`
  returns a read-only :class:`~repro.core.probe_filter.ProbeFilterEntry`
  view, which is all the coherence invariant checks need.

* :class:`PackedDirectory` is a packed machine's node directory — the
  only one it builds.  It services every miss flavour — probe-filter
  hits (reads and writes, including invalidation fan-out), ALLARM
  no-allocate local misses, allocating misses into a free way **and**
  allocating misses that evict a probe-filter victim (victim selection,
  holder-word walk, per-holder invalidation/ack accounting, dirty
  writebacks) — entirely in the packed representation, with per-route
  latency constants replacing per-message ``Message``/``Transaction``
  object churn.  L2 eviction *notifications* (both ``owned`` and
  ``dirty`` modes) are likewise packed via
  :meth:`PackedDirectory.handle_eviction`.  The request side of a
  transaction (request counters, the request message, the probe-filter
  lookup) is inlined into ``PackedMachine.perform_access``.  Like the
  reference :class:`~repro.core.directory.DirectoryController`, it
  reaches the caches through the machine's list of hierarchies and
  never holds the machine.

**Message tally.**  A message sent by a packed directory is one increment of
a flat ``counts`` list shared by every directory of a machine, at index
``(src * nodes + dst) * len(MESSAGE_KINDS) + kind``; its latency is read
from the per-route ``ctl_lat``/``data_lat`` lists (``0.0`` on a
node-local route, which never enters the network).
:func:`fold_message_tally` turns the tally into ``NetworkStats``
(messages sent, bytes, flit-hops, per-type counts) and zeroes it.
Integer sums commute, so folding at ``collect()`` and before a
checkpoint gives the counters the reference network would hold.

**Bit-identity is the contract**: every counter the snapshot layer reads
(:class:`~repro.core.directory.DirectoryStats`, probe-filter stats,
``NetworkStats`` including per-type message counts, DRAM reads and
writes) and every latency float must be exactly what the reference
``DirectoryController.service_request`` would have produced, down to
float-addition order.  Route latencies come from the same
``Network.transit_ns`` sum ``Network.deliver`` returns; the network
keeps no per-router or per-link state for either engine to maintain.
"""

from __future__ import annotations

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
    PackedHierarchy,
)
from repro.coherence.messages import MessageType
from repro.core.directory import DirectoryStats
from repro.core.policy import AllocationPolicy
from repro.core.probe_filter import ProbeFilterEntry, ProbeFilterStats
from repro.errors import ConfigurationError, ProtocolError
from repro.memory.address import is_power_of_two
from repro.memory.dram import Dram

#: Message kinds a packed directory sends, in tally order: the position of a
#: type here is its ``kind`` index in the message tally.
MESSAGE_KINDS = (
    MessageType.GET_SHARED,
    MessageType.GET_EXCLUSIVE,
    MessageType.FORWARD_GET_SHARED,
    MessageType.FORWARD_GET_EXCLUSIVE,
    MessageType.INVALIDATE,
    MessageType.ACK,
    MessageType.DATA_FROM_MEMORY,
    MessageType.DATA_FROM_OWNER,
    MessageType.WRITEBACK_DATA,
    MessageType.WRITEBACK_ACK,
    MessageType.PUT_SHARED,
    MessageType.PUT_EXCLUSIVE,
    MessageType.LOCAL_STATE_PROBE,
    MessageType.LOCAL_STATE_RESPONSE,
)
(
    GETS,
    GETX,
    FWD_GETS,
    FWD_GETX,
    INV,
    ACK,
    DATA_MEM,
    DATA_OWNER,
    WB_DATA,
    WB_ACK,
    PUT_S,
    PUT_E,
    LOCAL_PROBE,
    LOCAL_RESP,
) = range(len(MESSAGE_KINDS))
#: Tally entries per route.
KINDS = len(MESSAGE_KINDS)

def route_latencies(network, sizing, node_count: int) -> Tuple[List[float], List[float]]:
    """Per-route ``(ctl_lat, data_lat)`` lists, indexed ``src * nodes + dst``.

    Each entry is the ``Network.transit_ns`` sum ``Network.deliver``
    returns for a control or a data message on that route; a
    node-local route never enters the network and costs ``0.0``.
    """
    ctl_lat: List[float] = []
    data_lat: List[float] = []
    for src in range(node_count):
        for dst in range(node_count):
            if src == dst:
                ctl_lat.append(0.0)
                data_lat.append(0.0)
                continue
            hops = network.hop_distance(src, dst)
            ctl_lat.append(network.transit_ns(hops, sizing.control_bytes))
            data_lat.append(network.transit_ns(hops, sizing.data_bytes))
    return ctl_lat, data_lat


def fold_message_tally(counts: List[int], network, sizing, node_count: int) -> None:
    """Add a message tally to ``network.stats``, then zero the tally.

    Node-local messages count only in ``messages_by_type``, as in
    ``Network.deliver``.
    """
    stats = network.stats
    by_type = stats.messages_by_type
    index = 0
    for src in range(node_count):
        for dst in range(node_count):
            hops = network.hop_distance(src, dst)
            for kind in MESSAGE_KINDS:
                count = counts[index]
                index += 1
                if not count:
                    continue
                by_type[kind.value] = by_type.get(kind.value, 0) + count
                if hops:
                    stats.messages_sent += count
                    stats.bytes_injected += count * sizing.size_of(kind)
                    stats.flit_hops += count * sizing.flits_of(kind) * hops
    counts[:] = [0] * len(counts)


class PackedProbeFilter:
    """Flat-array sparse directory, bit-identical to :class:`ProbeFilter`.

    Construction parameters and validation match the reference exactly.
    The miss path works on flat slots (``where`` lookups,
    :meth:`allocate`, :meth:`deallocate_fast`); :meth:`peek` builds a
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
        "tags",
        "owners",
        "sharer_bits",
        "stamps",
        "stamp",
        "where",
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

        self.node_id = node_id
        self.coverage_bytes = coverage_bytes
        self.associativity = associativity
        self.line_size = line_size
        self.set_count = set_count
        self.entry_count = entry_count
        self.line_shift = line_size.bit_length() - 1
        self.set_mask = set_count - 1

        self.tags = array("q", [-1]) * entry_count
        self.owners = array("q", [-1]) * entry_count
        self.sharer_bits: List[int] = [0] * entry_count
        self.stamps = array("q", [0]) * entry_count
        self.stamp = 0
        self.where: Dict[int, int] = {}

        self.hits = 0
        self.misses = 0
        self.allocations = 0
        self.evictions = 0
        self.deallocations = 0
        self.eviction_invalidations = 0
        self.reads = 0
        self.writes = 0

    # ------------------------------------------------------------------
    # Stats
    # ------------------------------------------------------------------
    @property
    def stats(self) -> ProbeFilterStats:
        """Read-only snapshot of the counters as ``ProbeFilterStats``."""
        return ProbeFilterStats(
            hits=self.hits,
            misses=self.misses,
            allocations=self.allocations,
            evictions=self.evictions,
            deallocations=self.deallocations,
            eviction_invalidations=self.eviction_invalidations,
            reads=self.reads,
            writes=self.writes,
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Serializable snapshot of every mutable field of this filter.

        Covers the flat arrays (tags, owners, sharer bitmasks, LRU
        stamps), the global stamp counter and the eight stat counters.
        The residency map is derived from ``tags`` and not stored.
        """
        return {
            "tags": self.tags.tobytes(),
            "owners": self.owners.tobytes(),
            "sharer_bits": list(self.sharer_bits),
            "stamps": self.stamps.tobytes(),
            "stamp": self.stamp,
            "counters": (
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
        stay valid.  The residency map is rebuilt from the restored tags.
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
        self.where.clear()
        self.where.update(
            (tag, slot) for slot, tag in enumerate(tags) if tag >= 0
        )
        (
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
    # Packed primitives (used by the packed directory)
    # ------------------------------------------------------------------
    def allocate(
        self, line_address: int, owner: int, sharer_mask: int
    ) -> Tuple[int, int]:
        """Install an untracked line; return ``(victim_line, victim_holders)``.

        The way is the set's first free way, else its LRU victim (the
        first minimum stamp; see :mod:`repro.cache.packed`).
        ``victim_line`` is ``-1`` when a free way took the entry;
        otherwise the victim's owner bit is merged into its sharer word
        so the caller can run the invalidation fan-out without a view
        being built.  *owner* is ``-1`` for no owner.  Counter deltas
        (one allocation and one write, plus one eviction,
        ``holder_count`` eviction invalidations and the victim read-out
        when a victim is evicted) match the reference
        ``ProbeFilter.allocate`` exactly.
        """
        assoc = self.associativity
        base = ((line_address >> self.line_shift) & self.set_mask) * assoc
        stamps = self.stamps
        window = stamps[base:base + assoc]
        slot = base + window.index(min(window))
        tags = self.tags
        where = self.where
        victim_line = tags[slot]
        holder_mask = 0
        if victim_line >= 0:
            del where[victim_line]
            holder_mask = self.sharer_bits[slot]
            victim_owner = self.owners[slot]
            if victim_owner >= 0:
                holder_mask |= 1 << victim_owner
            self.evictions += 1
            self.eviction_invalidations += bin(holder_mask).count("1")
            # An eviction reads out the victim's tag+state and then
            # writes the replacement: count both array accesses for energy.
            self.reads += 1
        tags[slot] = line_address
        where[line_address] = slot
        self.owners[slot] = owner
        self.sharer_bits[slot] = sharer_mask
        stamp = self.stamp + 1
        self.stamp = stamp
        stamps[slot] = stamp
        self.allocations += 1
        self.writes += 1
        return victim_line, holder_mask

    def deallocate_fast(self, slot: int) -> None:
        """Free *slot* (the packed form of ``ProbeFilter.deallocate``).

        The caller has already located the slot and read out whatever it
        needed from the entry; counter deltas (one deallocation, one
        write) match the reference exactly.
        """
        del self.where[self.tags[slot]]
        self.tags[slot] = -1
        self.owners[slot] = -1
        self.sharer_bits[slot] = 0
        self.stamps[slot] = 0
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
        slot = self.where.get(line_address, -1)
        return self._view(slot) if slot >= 0 else None

    def occupancy(self) -> int:
        """Number of entries currently allocated."""
        return self.entry_count - self.tags.count(-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PackedProbeFilter(node={self.node_id}, "
            f"coverage={self.coverage_bytes}B, {self.associativity}-way)"
        )


class PackedDirectory:
    """One home node's directory over packed state.

    One instance per node, built by ``PackedMachine`` as
    ``node.directory``.  All instances share the machine's message tally
    (``counts``) and its per-route latency lists (``ctl_lat``,
    ``data_lat``); see the module docstring.  Each owns its
    :class:`~repro.core.directory.DirectoryStats` (``stats``), which the
    snapshot and checkpoint layers read as they do the reference
    directory's.

    ``PackedMachine.perform_access`` books the request and looks up the
    probe filter, then calls :meth:`_hit_read`, :meth:`_hit_write` or
    :meth:`_miss`, each returning ``(latency_ns, fill_state_code)``.
    :meth:`_miss` handles allocations into a full probe-filter set too
    (victim eviction with its invalidation fan-out);
    :meth:`handle_eviction` is the packed form of
    ``DirectoryController.handle_cache_eviction`` for L2 eviction
    notifications.
    """

    __slots__ = (
        "node_id",
        "probe_filter",
        "policy",
        "stats",
        "caches",
        "nodes",
        "counts",
        "ctl_lat",
        "data_lat",
        "dir_ns",
        "cache_ns",
        "probe_ns",
        "dram",
    )

    def __init__(
        self,
        node_id: int,
        probe_filter: PackedProbeFilter,
        dram: Dram,
        caches: List[PackedHierarchy],
        policy: AllocationPolicy,
        config,
        counts: List[int],
        ctl_lat: List[float],
        data_lat: List[float],
    ) -> None:
        self.node_id = node_id
        self.probe_filter = probe_filter
        self.policy = policy
        self.stats = DirectoryStats()
        self.caches = caches
        self.nodes = len(caches)
        self.counts = counts
        self.ctl_lat = ctl_lat
        self.data_lat = data_lat
        self.dir_ns = config.directory.directory_access_latency_ns
        self.cache_ns = config.core.cache_access_latency_ns
        # The ALLARM local probe's round trip (DirectoryTimings.local_probe_ns).
        self.probe_ns = 2 * config.directory.on_die_link_ns + self.cache_ns
        self.dram = dram

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
        nodes = self.nodes
        counts = self.counts
        stats = self.stats
        caches = self.caches
        mask = holder_mask
        while mask:
            low = mask & -mask
            holder = low.bit_length() - 1
            mask ^= low
            back = (holder * nodes + home) * KINDS
            counts[(home * nodes + holder) * KINDS + INV] += 1
            counts[back + ACK] += 1
            stats.eviction_messages += 2
            stats.invalidations_sent += 1
            if CODE_IS_DIRTY[caches[holder].invalidate_code(line_address)]:
                counts[back + WB_DATA] += 1
                stats.eviction_messages += 1
                self.dram.access(line_address, True)

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
        self.stats.cache_eviction_notices += 1
        pf = self.probe_filter
        slot = pf.where.get(line_address, -1)  # peek: stats/recency untouched
        dirty = CODE_IS_DIRTY[state_code]
        if slot < 0:
            # An untracked line: only the home node's local core can hold
            # one, so the writeback (if any) is entirely local.
            if dirty:
                self.dram.access(line_address, True)
                self.stats.untracked_local_writebacks += 1
            return

        home = self.node_id
        nodes = self.nodes
        counts = self.counts
        up = (evicting_node * nodes + home) * KINDS
        if dirty:
            counts[up + WB_DATA] += 1
        elif CODE_IS_OWNER[state_code]:
            counts[up + PUT_E] += 1
        else:
            counts[up + PUT_S] += 1
        counts[(home * nodes + evicting_node) * KINDS + WB_ACK] += 1
        if dirty:
            self.dram.access(line_address, True)

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
    def _hit_read(
        self, slot: int, requester: int, line_address: int
    ) -> Tuple[float, int]:
        pf = self.probe_filter
        caches = self.caches
        home = self.node_id
        nodes = self.nodes
        counts = self.counts
        owner = pf.owners[slot]
        supplier = -1
        if (
            owner >= 0
            and owner != requester
            and line_address in caches[owner].l2.where
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
                    and line_address in caches[sharer].l2.where
                ):
                    supplier = sharer
                    break
                mask ^= low
        sub = 0.0
        if supplier >= 0:
            route = home * nodes + supplier
            counts[route * KINDS + FWD_GETS] += 1
            sub += self.ctl_lat[route]
            sub += self.cache_ns
            caches[supplier].downgrade_code(line_address)
            route = supplier * nodes + requester
            counts[route * KINDS + DATA_OWNER] += 1
            sub += self.data_lat[route]
            pf.sharer_bits[slot] |= 1 << requester
            had_other_sharers = True
        else:
            sub += self.dram.access(line_address)
            route = home * nodes + requester
            counts[route * KINDS + DATA_MEM] += 1
            sub += self.data_lat[route]
            pf.sharer_bits[slot] |= 1 << requester
            if owner >= 0 and line_address not in caches[owner].l2.where:
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
        pf = self.probe_filter
        caches = self.caches
        home = self.node_id
        nodes = self.nodes
        counts = self.counts
        ctl_lat = self.ctl_lat
        stats = self.stats
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
            and line_address in caches[owner].l2.where
        ):
            # The owner both supplies data and invalidates its copy.
            route = home * nodes + owner
            counts[route * KINDS + FWD_GETX] += 1
            fwd = ctl_lat[route]
            fwd += self.cache_ns
            caches[owner].invalidate_code(line_address)
            route = owner * nodes + requester
            counts[route * KINDS + DATA_OWNER] += 1
            fwd += self.data_lat[route]
            data_latency = fwd
            data_sent = True
            holders &= ~(1 << owner)

        mask = holders
        while mask:
            low = mask & -mask
            holder = low.bit_length() - 1
            mask ^= low
            route = home * nodes + holder
            counts[route * KINDS + INV] += 1
            path = ctl_lat[route]
            path += self.cache_ns
            if CODE_IS_DIRTY[caches[holder].invalidate_code(line_address)]:
                counts[(holder * nodes + home) * KINDS + WB_DATA] += 1
                self.dram.access(line_address, True)
            route = holder * nodes + requester
            counts[route * KINDS + ACK] += 1
            path += ctl_lat[route]
            if path > invalidation_latency:
                invalidation_latency = path
            stats.invalidations_sent += 1

        if not data_sent and not original_holders & requester_bit:
            # Not an upgrade: memory supplies the data.
            data_latency = self.dram.access(line_address)
            route = home * nodes + requester
            counts[route * KINDS + DATA_MEM] += 1
            data_latency += self.data_lat[route]

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
        nodes = self.nodes
        counts = self.counts
        route = home * nodes + requester

        if not allocate:
            # ALLARM local-core miss: service straight from memory with no
            # directory state and no coherence traffic.
            if requester != home:
                raise ProtocolError(
                    "allocation policy skipped allocation for a remote requester"
                )
            sub = self.dram.access(line_address)
            counts[route * KINDS + DATA_MEM] += 1
            sub += self.data_lat[route]
            return sub, STATE_MODIFIED if is_write else STATE_EXCLUSIVE

        stats = self.stats
        caches = self.caches
        local_code = STATE_INVALID
        probe_latency = 0.0
        if probe_local and requester != home:
            stats.local_probes_sent += 1
            local = home * (nodes + 1) * KINDS
            counts[local + LOCAL_PROBE] += 1
            counts[local + LOCAL_RESP] += 1
            probe_latency = self.probe_ns
            home_l2 = caches[home].l2
            local_slot = home_l2.where.get(line_address, -1)
            if local_slot >= 0:
                local_code = home_l2.states[local_slot]
                stats.local_probes_found_line += 1

        # Work out who will hold the line once the request completes, then
        # allocate the entry (evicting the LRU victim when the set
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
        victim_line, victim_holders = self.probe_filter.allocate(
            line_address, owner, sharer_mask
        )
        if victim_line >= 0:
            self._evict_victim(victim_line, victim_holders)

        local_supplies = local_code != STATE_INVALID and requester != home
        if local_supplies:
            # The untracked local copy supplies (or is invalidated for)
            # the requester; no DRAM access on the critical path.
            if is_write:
                caches[home].invalidate_code(line_address)
            else:
                caches[home].downgrade_code(line_address)
            counts[route * KINDS + DATA_OWNER] += 1
            data_latency = self.data_lat[route]
        else:
            data_latency = self.dram.access(line_address)
            counts[route * KINDS + DATA_MEM] += 1
            data_latency += self.data_lat[route]

        if probe_latency > 0.0:
            if local_code == STATE_INVALID and data_latency >= probe_latency:
                stats.local_probes_hidden += 1
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
