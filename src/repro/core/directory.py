"""Directory controller: Hammer-style protocol engine with ALLARM support.

One :class:`DirectoryController` exists per node of the reference
machine.  It sits in front of that node's probe filter and DRAM channel,
reaches the caches through the machine's list of hierarchies, and
services coherence requests for every line homed in the node's memory.
The controller implements:

* the baseline sparse-directory flow — look up the probe filter, allocate
  an entry on a miss (possibly evicting and invalidating a victim line in
  every cache that holds it), fetch data from the owning cache or DRAM,
  and invalidate sharers on writes; and
* the ALLARM extension — on a probe-filter miss, consult the allocation
  policy: local-core misses are serviced without allocating an entry,
  while remote misses additionally probe the home node's local cache
  (whose lines may be untracked) before completing, overlapping that
  probe with the DRAM access whenever possible (Section II-D).

Latency is accounted on the requesting core's critical path; background
activity (probe-filter eviction invalidations, writebacks) adds traffic
and energy but not request latency, mirroring how these flows behave in
the real protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.coherence.messages import MessageFactory, MessageType
from repro.coherence.states import LineState, fill_state
from repro.coherence.transactions import DataSource, RequestKind, Transaction
from repro.core.policy import AllocationPolicy
from repro.core.probe_filter import ProbeFilter, ProbeFilterEntry
from repro.errors import ProtocolError
from repro.memory.dram import Dram
from repro.noc.network import Network


@dataclass
class DirectoryStats:
    """Per-directory counters behind Figures 2, 3d and 3g."""

    local_requests: int = 0
    remote_requests: int = 0
    local_probes_sent: int = 0
    local_probes_hidden: int = 0
    local_probes_found_line: int = 0
    invalidations_sent: int = 0
    eviction_messages: int = 0
    cache_eviction_notices: int = 0
    untracked_local_writebacks: int = 0


@dataclass
class ServiceOutcome:
    """What the requester must do after the directory services its miss."""

    transaction: Transaction
    fill_state: LineState


@dataclass
class DirectoryTimings:
    """Component latencies used on the request critical path."""

    directory_access_ns: float = 1.0
    cache_access_ns: float = 1.0
    on_die_link_ns: float = 2.0

    @property
    def local_probe_ns(self) -> float:
        """Round-trip latency of the ALLARM local-state probe.

        The probe travels on-die links to the local cache and back and
        performs one SRAM lookup — well under the off-die DRAM latency,
        which is what makes hiding it possible (Section II-D).
        """
        return 2 * self.on_die_link_ns + self.cache_access_ns


class DirectoryController:
    """Protocol engine for one home node."""

    def __init__(
        self,
        node_id: int,
        probe_filter: ProbeFilter,
        dram: Dram,
        network: Network,
        caches: List[CacheHierarchy],
        policy: AllocationPolicy,
        messages: MessageFactory,
        timings: DirectoryTimings,
    ) -> None:
        self.node_id = node_id
        self.probe_filter = probe_filter
        self.dram = dram
        self.network = network
        self.caches = caches
        self.policy = policy
        self.messages = messages
        self.timings = timings
        self.stats = DirectoryStats()

    # ==================================================================
    # Request servicing
    # ==================================================================
    def service_request(
        self, requester: int, line_address: int, kind: RequestKind
    ) -> ServiceOutcome:
        """Service an L2 miss (or upgrade) from *requester* for *line_address*."""
        txn = Transaction(
            requester=requester,
            home=self.node_id,
            line_address=line_address,
            kind=kind,
        )
        self._count_request(requester)

        # Request message from the requester to this directory.
        request_type = (
            MessageType.GET_EXCLUSIVE if kind.is_write else MessageType.GET_SHARED
        )
        latency = self._send(txn, request_type, requester, self.node_id)
        latency += self.timings.directory_access_ns

        entry = self.probe_filter.lookup(line_address)
        if entry is not None:
            txn.probe_filter_hit = True
            latency += self._service_hit(txn, entry, requester, line_address, kind)
            state = self._requester_fill_state(txn, kind)
        else:
            latency += self._service_miss(txn, requester, line_address, kind)
            state = self._requester_fill_state(txn, kind)

        txn.latency_ns = latency
        return ServiceOutcome(transaction=txn, fill_state=state)

    # ------------------------------------------------------------------
    # Probe-filter hit path (identical for baseline and ALLARM)
    # ------------------------------------------------------------------
    def _service_hit(
        self,
        txn: Transaction,
        entry: ProbeFilterEntry,
        requester: int,
        line_address: int,
        kind: RequestKind,
    ) -> float:
        if kind.is_write:
            return self._service_hit_write(txn, entry, requester, line_address)
        return self._service_hit_read(txn, entry, requester, line_address)

    def _service_hit_read(
        self,
        txn: Transaction,
        entry: ProbeFilterEntry,
        requester: int,
        line_address: int,
    ) -> float:
        owner = entry.owner
        supplier: Optional[int] = None
        if owner is not None and owner != requester and self._cache_holds(owner, line_address):
            supplier = owner
        else:
            # Hammer supplies clean data cache-to-cache as well: any live
            # sharer can respond, saving the DRAM access.
            for sharer in sorted(entry.sharers):
                if sharer != requester and self._cache_holds(sharer, line_address):
                    supplier = sharer
                    break
        latency = 0.0
        if supplier is not None:
            # Forward the request to the supplying cache, which sends data
            # directly to the requester (three-hop transaction).
            latency += self._send(
                txn, MessageType.FORWARD_GET_SHARED, self.node_id, supplier
            )
            latency += self.timings.cache_access_ns
            self.caches[supplier].handle_downgrade(line_address)
            latency += self._send(
                txn, MessageType.DATA_FROM_OWNER, supplier, requester
            )
            txn.data_source = DataSource.OWNER_CACHE
            entry.sharers.add(requester)
        else:
            # No live owner: memory supplies the data.
            latency += self.dram.access(line_address)
            latency += self._send(
                txn, MessageType.DATA_FROM_MEMORY, self.node_id, requester
            )
            txn.data_source = DataSource.MEMORY
            entry.sharers.add(requester)
            if owner is not None and not self._cache_holds(owner, line_address):
                # Stale owner (silently dropped clean line); clear it.
                entry.owner = None
        self.probe_filter.update(entry)
        return latency

    def _service_hit_write(
        self,
        txn: Transaction,
        entry: ProbeFilterEntry,
        requester: int,
        line_address: int,
    ) -> float:
        holders = entry.holders
        holders.discard(requester)
        invalidation_latency = 0.0
        data_latency = 0.0
        data_sent = False

        owner = entry.owner
        if owner is not None and owner != requester and self._cache_holds(owner, line_address):
            # The owner both supplies data and invalidates its copy.
            fwd = self._send(
                txn, MessageType.FORWARD_GET_EXCLUSIVE, self.node_id, owner
            )
            fwd += self.timings.cache_access_ns
            self._invalidate_in_cache(txn, owner, line_address, writeback_to_memory=False)
            fwd += self._send(txn, MessageType.DATA_FROM_OWNER, owner, requester)
            data_latency = fwd
            data_sent = True
            txn.data_source = DataSource.OWNER_CACHE
            holders.discard(owner)

        for holder in sorted(holders):
            path = self._send(txn, MessageType.INVALIDATE, self.node_id, holder)
            path += self.timings.cache_access_ns
            self._invalidate_in_cache(txn, holder, line_address, writeback_to_memory=True)
            path += self._send(txn, MessageType.ACK, holder, requester)
            invalidation_latency = max(invalidation_latency, path)
            txn.invalidations_sent += 1
            self.stats.invalidations_sent += 1

        if not data_sent:
            if requester in entry.holders:
                # Upgrade: the requester already has the data.
                txn.data_source = DataSource.NONE
            else:
                data_latency = self.dram.access(line_address)
                data_latency += self._send(
                    txn, MessageType.DATA_FROM_MEMORY, self.node_id, requester
                )
                txn.data_source = DataSource.MEMORY

        entry.owner = requester
        entry.sharers = set()
        self.probe_filter.update(entry)
        # Invalidations and the data fetch proceed in parallel; the request
        # completes when the slower of the two finishes.
        return max(invalidation_latency, data_latency)

    # ------------------------------------------------------------------
    # Probe-filter miss path (where baseline and ALLARM diverge)
    # ------------------------------------------------------------------
    def _service_miss(
        self,
        txn: Transaction,
        requester: int,
        line_address: int,
        kind: RequestKind,
    ) -> float:
        allocate = self.policy.should_allocate(requester, self.node_id, line_address)
        probe_local = self.policy.needs_local_probe(
            requester, self.node_id, line_address
        )

        if not allocate:
            # ALLARM local-core miss: service straight from memory with no
            # directory state and no coherence traffic.
            if requester != self.node_id:
                raise ProtocolError(
                    "allocation policy skipped allocation for a remote requester"
                )
            latency = self.dram.access(line_address)
            latency += self._send(
                txn, MessageType.DATA_FROM_MEMORY, self.node_id, requester
            )
            txn.data_source = DataSource.MEMORY
            return latency

        local_state = LineState.INVALID
        probe_latency = 0.0
        if probe_local and requester != self.node_id:
            probe_latency = self._probe_local_cache(txn, line_address)
            local_state = self.caches[self.node_id].coherence_state(line_address)
            if local_state.is_valid:
                txn.local_probe_found_line = True
                self.stats.local_probes_found_line += 1

        # Work out who will hold the line once the request completes, then
        # allocate the entry (possibly evicting a victim).
        owner, sharers = self._post_miss_entry_state(
            txn, requester, line_address, kind, local_state
        )
        outcome = self.probe_filter.allocate(line_address, owner=owner, sharers=sharers)
        txn.allocated_entry = True
        if outcome.caused_eviction:
            txn.caused_eviction = True
            self._evict_victim(outcome.victim)

        data_latency = self._miss_data_latency(
            txn, requester, line_address, kind, local_state
        )

        if probe_latency > 0.0:
            hidden = (not local_state.is_valid) and data_latency >= probe_latency
            txn.local_probe_hidden = hidden
            if hidden:
                self.stats.local_probes_hidden += 1
                return max(data_latency, probe_latency)
            return probe_latency + data_latency
        return data_latency

    def _post_miss_entry_state(
        self,
        txn: Transaction,
        requester: int,
        line_address: int,
        kind: RequestKind,
        local_state: LineState,
    ):
        local_node = self.node_id
        if not local_state.is_valid or requester == local_node:
            return requester, set()
        if kind.is_write:
            # The local copy will be invalidated; the requester becomes the
            # sole owner.
            return requester, set()
        # Read that found the line in the (untracked) local cache: the local
        # cache keeps the line.  If it stays dirty it remains the owner;
        # otherwise both caches share the line.
        new_local = local_state.after_remote_read()
        if new_local.is_dirty:
            return local_node, {requester}
        return None, {local_node, requester}

    def _miss_data_latency(
        self,
        txn: Transaction,
        requester: int,
        line_address: int,
        kind: RequestKind,
        local_state: LineState,
    ) -> float:
        local_cache = self.caches[self.node_id]
        if local_state.is_valid and requester != self.node_id:
            # The untracked local copy supplies (or is invalidated for) the
            # requester; no DRAM access is needed on the critical path.
            if kind.is_write:
                self._invalidate_in_cache(
                    txn, self.node_id, line_address, writeback_to_memory=False
                )
            else:
                local_cache.handle_downgrade(line_address)
            latency = self._send(
                txn, MessageType.DATA_FROM_OWNER, self.node_id, requester
            )
            txn.data_source = DataSource.LOCAL_CACHE
            return latency

        latency = self.dram.access(line_address)
        latency += self._send(
            txn, MessageType.DATA_FROM_MEMORY, self.node_id, requester
        )
        txn.data_source = DataSource.MEMORY
        return latency

    def _requester_fill_state(self, txn: Transaction, kind: RequestKind) -> LineState:
        had_other_sharers = txn.data_source in (
            DataSource.OWNER_CACHE,
            DataSource.LOCAL_CACHE,
        )
        if txn.probe_filter_hit and not kind.is_write:
            entry = self.probe_filter.peek(txn.line_address)
            if entry is not None and entry.holder_count > 1:
                had_other_sharers = True
        return fill_state(kind.is_write, had_other_sharers)

    # ------------------------------------------------------------------
    # Probe-filter eviction (the baseline overhead ALLARM attacks)
    # ------------------------------------------------------------------
    def _evict_victim(self, victim: ProbeFilterEntry) -> None:
        """Invalidate the victim line everywhere it is cached.

        Each holder receives an invalidation and responds with an ack;
        dirty copies are written back to memory.  These messages are the
        per-eviction traffic plotted in Figure 3d.
        """
        line = victim.line_address
        for holder in sorted(victim.holders):
            inv = self.messages.make(MessageType.INVALIDATE, self.node_id, holder, line)
            self.network.deliver(inv)
            ack = self.messages.make(MessageType.ACK, holder, self.node_id, line)
            self.network.deliver(ack)
            self.stats.eviction_messages += 2
            self.stats.invalidations_sent += 1
            prior = self.caches[holder].handle_invalidate(line)
            if prior is not None and prior.is_dirty:
                wb = self.messages.make(
                    MessageType.WRITEBACK_DATA, holder, self.node_id, line
                )
                self.network.deliver(wb)
                self.stats.eviction_messages += 1
                self.dram.access(line, True)

    # ------------------------------------------------------------------
    # Cache-initiated eviction notices
    # ------------------------------------------------------------------
    def handle_cache_eviction(
        self, evicting_node: int, line_address: int, state: LineState
    ) -> None:
        """Handle an L2 eviction of a line homed at this directory.

        The paper's baseline notifies the directory when an owned block is
        evicted, keeping the probe filter precise.  Dirty lines are written
        back; untracked (ALLARM local) lines go straight to the local
        DRAM with no coherence traffic.
        """
        self.stats.cache_eviction_notices += 1
        entry = self.probe_filter.peek(line_address)
        if entry is None:
            # An untracked line: only the home node's local core can hold
            # one, so the writeback (if any) is entirely local.
            if state.is_dirty:
                self.dram.access(line_address, True)
                self.stats.untracked_local_writebacks += 1
            return

        if state.is_dirty:
            notice_type = MessageType.WRITEBACK_DATA
        elif state.is_owner:
            notice_type = MessageType.PUT_EXCLUSIVE
        else:
            notice_type = MessageType.PUT_SHARED
        notice = self.messages.make(
            notice_type, evicting_node, self.node_id, line_address
        )
        self.network.deliver(notice)
        ack = self.messages.make(
            MessageType.WRITEBACK_ACK, self.node_id, evicting_node, line_address
        )
        self.network.deliver(ack)
        if state.is_dirty:
            self.dram.access(line_address, True)

        if entry.owner == evicting_node:
            entry.owner = None
        entry.sharers.discard(evicting_node)
        if entry.holder_count == 0:
            self.probe_filter.deallocate(line_address)
        else:
            self.probe_filter.update(entry)

    # ==================================================================
    # Helpers
    # ==================================================================
    def _probe_local_cache(self, txn: Transaction, line_address: int) -> float:
        """Issue the ALLARM local-state probe; return its round-trip latency."""
        self.stats.local_probes_sent += 1
        txn.local_probe_sent = True
        probe = self.messages.make(
            MessageType.LOCAL_STATE_PROBE, self.node_id, self.node_id, line_address
        )
        self.network.deliver(probe)
        txn.add_message(probe)
        response = self.messages.make(
            MessageType.LOCAL_STATE_RESPONSE, self.node_id, self.node_id, line_address
        )
        self.network.deliver(response)
        txn.add_message(response)
        return self.timings.local_probe_ns

    def _invalidate_in_cache(
        self,
        txn: Transaction,
        node: int,
        line_address: int,
        writeback_to_memory: bool,
    ) -> None:
        prior = self.caches[node].handle_invalidate(line_address)
        if prior is not None and prior.is_dirty and writeback_to_memory:
            wb = self.messages.make(
                MessageType.WRITEBACK_DATA, node, self.node_id, line_address
            )
            self.network.deliver(wb)
            txn.add_message(wb)
            self.dram.access(line_address, True)

    def _cache_holds(self, node: int, line_address: int) -> bool:
        return self.caches[node].holds_line(line_address)

    def _send(
        self, txn: Transaction, msg_type: MessageType, src: int, dst: int
    ) -> float:
        message = self.messages.make(msg_type, src, dst, txn.line_address)
        latency = self.network.deliver(message)
        txn.add_message(message)
        return latency

    def _count_request(self, requester: int) -> None:
        if requester == self.node_id:
            self.stats.local_requests += 1
        else:
            self.stats.remote_requests += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DirectoryController(node={self.node_id}, policy={self.policy.name})"
        )
