"""Machine builder: wires nodes, network and the OS model together.

:class:`Machine` owns every structural component of the simulated system
(nodes, mesh network, NUMA allocator, message sizing) and provides the
access-servicing entry points the trace-driven simulator drives.  It is
deliberately independent of any particular workload: the simulator feeds
it one memory access at a time.

Each engine builds one directory per node, the one it runs (see
:meth:`Machine._build_directories`).  Directories reach the caches
through the machine's list of hierarchies, never through the machine,
and nothing the NUMA allocator holds refers back to it, so a record-fed
machine holds no reference cycle.
"""

from __future__ import annotations

from typing import List

from repro.cache.hierarchy import CacheHierarchy, EvictedLine
from repro.coherence.messages import MessageFactory, MessageSizing
from repro.coherence.transactions import RequestKind
from repro.core.directory import DirectoryController, DirectoryTimings
from repro.core.policy import AllarmPolicy, AllocationPolicy, BaselinePolicy
from repro.core.probe_filter import ProbeFilter
from repro.errors import ConfigurationError
from repro.memory.dram import Dram
from repro.noc.network import Network
from repro.noc.topology import MeshTopology
from repro.numa.allocator import NumaAllocator
from repro.system.config import SystemConfig
from repro.system.node import Node


class Machine:
    """The full simulated system of Table I.

    Parameters
    ----------
    config:
        System description; see :class:`repro.system.config.SystemConfig`.
    """

    #: Cache-hierarchy and probe-filter implementations each node is built
    #: with.  The packed engine (:class:`repro.system.fastcore.PackedMachine`)
    #: swaps in the array-backed hierarchy and sparse directory here, and
    #: its own directories in :meth:`_build_directories`; the network,
    #: NUMA and DRAM models are shared between the engines.
    hierarchy_class = CacheHierarchy
    probe_filter_class = ProbeFilter

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.address_map = config.address_map()
        self.sizing = MessageSizing(
            control_bytes=config.network.control_message_bytes,
            data_bytes=config.network.data_message_bytes,
            flit_bytes=config.network.flit_bytes,
        )
        self.network = Network(
            topology=MeshTopology(config.network.mesh_width, config.network.mesh_height),
            link_bandwidth_bytes_per_ns=config.network.link_bandwidth_bytes_per_ns,
            link_latency_ns=config.network.link_latency_ns,
            flit_bytes=config.network.flit_bytes,
            router_latency_ns=config.network.router_latency_ns,
        )
        self.allocator = NumaAllocator(
            self.address_map,
            policy=config.os.placement_policy,
            frames_per_node=config.os.frames_per_node,
        )
        # Every directory reaches every node's caches, so the directories
        # are built last, over the list of all hierarchies.
        node_ids = range(config.node_count)
        caches = [
            self.hierarchy_class(
                core_id=node_id,
                l1i_size=config.core.l1i_size,
                l1d_size=config.core.l1d_size,
                l1_assoc=config.core.l1_associativity,
                l2_size=config.core.l2_size,
                l2_assoc=config.core.l2_associativity,
                line_size=config.line_size,
            )
            for node_id in node_ids
        ]
        probe_filters = [
            self.probe_filter_class(
                node_id=node_id,
                coverage_bytes=config.directory.probe_filter_coverage,
                associativity=config.directory.probe_filter_associativity,
                line_size=config.line_size,
            )
            for node_id in node_ids
        ]
        drams = [
            Dram(
                node_id=node_id,
                access_latency_ns=config.directory.dram_latency_ns,
                row_hit_latency_ns=config.directory.dram_row_hit_latency_ns,
            )
            for node_id in node_ids
        ]
        directories = self._build_directories(caches, probe_filters, drams)
        self.nodes: List[Node] = [
            Node(node_id, *parts)
            for node_id, parts in enumerate(zip(caches, probe_filters, drams, directories))
        ]
        self.transactions_serviced = 0
        # Hot-path bindings: perform_access runs once per simulated memory
        # reference (millions per sweep run), so the constants and bound
        # methods it needs are hoisted here instead of being re-resolved
        # through the config object on every access.
        self._translate = self.allocator.translate
        self._line_mask = ~(config.line_size - 1)
        self._bytes_per_node = self.address_map.bytes_per_node
        self._cache_latency = config.core.cache_access_latency_ns

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _build_directories(
        self,
        caches: List[CacheHierarchy],
        probe_filters: List[ProbeFilter],
        drams: List[Dram],
    ) -> List[DirectoryController]:
        """One directory per node, over its probe filter and DRAM."""
        cfg = self.config
        messages = MessageFactory(self.sizing)
        timings = DirectoryTimings(
            directory_access_ns=cfg.directory.directory_access_latency_ns,
            cache_access_ns=cfg.core.cache_access_latency_ns,
            on_die_link_ns=cfg.directory.on_die_link_ns,
        )
        return [
            DirectoryController(
                node_id=node_id,
                probe_filter=probe_filters[node_id],
                dram=drams[node_id],
                network=self.network,
                caches=caches,
                policy=self._build_policy(node_id),
                messages=messages,
                timings=timings,
            )
            for node_id in range(cfg.node_count)
        ]

    def _build_policy(self, node_id: int) -> AllocationPolicy:
        if not self.config.uses_allarm:
            return BaselinePolicy()
        enabled = node_id not in self.config.allarm_disabled_nodes
        return AllarmPolicy(
            active_ranges=self.config.allarm_ranges, enabled=enabled
        )

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------
    def node(self, node_id: int) -> Node:
        """Return node *node_id*."""
        if node_id < 0 or node_id >= len(self.nodes):
            raise ConfigurationError(f"node {node_id} out of range")
        return self.nodes[node_id]

    # ------------------------------------------------------------------
    # Access servicing
    # ------------------------------------------------------------------
    def perform_access(
        self,
        core: int,
        process_id: int,
        vaddr: int,
        is_write: bool,
        is_instruction: bool = False,
    ) -> float:
        """Execute one memory access on *core*; return its latency in ns.

        The access is translated (allocating its page on first touch),
        looked up in the core's cache hierarchy, and on an L2 miss or
        upgrade a coherence transaction is issued to the home directory.
        Cache fills and any resulting L2 evictions (with their directory
        notifications) are applied before returning.

        This method is the simulator's innermost loop: the body up to the
        hit return touches only locals and pre-bound attributes, and the
        coherence machinery lives behind :meth:`_service_miss` so that the
        hit-dominated common case pays none of its setup cost.
        """
        nodes = self.nodes
        if core < 0 or core >= len(nodes):
            raise ConfigurationError(
                f"core {core} out of range for a {len(nodes)}-core machine"
            )
        node = nodes[core]
        paddr = self._translate(process_id, core, vaddr)
        line_paddr = paddr & self._line_mask

        result = node.caches.access(line_paddr, is_write, is_instruction)
        node.clock.memory_accesses += 1
        if not result.needs_coherence:
            return self._cache_latency
        return self._service_miss(
            node, core, line_paddr, is_write, is_instruction, result.needs_upgrade
        )

    def _service_miss(
        self,
        node: Node,
        core: int,
        line_paddr: int,
        is_write: bool,
        is_instruction: bool,
        needs_upgrade: bool,
    ) -> float:
        """Coherence slow path: directory transaction, fill and evictions.

        The miss is serviced atomically: nothing else runs between the
        request and the fill.
        """
        kind = RequestKind.WRITE if is_write else RequestKind.READ
        home = self.nodes[line_paddr // self._bytes_per_node].directory
        outcome = home.service_request(core, line_paddr, kind)
        self.transactions_serviced += 1

        if needs_upgrade:
            # The line is already resident; only its state changes.
            node.caches.l2.set_state(line_paddr, outcome.fill_state)
            for l1 in (node.caches.l1i, node.caches.l1d):
                if l1.contains(line_paddr):
                    l1.set_state(line_paddr, outcome.fill_state)
        else:
            evicted = node.caches.fill(
                line_paddr, outcome.fill_state, is_instruction
            )
            if evicted:
                self._handle_evictions(core, evicted)

        return self._cache_latency + outcome.transaction.latency_ns

    def _handle_evictions(self, core: int, evicted: List[EvictedLine]) -> None:
        mode = self.config.directory.eviction_notification
        for victim in evicted:
            home = self.nodes[victim.line_address // self._bytes_per_node].directory
            if mode == "owned":
                notify = victim.owned or victim.dirty
            elif mode == "dirty":
                notify = victim.dirty
            else:
                notify = False
            if notify:
                home.handle_cache_eviction(core, victim.line_address, victim.state)
            elif victim.dirty:
                # Even without a directory notification, dirty data must
                # reach memory.
                home.dram.access(victim.line_address, True)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def checkpoint(self) -> bytes:
        """Serialize this machine's full mutable state to a blob.

        The blob is versioned and digest-stamped; restoring it onto a
        freshly built machine of the same configuration and engine via
        :meth:`restore` continues the run bit-identically (the
        ``snapshot_diff == []`` contract).  See
        :mod:`repro.system.checkpoint` for the state inventory.
        """
        from repro.system.checkpoint import checkpoint_machine

        return checkpoint_machine(self)

    def restore(self, blob: bytes) -> None:
        """Restore a :meth:`checkpoint` blob onto this machine, in place."""
        from repro.system.checkpoint import restore_machine

        restore_machine(self, blob)

    # ------------------------------------------------------------------
    # Aggregate queries used by the statistics layer
    # ------------------------------------------------------------------
    def settle_stats(self) -> None:
        """Bring every component's stats up to date before they are read.

        The reference machine updates its stats in place, so there is
        nothing to settle; the packed engine folds its message tally
        into ``NetworkStats`` here.
        """

    def execution_time_ns(self) -> float:
        """Parallel execution time: the slowest core's clock."""
        return max((n.clock.now_ns for n in self.nodes), default=0.0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Machine(nodes={len(self.nodes)}, policy={self.config.directory_policy})"
        )
