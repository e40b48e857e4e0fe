"""Machine-wide statistics snapshots.

After a simulation run, :func:`collect` walks the machine and gathers the
exact quantities the paper's figures are built from: execution time,
probe-filter evictions and allocations, network traffic, L2 misses,
local/remote request mix, messages per probe-filter eviction, the ALLARM
latency-hiding fraction, and the event counts the energy models consume.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Dict, List

from repro.errors import SimulationError

#: Version of the serialized snapshot layout.  Bump when fields change so
#: that stale on-disk cache entries are rejected instead of misparsed.
SNAPSHOT_SCHEMA_VERSION = 1


@dataclass
class NodeSnapshot:
    """Per-node statistics extracted after a run."""

    node_id: int
    core_time_ns: float
    memory_accesses: int
    l1d_misses: int
    l2_misses: int
    l2_accesses: int
    pf_evictions: int
    pf_allocations: int
    pf_occupancy: int
    pf_reads: int
    pf_writes: int
    local_requests: int
    remote_requests: int
    local_probes_sent: int
    local_probes_hidden: int
    eviction_messages: int
    invalidations_sent: int
    dram_reads: int
    dram_writes: int

    def to_dict(self) -> Dict[str, object]:
        """Serialise to a plain dictionary (JSON-safe), in field order."""
        return dict(zip(_NODE_FIELDS, _node_values(self)))


@dataclass
class MachineSnapshot:
    """Aggregate statistics for one simulation run."""

    policy: str
    execution_time_ns: float
    total_accesses: int
    l2_misses: int
    l2_accesses: int
    pf_evictions: int
    pf_allocations: int
    pf_reads: int
    pf_writes: int
    network_bytes: int
    network_flit_hops: int
    network_messages: int
    local_requests: int
    remote_requests: int
    local_probes_sent: int
    local_probes_hidden: int
    eviction_messages: int
    invalidations_sent: int
    dram_reads: int
    dram_writes: int
    nodes: List[NodeSnapshot] = field(default_factory=list)
    messages_by_type: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def directory_requests(self) -> int:
        """Total requests seen by all directories."""
        return self.local_requests + self.remote_requests

    @property
    def local_fraction(self) -> float:
        """Fraction of directory requests from the local core (Figure 2)."""
        if self.directory_requests == 0:
            return 0.0
        return self.local_requests / self.directory_requests

    @property
    def remote_fraction(self) -> float:
        """Fraction of directory requests from remote cores (Figure 2)."""
        if self.directory_requests == 0:
            return 0.0
        return self.remote_requests / self.directory_requests

    @property
    def messages_per_eviction(self) -> float:
        """Average coherence messages caused by one PF eviction (Figure 3d)."""
        if self.pf_evictions == 0:
            return 0.0
        return self.eviction_messages / self.pf_evictions

    @property
    def probe_hidden_fraction(self) -> float:
        """Fraction of ALLARM local probes off the critical path (Figure 3g)."""
        if self.local_probes_sent == 0:
            return 0.0
        return self.local_probes_hidden / self.local_probes_sent

    @property
    def l2_miss_rate(self) -> float:
        """Machine-wide L2 miss rate."""
        if self.l2_accesses == 0:
            return 0.0
        return self.l2_misses / self.l2_accesses

    def as_dict(self) -> Dict[str, float]:
        """Flatten the headline metrics into a plain dictionary."""
        return {
            "policy": self.policy,
            "execution_time_ns": self.execution_time_ns,
            "total_accesses": self.total_accesses,
            "l2_misses": self.l2_misses,
            "pf_evictions": self.pf_evictions,
            "pf_allocations": self.pf_allocations,
            "network_bytes": self.network_bytes,
            "network_flit_hops": self.network_flit_hops,
            "local_fraction": self.local_fraction,
            "remote_fraction": self.remote_fraction,
            "messages_per_eviction": self.messages_per_eviction,
            "probe_hidden_fraction": self.probe_hidden_fraction,
            "dram_reads": self.dram_reads,
            "dram_writes": self.dram_writes,
        }

    # ------------------------------------------------------------------
    # Serialisation: the keyed public form (to_dict/to_json) and the
    # positional row the on-disk snapshot cache stores (to_row)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """Serialise the full snapshot — every field — to a plain dict.

        Unlike :meth:`as_dict` (headline metrics for reports), this is a
        lossless representation: ``from_dict(to_dict(s))`` compares equal
        to ``s`` field for field, including per-node statistics.
        """
        data: Dict[str, object] = {
            "schema_version": SNAPSHOT_SCHEMA_VERSION,
        }
        for f in fields(self):
            if f.name == "nodes":
                continue
            data[f.name] = getattr(self, f.name)
        data["messages_by_type"] = dict(self.messages_by_type)
        data["nodes"] = [node.to_dict() for node in self.nodes]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MachineSnapshot":
        """Rebuild a snapshot from :meth:`to_dict` output.

        Keys are checked against module-level sets, and each node is
        built with one constructor call: the cache decodes 16 nodes per
        snapshot on every warm load.  Unknown keys raise
        :class:`SimulationError`; a missing key fails the constructor
        with :class:`TypeError`.
        """
        data = dict(data)
        version = data.pop("schema_version", None)
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise SimulationError(
                f"snapshot schema {version!r} does not match "
                f"{SNAPSHOT_SCHEMA_VERSION}"
            )
        if not _MACHINE_KEYS.issuperset(data):
            raise _unknown_fields("snapshot", data, _MACHINE_KEYS)
        nodes = []
        for node in data.pop("nodes", ()):
            if not _NODE_KEYS.issuperset(node):
                raise _unknown_fields("node-snapshot", node, _NODE_KEYS)
            nodes.append(NodeSnapshot(**node))
        return cls(nodes=nodes, **data)

    def to_row(self) -> list:
        """Serialise to the compact positional form the cache stores.

        ``[SNAPSHOT_SCHEMA_VERSION, machine values, messages_by_type,
        [node values, ...]]``, where the machine and node values follow
        :func:`dataclasses.fields` order (``nodes`` and
        ``messages_by_type`` are the two entries of their own).  No field
        name is written, so decoding needs neither key parsing nor
        keyword construction; a field reorder must also change whatever
        addresses a stored row (the cache key folds in the source
        digest).
        """
        return [
            SNAPSHOT_SCHEMA_VERSION,
            list(_machine_values(self)),
            dict(self.messages_by_type),
            [list(_node_values(node)) for node in self.nodes],
        ]

    @classmethod
    def from_row(cls, row) -> "MachineSnapshot":
        """Rebuild a snapshot from :meth:`to_row` output (or its JSON).

        Raises :class:`SimulationError` on a wrong schema version, on a
        machine or node row that is not a list of the field count, and
        on a ``messages_by_type`` that is not a dict.
        """
        if type(row) is not list or len(row) != 4:
            raise SimulationError("snapshot row is not a 4-item list")
        version, machine, messages, node_rows = row
        if version != SNAPSHOT_SCHEMA_VERSION:
            raise SimulationError(
                f"snapshot schema {version!r} does not match "
                f"{SNAPSHOT_SCHEMA_VERSION}"
            )
        if type(machine) is not list or len(machine) != len(_MACHINE_FIELDS):
            raise SimulationError(
                f"snapshot machine row is not a list of {len(_MACHINE_FIELDS)} values"
            )
        if type(messages) is not dict or type(node_rows) is not list:
            raise SimulationError("snapshot messages or nodes have the wrong type")
        nodes = []
        for node in node_rows:
            if type(node) is not list or len(node) != len(_NODE_FIELDS):
                raise SimulationError(
                    f"node-snapshot row is not a list of {len(_NODE_FIELDS)} values"
                )
            nodes.append(NodeSnapshot(*node))
        return cls(*machine, nodes=nodes, messages_by_type=messages)

    def to_json(self, indent: int | None = None) -> str:
        """Serialise to a JSON string (lossless round trip)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "MachineSnapshot":
        """Rebuild a snapshot from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))


#: The positional order of a node row and of a machine row
#: (:meth:`MachineSnapshot.to_row`): field order, with ``nodes`` and
#: ``messages_by_type`` kept out of the machine row.
_NODE_FIELDS = tuple(f.name for f in fields(NodeSnapshot))
_MACHINE_FIELDS = tuple(
    f.name for f in fields(MachineSnapshot)
    if f.name not in ("nodes", "messages_by_type")
)
_node_values = attrgetter(*_NODE_FIELDS)
_machine_values = attrgetter(*_MACHINE_FIELDS)

#: Field names :meth:`MachineSnapshot.from_dict` accepts for a node and
#: for the machine (``schema_version`` is checked and dropped first).
_NODE_KEYS = frozenset(_NODE_FIELDS)
_MACHINE_KEYS = frozenset(f.name for f in fields(MachineSnapshot))


def _unknown_fields(kind: str, data: Dict[str, object], known) -> SimulationError:
    return SimulationError(f"unknown {kind} fields {sorted(set(data) - known)}")


def collect(machine, policy_name: str = "") -> MachineSnapshot:
    """Build a :class:`MachineSnapshot` from a finished machine.

    Parameters
    ----------
    machine:
        A :class:`repro.system.machine.Machine` after simulation.
    policy_name:
        Label recorded in the snapshot; defaults to the machine's
        configured directory policy.
    """
    machine.settle_stats()
    nodes: List[NodeSnapshot] = []
    for node in machine.nodes:
        directory = node.directory.stats
        nodes.append(
            NodeSnapshot(
                node_id=node.node_id,
                core_time_ns=node.clock.now_ns,
                memory_accesses=node.clock.memory_accesses,
                l1d_misses=node.caches.l1d.stats.misses,
                l2_misses=node.caches.l2.stats.misses,
                l2_accesses=node.caches.l2.stats.accesses,
                pf_evictions=node.probe_filter.stats.evictions,
                pf_allocations=node.probe_filter.stats.allocations,
                pf_occupancy=node.probe_filter.occupancy(),
                pf_reads=node.probe_filter.stats.reads,
                pf_writes=node.probe_filter.stats.writes,
                local_requests=directory.local_requests,
                remote_requests=directory.remote_requests,
                local_probes_sent=directory.local_probes_sent,
                local_probes_hidden=directory.local_probes_hidden,
                eviction_messages=directory.eviction_messages,
                invalidations_sent=directory.invalidations_sent,
                dram_reads=node.dram.stats.reads,
                dram_writes=node.dram.stats.writes,
            )
        )

    network = machine.network.stats
    return MachineSnapshot(
        policy=policy_name or machine.config.directory_policy,
        execution_time_ns=machine.execution_time_ns(),
        total_accesses=sum(n.memory_accesses for n in nodes),
        l2_misses=sum(n.l2_misses for n in nodes),
        l2_accesses=sum(n.l2_accesses for n in nodes),
        pf_evictions=sum(n.pf_evictions for n in nodes),
        pf_allocations=sum(n.pf_allocations for n in nodes),
        pf_reads=sum(n.pf_reads for n in nodes),
        pf_writes=sum(n.pf_writes for n in nodes),
        network_bytes=network.bytes_injected,
        network_flit_hops=network.flit_hops,
        network_messages=network.messages_sent,
        local_requests=sum(n.local_requests for n in nodes),
        remote_requests=sum(n.remote_requests for n in nodes),
        local_probes_sent=sum(n.local_probes_sent for n in nodes),
        local_probes_hidden=sum(n.local_probes_hidden for n in nodes),
        eviction_messages=sum(n.eviction_messages for n in nodes),
        invalidations_sent=sum(n.invalidations_sent for n in nodes),
        dram_reads=sum(n.dram_reads for n in nodes),
        dram_writes=sum(n.dram_writes for n in nodes),
        nodes=nodes,
        messages_by_type=dict(network.messages_by_type),
    )
