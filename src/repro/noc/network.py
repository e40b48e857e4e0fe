"""Transaction-level on-chip network model.

The network delivers coherence messages between nodes of the mesh, charges
them a latency (router pipeline + link traversal per hop) and accumulates
the traffic statistics the paper reports: bytes injected (Figures 3c, 4c,
4f), flit-hops (which drive NoC dynamic energy, Figure 3f) and message
counts by type (Figure 3d's messages-per-eviction).

Every router and every link of the mesh has the same parameters, and a
message takes a minimal route, so its latency and flit-hops depend only
on the hop distance between its endpoints — not on which minimal route
(XY or YX) it would take.  The network therefore keeps no per-router or
per-link state.

Messages whose source and destination are the same node never enter the
mesh: they are delivered with zero latency contribution from the network
and zero traffic, matching the paper's claim that thread-local accesses
under ALLARM create no coherence network traffic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.coherence.messages import Message
from repro.errors import ConfigurationError, NetworkError
from repro.noc.topology import MeshTopology


@dataclass
class NetworkStats:
    """Machine-wide network traffic counters."""

    messages_sent: int = 0
    bytes_injected: int = 0
    flit_hops: int = 0
    messages_by_type: Dict[str, int] = field(default_factory=dict)

    def record(self, message: Message, hops: int) -> None:
        """Accumulate one delivered message that travelled *hops* links."""
        name = message.msg_type.value
        self.messages_by_type[name] = self.messages_by_type.get(name, 0) + 1
        if message.is_local or hops == 0:
            return
        self.messages_sent += 1
        self.bytes_injected += message.size_bytes
        self.flit_hops += message.flits * hops


class Network:
    """Mesh interconnect connecting every node's router.

    Parameters
    ----------
    topology:
        The mesh geometry (defaults to the paper's 4x4 mesh).
    link_bandwidth_bytes_per_ns, link_latency_ns, flit_bytes:
        Link parameters from Table I (8 GB/s, 10 ns, 4 B flits).
    router_latency_ns:
        Per-hop router pipeline latency (three cycles at 2 GHz).
    """

    def __init__(
        self,
        topology: Optional[MeshTopology] = None,
        link_bandwidth_bytes_per_ns: float = 8.0,
        link_latency_ns: float = 10.0,
        flit_bytes: int = 4,
        router_latency_ns: float = 1.5,
    ) -> None:
        if router_latency_ns < 0:
            raise ConfigurationError("router latency cannot be negative")
        if link_bandwidth_bytes_per_ns <= 0:
            raise ConfigurationError("link bandwidth must be positive")
        if link_latency_ns < 0:
            raise ConfigurationError("link latency cannot be negative")
        if flit_bytes <= 0:
            raise ConfigurationError("flit size must be positive")
        self.topology = topology or MeshTopology(4, 4)
        self.link_bandwidth_bytes_per_ns = link_bandwidth_bytes_per_ns
        self.link_latency_ns = link_latency_ns
        self.router_latency_ns = router_latency_ns
        self.stats = NetworkStats()

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes attached to the network."""
        return self.topology.node_count

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimal hop count between two nodes."""
        return self.topology.hop_distance(src, dst)

    def transit_ns(self, hops: int, size_bytes: int) -> float:
        """Latency of a *size_bytes* message crossing *hops* links.

        Per hop, the router pipeline is added first, then the link's
        propagation plus serialization time; the packed engine reuses
        this sum, so the float-addition order is part of the contract.
        """
        latency = 0.0
        for _ in range(hops):
            latency += self.router_latency_ns
            latency += (
                self.link_latency_ns + size_bytes / self.link_bandwidth_bytes_per_ns
            )
        return latency

    # ------------------------------------------------------------------
    def deliver(self, message: Message) -> float:
        """Deliver *message* and return its latency in nanoseconds.

        Local (same-node) messages bypass the mesh entirely.
        """
        self._validate_endpoints(message)
        hops = self.hop_distance(message.src, message.dst)
        self.stats.record(message, hops=hops)
        return self.transit_ns(hops, message.size_bytes)

    def _validate_endpoints(self, message: Message) -> None:
        for endpoint in (message.src, message.dst):
            if endpoint < 0 or endpoint >= self.node_count:
                raise NetworkError(
                    f"message endpoint {endpoint} outside mesh of "
                    f"{self.node_count} nodes"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Network({self.topology!r})"
