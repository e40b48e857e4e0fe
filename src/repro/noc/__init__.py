"""On-chip network: mesh topology and the message-delivery model."""

from repro.noc.network import Network, NetworkStats
from repro.noc.topology import Coordinate, MeshTopology

__all__ = [
    "MeshTopology",
    "Coordinate",
    "Network",
    "NetworkStats",
]
