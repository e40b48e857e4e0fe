"""Mesh topology for the on-chip network.

The paper's system is a 4x4 mesh of nodes, each containing a core, its
caches, a directory (probe filter) and a memory controller (Figure 1 and
Table I).  This module provides the mesh geometry: node coordinates,
adjacency, and the Manhattan (minimal-route) distances the network's
latency and flit-hop accounting are computed from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator

from repro.errors import ConfigurationError, NetworkError


@dataclass(frozen=True)
class Coordinate:
    """(x, y) position of a node in the mesh."""

    x: int
    y: int

    def manhattan_distance(self, other: "Coordinate") -> int:
        """Return the Manhattan (hop) distance to *other*."""
        return abs(self.x - other.x) + abs(self.y - other.y)


class MeshTopology:
    """A ``width`` x ``height`` 2D mesh with bidirectional links.

    Node ids are assigned in row-major order: node ``y * width + x`` sits
    at coordinate ``(x, y)``.
    """

    def __init__(self, width: int = 4, height: int = 4) -> None:
        if width <= 0 or height <= 0:
            raise ConfigurationError("mesh dimensions must be positive")
        self.width = width
        self.height = height
        self._coords: Dict[int, Coordinate] = {
            y * width + x: Coordinate(x, y)
            for y in range(height)
            for x in range(width)
        }

    # ------------------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of nodes in the mesh."""
        return self.width * self.height

    def nodes(self) -> Iterator[int]:
        """Iterate over node ids in row-major order."""
        return iter(range(self.node_count))

    def coordinate(self, node: int) -> Coordinate:
        """Return the coordinate of *node*."""
        try:
            return self._coords[node]
        except KeyError:
            raise NetworkError(f"node {node} not in {self.width}x{self.height} mesh")

    # ------------------------------------------------------------------
    def are_adjacent(self, a: int, b: int) -> bool:
        """True when nodes *a* and *b* share a mesh link."""
        return self.hop_distance(a, b) == 1

    def hop_distance(self, src: int, dst: int) -> int:
        """Minimum number of link traversals between two nodes."""
        return self.coordinate(src).manhattan_distance(self.coordinate(dst))

    def average_distance(self) -> float:
        """Average hop distance between distinct node pairs.

        Used by the analytical NoC energy model to convert message counts
        into expected flit-hops when a full route trace is not available.
        """
        total = 0
        pairs = 0
        for a in self.nodes():
            for b in self.nodes():
                if a != b:
                    total += self.hop_distance(a, b)
                    pairs += 1
        return total / pairs if pairs else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MeshTopology({self.width}x{self.height})"
