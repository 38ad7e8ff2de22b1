"""Radio-topology generators.

Each generator returns node positions (where meaningful) and a symmetric
radio adjacency — the "who is within range of whom" relation of §II,
before channels are taken into account. Channel availability is assigned
separately by :mod:`repro.net.channels` and the two are combined into an
:class:`~repro.net.network.M2HeWNetwork` by
:func:`repro.net.build_network`.

All generators are deterministic given a :class:`numpy.random.Generator`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import networkx as nx
import numpy as np

from ..exceptions import ConfigurationError

__all__ = [
    "AdjacencyPairs",
    "DirectedTopology",
    "Positions",
    "Topology",
    "asymmetric_random_geometric",
    "random_geometric",
    "grid",
    "line",
    "ring",
    "star",
    "clique",
    "erdos_renyi",
    "two_cliques_bridge",
]

AdjacencyPairs = List[Tuple[int, int]]
Positions = Dict[int, Tuple[float, float]]


@dataclass
class Topology:
    """A radio topology: node count, adjacency pairs, optional positions.

    Attributes:
        num_nodes: Number of nodes (ids are ``0 .. num_nodes - 1``).
        pairs: Symmetric adjacency as unordered pairs with ``u < v``.
        positions: Per-node coordinates, or ``None`` for abstract graphs.
        name: Human-readable generator label.
    """

    num_nodes: int
    pairs: AdjacencyPairs
    positions: Optional[Positions] = None
    name: str = "topology"
    metadata: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError(f"num_nodes must be positive, got {self.num_nodes}")
        canonical = []
        for u, v in self.pairs:
            if u == v:
                raise ConfigurationError(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ConfigurationError(f"pair ({u}, {v}) references unknown node")
            canonical.append((u, v) if u < v else (v, u))
        self.pairs = sorted(set(canonical))

    def to_graph(self) -> nx.Graph:
        """The adjacency as a :class:`networkx.Graph`."""
        graph = nx.Graph()
        graph.add_nodes_from(range(self.num_nodes))
        graph.add_edges_from(self.pairs)
        return graph

    @property
    def is_connected(self) -> bool:
        """Whether the radio graph is connected."""
        return nx.is_connected(self.to_graph())

    @property
    def max_radio_degree(self) -> int:
        """Maximum degree in the radio graph (upper bound on ``Δ``)."""
        if not self.pairs:
            return 0
        degrees: Dict[int, int] = {}
        for u, v in self.pairs:
            degrees[u] = degrees.get(u, 0) + 1
            degrees[v] = degrees.get(v, 0) + 1
        return max(degrees.values())


@dataclass
class DirectedTopology:
    """An asymmetric radio topology (§V extension (a)).

    Attributes:
        num_nodes: Number of nodes (ids ``0 .. num_nodes - 1``).
        pairs: Directed hearing relation as ordered pairs
            ``(transmitter, receiver)`` — the receiver can hear the
            transmitter, not necessarily vice versa.
        positions: Per-node coordinates, or ``None``.
        tx_ranges: Per-node transmission range that induced the pairs,
            when generated geometrically.
        name: Human-readable generator label.
    """

    num_nodes: int
    pairs: AdjacencyPairs
    positions: Optional[Positions] = None
    tx_ranges: Optional[Dict[int, float]] = None
    name: str = "directed_topology"

    def __post_init__(self) -> None:
        if self.num_nodes <= 0:
            raise ConfigurationError(
                f"num_nodes must be positive, got {self.num_nodes}"
            )
        for u, v in self.pairs:
            if u == v:
                raise ConfigurationError(f"self-loop at node {u}")
            if not (0 <= u < self.num_nodes and 0 <= v < self.num_nodes):
                raise ConfigurationError(
                    f"pair ({u}, {v}) references unknown node"
                )
        self.pairs = sorted(set(self.pairs))

    @property
    def asymmetric_pair_count(self) -> int:
        """Ordered pairs whose reverse is absent (one-way audibility)."""
        pair_set = set(self.pairs)
        return sum(1 for (u, v) in self.pairs if (v, u) not in pair_set)


def _distances_from(coords: np.ndarray, u: int, first: int) -> np.ndarray:
    """Distances from node ``u`` to nodes ``first..``, one ``np.hypot`` per row.

    Each entry is bit-for-bit the scalar ``np.hypot(*(coords[u] -
    coords[v]))``: the same subtractions, then the same hypot per pair.
    """
    rest = coords[first:]
    return np.hypot(coords[u, 0] - rest[:, 0], coords[u, 1] - rest[:, 1])


def asymmetric_random_geometric(
    num_nodes: int,
    min_range: float,
    max_range: float,
    rng: np.random.Generator,
    area: float = 1.0,
) -> DirectedTopology:
    """Uniform placement with per-node transmission power (§V(a)).

    Each node draws a transmission range uniformly from
    ``[min_range, max_range]``; ``v`` hears ``u`` iff their distance is
    within *u's* range. Unequal ranges make the hearing relation
    asymmetric: a strong transmitter reaches a weak one that cannot
    answer.
    """
    if not 0 < min_range <= max_range:
        raise ConfigurationError(
            f"need 0 < min_range <= max_range, got [{min_range}, {max_range}]"
        )
    if area <= 0:
        raise ConfigurationError(f"area must be positive, got {area}")
    coords = rng.uniform(0.0, area, size=(num_nodes, 2))
    ranges = {
        i: float(rng.uniform(min_range, max_range)) for i in range(num_nodes)
    }
    pairs: AdjacencyPairs = []
    for u in range(num_nodes):
        heard = _distances_from(coords, u, 0) <= ranges[u]
        heard[u] = False
        pairs.extend((u, v) for v in heard.nonzero()[0].tolist())  # v hears u
    return DirectedTopology(
        num_nodes=num_nodes,
        pairs=pairs,
        positions={i: (float(coords[i][0]), float(coords[i][1])) for i in range(num_nodes)},
        tx_ranges=ranges,
        name="asymmetric_random_geometric",
    )


def random_geometric(
    num_nodes: int,
    radius: float,
    rng: np.random.Generator,
    area: float = 1.0,
    require_connected: bool = False,
    max_attempts: int = 50,
) -> Topology:
    """Uniform node placement in an ``area x area`` square, unit-disk links.

    Two nodes are radio-adjacent iff their distance is at most ``radius``
    — the standard unit-disk model for ad hoc networks.

    Args:
        num_nodes: Number of nodes to place.
        radius: Communication radius.
        rng: Source of randomness.
        area: Side length of the deployment square.
        require_connected: Re-sample placements until the radio graph is
            connected (raises after ``max_attempts`` failures).
        max_attempts: Placement retries when ``require_connected``.
    """
    if radius <= 0:
        raise ConfigurationError(f"radius must be positive, got {radius}")
    if area <= 0:
        raise ConfigurationError(f"area must be positive, got {area}")

    for _ in range(max_attempts):
        coords = rng.uniform(0.0, area, size=(num_nodes, 2))
        pairs: AdjacencyPairs = []
        for u in range(num_nodes - 1):
            near = (_distances_from(coords, u, u + 1) <= radius).nonzero()[0]
            pairs.extend((u, v) for v in (near + (u + 1)).tolist())
        topo = Topology(
            num_nodes=num_nodes,
            pairs=pairs,
            positions={i: (float(coords[i][0]), float(coords[i][1])) for i in range(num_nodes)},
            name="random_geometric",
            metadata={"radius": radius, "area": area},
        )
        if not require_connected or num_nodes == 1 or topo.is_connected:
            return topo
    raise ConfigurationError(
        f"could not generate a connected geometric topology in {max_attempts} "
        f"attempts (num_nodes={num_nodes}, radius={radius}, area={area})"
    )


def grid(rows: int, cols: int, diagonal: bool = False) -> Topology:
    """A ``rows x cols`` lattice; 4-neighborhood, or 8 with ``diagonal``."""
    if rows <= 0 or cols <= 0:
        raise ConfigurationError(f"rows and cols must be positive, got {rows}x{cols}")
    num = rows * cols

    def nid(r: int, c: int) -> int:
        return r * cols + c

    pairs: AdjacencyPairs = []
    offsets = [(0, 1), (1, 0)]
    if diagonal:
        offsets += [(1, 1), (1, -1)]
    for r in range(rows):
        for c in range(cols):
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if 0 <= rr < rows and 0 <= cc < cols:
                    pairs.append((nid(r, c), nid(rr, cc)))
    positions = {nid(r, c): (float(c), float(r)) for r in range(rows) for c in range(cols)}
    return Topology(num, pairs, positions, name="grid", metadata={"rows": rows, "cols": cols})


def line(num_nodes: int) -> Topology:
    """A path: node ``i`` adjacent to ``i + 1``."""
    pairs = [(i, i + 1) for i in range(num_nodes - 1)]
    positions = {i: (float(i), 0.0) for i in range(num_nodes)}
    return Topology(num_nodes, pairs, positions, name="line")


def ring(num_nodes: int) -> Topology:
    """A cycle. Requires at least three nodes."""
    if num_nodes < 3:
        raise ConfigurationError(f"ring requires >= 3 nodes, got {num_nodes}")
    pairs = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    positions = {
        i: (
            math.cos(2 * math.pi * i / num_nodes),
            math.sin(2 * math.pi * i / num_nodes),
        )
        for i in range(num_nodes)
    }
    return Topology(num_nodes, pairs, positions, name="ring")


def star(num_leaves: int) -> Topology:
    """A hub (node 0) with ``num_leaves`` leaves — controlled-``Δ`` workloads."""
    if num_leaves < 1:
        raise ConfigurationError(f"star requires >= 1 leaf, got {num_leaves}")
    pairs = [(0, i) for i in range(1, num_leaves + 1)]
    positions = {0: (0.0, 0.0)}
    for i in range(1, num_leaves + 1):
        angle = 2 * math.pi * (i - 1) / num_leaves
        positions[i] = (math.cos(angle), math.sin(angle))
    return Topology(num_leaves + 1, pairs, positions, name="star")


def clique(num_nodes: int) -> Topology:
    """A complete graph — the single-hop (fully connected) setting."""
    pairs = list(itertools.combinations(range(num_nodes), 2))
    return Topology(num_nodes, pairs, None, name="clique")


def erdos_renyi(
    num_nodes: int,
    edge_probability: float,
    rng: np.random.Generator,
    require_connected: bool = False,
    max_attempts: int = 50,
) -> Topology:
    """G(n, p) random graph adjacency."""
    if not 0.0 <= edge_probability <= 1.0:
        raise ConfigurationError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    for _ in range(max_attempts):
        pairs = [
            (u, v)
            for u, v in itertools.combinations(range(num_nodes), 2)
            if rng.random() < edge_probability
        ]
        topo = Topology(
            num_nodes, pairs, None, name="erdos_renyi", metadata={"p": edge_probability}
        )
        if not require_connected or num_nodes == 1 or topo.is_connected:
            return topo
    raise ConfigurationError(
        f"could not generate a connected G(n,p) in {max_attempts} attempts "
        f"(num_nodes={num_nodes}, p={edge_probability})"
    )


def two_cliques_bridge(clique_size: int) -> Topology:
    """Two cliques joined by a single bridge edge — a multi-hop stressor.

    Nodes ``0 .. clique_size-1`` form one clique, the rest form the other;
    the bridge is ``(clique_size - 1, clique_size)``.
    """
    if clique_size < 2:
        raise ConfigurationError(f"clique_size must be >= 2, got {clique_size}")
    num = 2 * clique_size
    pairs = list(itertools.combinations(range(clique_size), 2))
    pairs += list(itertools.combinations(range(clique_size, num), 2))
    pairs.append((clique_size - 1, clique_size))
    return Topology(num, pairs, None, name="two_cliques_bridge")
