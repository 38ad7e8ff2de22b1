"""Diverse propagation characteristics (paper §V extension (c)).

The base model assumes all channels propagate identically, so a link
operates on every shared channel. In reality lower frequencies travel
further: a pair of nodes may be connected on channel 3 but not on
channel 9. This module generates *per-channel* radio adjacencies from
node positions using a frequency-dependent range model, producing the
``channel_adjacency`` input of
:class:`~repro.net.network.M2HeWNetwork`.

Range model: channel ``c`` (0-based index into the universal set,
ordered low to high frequency) has communication radius

    ``radius(c) = base_radius * (1 - range_decay * c / (num_channels - 1))``

so channel 0 reaches ``base_radius`` and the highest channel reaches
``base_radius * (1 - range_decay)``. ``range_decay = 0`` recovers the
uniform model exactly.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from ..exceptions import ConfigurationError
from .network import M2HeWNetwork
from .node import NodeSpec
from .topology import Topology

__all__ = [
    "Positions",
    "channel_radius",
    "channel_dependent_adjacency",
    "build_channel_dependent_network",
]

Positions = Mapping[int, Tuple[float, float]]


def channel_radius(
    channel: int,
    num_channels: int,
    base_radius: float,
    range_decay: float,
) -> float:
    """Communication radius of ``channel`` under the linear decay model."""
    if num_channels < 1:
        raise ConfigurationError(f"num_channels must be >= 1, got {num_channels}")
    if not 0 <= channel < num_channels:
        raise ConfigurationError(
            f"channel {channel} outside universal set of size {num_channels}"
        )
    if base_radius <= 0:
        raise ConfigurationError(f"base_radius must be positive, got {base_radius}")
    if not 0.0 <= range_decay < 1.0:
        raise ConfigurationError(
            f"range_decay must be in [0, 1), got {range_decay}"
        )
    if num_channels == 1:
        return base_radius
    return base_radius * (1.0 - range_decay * channel / (num_channels - 1))


def channel_dependent_adjacency(
    positions: Positions,
    num_channels: int,
    base_radius: float,
    range_decay: float,
) -> Dict[int, List[Tuple[int, int]]]:
    """Per-channel unit-disk adjacency with frequency-dependent radii."""
    ids = sorted(positions)
    adjacency: Dict[int, List[Tuple[int, int]]] = {}
    for c in range(num_channels):
        radius = channel_radius(c, num_channels, base_radius, range_decay)
        pairs: List[Tuple[int, int]] = []
        for i, u in enumerate(ids):
            ux, uy = positions[u]
            for v in ids[i + 1 :]:
                vx, vy = positions[v]
                if ((ux - vx) ** 2 + (uy - vy) ** 2) ** 0.5 <= radius:
                    pairs.append((u, v))
        adjacency[c] = pairs
    return adjacency


def build_channel_dependent_network(
    topo: Topology,
    assignment: Mapping[int, Iterable[int]],
    base_radius: float,
    range_decay: float,
) -> M2HeWNetwork:
    """Network with diverse propagation from a geometric topology.

    Args:
        topo: A topology carrying node positions (its own pair list is
            ignored — connectivity is recomputed per channel).
        assignment: Available channel set per node. Channel ids must lie
            in ``range(num_channels)`` where ``num_channels`` is one more
            than the largest assigned channel.
        base_radius: Radius of channel 0 (the lowest frequency).
        range_decay: Fractional radius loss from the lowest to the
            highest channel.
    """
    if topo.positions is None:
        raise ConfigurationError(
            "build_channel_dependent_network requires node positions"
        )
    num_channels = 1 + max(
        (c for channels in assignment.values() for c in channels), default=0
    )
    adjacency = channel_dependent_adjacency(
        topo.positions, num_channels, base_radius, range_decay
    )
    nodes = []
    for nid in range(topo.num_nodes):
        if nid not in assignment:
            raise ConfigurationError(f"channel assignment missing node {nid}")
        nodes.append(
            NodeSpec(
                node_id=nid,
                channels=frozenset(assignment[nid]),
                position=topo.positions.get(nid),
            )
        )
    return M2HeWNetwork(nodes, channel_adjacency=adjacency)
