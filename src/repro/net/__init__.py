"""Network substrate: the M2HeW model, topologies and channel models.

The typical construction pipeline is::

    topo = topology.random_geometric(num_nodes=30, radius=0.3, rng=rng)
    assignment = channels.common_channel_plus_random(30, 10, 4, rng)
    network = build_network(topo, assignment)

after which ``network`` exposes the paper's parameters (``N``, ``S``,
``Δ``, ``ρ``) and the directed-link structure that the simulators and
analysis code consume.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from ..exceptions import NetworkModelError
from . import channels, primary_users, propagation, topology
from .links import DirectedLink
from .network import M2HeWNetwork
from .node import NodeSpec
from .primary_users import PrimaryUser, PrimaryUserField
from .serialization import (
    load_network,
    network_from_dict,
    network_to_dict,
    save_network,
)
from .topology import DirectedTopology, Topology

__all__ = [
    "DirectedLink",
    "DirectedTopology",
    "build_asymmetric_network",
    "M2HeWNetwork",
    "NodeSpec",
    "PrimaryUser",
    "PrimaryUserField",
    "Topology",
    "build_network",
    "channels",
    "load_network",
    "network_from_dict",
    "network_to_dict",
    "primary_users",
    "propagation",
    "save_network",
    "topology",
]


def build_network(
    topo: Topology,
    assignment: Mapping[int, Iterable[int]],
) -> M2HeWNetwork:
    """Combine a radio topology with a channel assignment.

    Args:
        topo: Radio adjacency (who can hear whom, channels aside).
        assignment: Available channel set per node id; must cover every
            node of ``topo``.

    Returns:
        The corresponding :class:`M2HeWNetwork`.

    Raises:
        NetworkModelError: If the assignment misses a node of ``topo``.
    """
    nodes = _nodes_from_assignment(topo.num_nodes, topo.positions, assignment)
    return M2HeWNetwork(nodes, adjacency=topo.pairs)


def build_asymmetric_network(
    topo: DirectedTopology,
    assignment: Mapping[int, Iterable[int]],
) -> M2HeWNetwork:
    """Combine a directed radio topology with a channel assignment.

    The §V(a) extension: the pair ``(u, v)`` of ``topo`` means "v hears
    u", so links exist only along audible directions with shared
    channels, and a node may have to discover a neighbor it cannot
    reach back.
    """
    nodes = _nodes_from_assignment(topo.num_nodes, topo.positions, assignment)
    return M2HeWNetwork(nodes, directed_adjacency=topo.pairs)


def _nodes_from_assignment(num_nodes, positions, assignment):
    nodes = []
    positions = positions or {}
    for nid in range(num_nodes):
        if nid not in assignment:
            raise NetworkModelError(f"channel assignment missing node {nid}")
        nodes.append(
            NodeSpec(
                node_id=nid,
                channels=frozenset(assignment[nid]),
                position=positions.get(nid),
            )
        )
    return nodes
