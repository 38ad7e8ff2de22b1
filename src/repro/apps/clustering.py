"""Lowest-id clustering over discovered neighborhoods (cf. [5]).

Input: the per-node neighbor tables produced by discovery —
``{owner: {neighbor: common channels}}``. Nothing else: if the tables
are incomplete, the clustering degrades accordingly (which is exactly
what makes this a useful end-to-end check of discovery output).

Rule (Lin & Gerla's distributed heuristic, evaluated centrally here):
a node is a **clusterhead** iff its id is smaller than every id in its
discovered *bidirectional* neighborhood that is not already claimed by
a smaller head; every other node joins the smallest-id head it can
hear. Ties and orphans (nodes whose tables are empty) become singleton
clusters.

Only bidirectional edges are used — ``u`` and ``v`` must each have
discovered the other — since a cluster link needs traffic both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Mapping, Set

from ..exceptions import ConfigurationError

__all__ = ["ClusterAssignment", "NeighborTables", "lowest_id_clusters"]

NeighborTables = Mapping[int, Mapping[int, FrozenSet[int]]]


@dataclass(frozen=True)
class ClusterAssignment:
    """A clustering of the discovered graph.

    Attributes:
        head_of: Clusterhead per node (heads map to themselves).
        members_of: Nodes per clusterhead (heads include themselves).
    """

    head_of: Dict[int, int]
    members_of: Dict[int, FrozenSet[int]]

    @property
    def num_clusters(self) -> int:
        """Number of clusters (= number of heads)."""
        return len(self.members_of)

    @property
    def heads(self) -> FrozenSet[int]:
        """All clusterheads."""
        return frozenset(self.members_of)

    def cluster_of(self, node_id: int) -> FrozenSet[int]:
        """All members of ``node_id``'s cluster."""
        return self.members_of[self.head_of[node_id]]


def _bidirectional_edges(tables: NeighborTables) -> Dict[int, Set[int]]:
    adj: Dict[int, Set[int]] = {nid: set() for nid in tables}
    for u, neighbors in tables.items():
        for v in neighbors:
            if v in tables and u in tables[v]:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def lowest_id_clusters(tables: NeighborTables) -> ClusterAssignment:
    """Cluster the discovered graph by the lowest-id rule.

    Deterministic: iterate node ids ascending; an unassigned node whose
    discovered bidirectional neighbors of smaller id are all assigned to
    *other* heads (i.e. none of them is an available head for it)
    becomes a head; otherwise it joins the smallest-id head among its
    neighbors.
    """
    if not tables:
        raise ConfigurationError("no neighbor tables supplied")
    adj = _bidirectional_edges(tables)

    head_of: Dict[int, int] = {}
    for nid in sorted(adj):
        neighbor_heads = sorted(
            head_of[v]
            for v in adj[nid]
            if v in head_of and head_of[v] == v  # v is itself a head
        )
        if neighbor_heads and neighbor_heads[0] < nid:
            head_of[nid] = neighbor_heads[0]
        else:
            head_of[nid] = nid  # become a head

    members: Dict[int, Set[int]] = {}
    for nid, head in head_of.items():
        members.setdefault(head, set()).add(nid)
    return ClusterAssignment(
        head_of=head_of,
        members_of={h: frozenset(ms) for h, ms in members.items()},
    )
