"""Collision-free link scheduling over discovered links (cf. [7]).

Input: discovery output only — per-node tables ``{neighbor: common
channels}``. Output: a TDMA schedule assigning every *bidirectional
discovered link* a (slot, channel) such that simultaneous transmissions
never collide under the M2HeW collision rules:

* a node is in at most one scheduled link per slot (half-duplex);
* two links sharing a slot and channel must not interfere: neither
  transmitter may be a discovered neighbor (on that channel) of the
  other link's receiver.

The schedule is built by greedy coloring of the conflict graph on
link-channel candidates (distance-2 edge coloring in spirit, extended
with channel reuse: node-disjoint links on different channels never
conflict — the multi-channel dividend the paper's setting offers —
while links sharing a radio always do, whatever their channels).

Because only discovered edges are used, interference from undiscovered
neighbors *could* exist if discovery were incomplete — the validator in
the tests replays the schedule on the true network to certify it, which
makes this module an end-to-end audit of discovery output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Mapping, Set, Tuple

from ..exceptions import ConfigurationError

__all__ = ["LinkKey", "LinkSchedule", "NeighborTables", "schedule_links"]

NeighborTables = Mapping[int, Mapping[int, FrozenSet[int]]]
LinkKey = Tuple[int, int]


@dataclass(frozen=True)
class LinkSchedule:
    """A periodic TDMA schedule for the discovered links.

    Attributes:
        assignment: ``(transmitter, receiver) -> (slot, channel)``.
        num_slots: Schedule period.
    """

    assignment: Dict[LinkKey, Tuple[int, int]]
    num_slots: int

    def links_in_slot(self, slot: int) -> List[Tuple[LinkKey, int]]:
        """Links (with channel) active in ``slot``."""
        return sorted(
            (link, channel)
            for link, (s, channel) in self.assignment.items()
            if s == slot
        )

    @property
    def throughput(self) -> float:
        """Scheduled links per slot (higher = better spatial/channel reuse)."""
        if self.num_slots == 0:
            return 0.0
        return len(self.assignment) / self.num_slots


def _neighbor_on(
    tables: NeighborTables, node: int, channel: int
) -> Set[int]:
    """Discovered neighbors of ``node`` sharing ``channel``."""
    return {
        v
        for v, chans in tables.get(node, {}).items()
        if channel in chans
    }


def schedule_links(tables: NeighborTables) -> LinkSchedule:
    """Greedy collision-free schedule for all bidirectional links.

    Each link is assigned its lexicographically smallest common channel
    first; conflicts are resolved by slot coloring. Node-disjoint links
    on different channels are never in conflict.
    """
    if not tables:
        raise ConfigurationError("no neighbor tables supplied")

    # Bidirectional discovered links with their channel (smallest common).
    links: Dict[LinkKey, int] = {}
    for u, neighbors in tables.items():
        for v, chans in neighbors.items():
            if v in tables and u in tables[v]:
                common = chans & tables[v][u]
                if common:
                    links[(u, v)] = min(common)
    if not links:
        raise ConfigurationError(
            "no bidirectional discovered links to schedule"
        )

    def conflicts(a: LinkKey, b: LinkKey) -> bool:
        (ta, ra), (tb, rb) = a, b
        if {ta, ra} & {tb, rb}:
            # Shared endpoint: one radio cannot serve two links in the
            # same slot, whatever the channels (half-duplex, one channel
            # at a time).
            return True
        if links[a] != links[b]:
            return False  # disjoint links on different channels coexist
        channel = links[a]
        # Cross interference: a's transmitter audible at b's receiver
        # (on the shared channel), or vice versa.
        if ta in _neighbor_on(tables, rb, channel):
            return True
        if tb in _neighbor_on(tables, ra, channel):
            return True
        return False

    # Greedy coloring, most-conflicted links first.
    keys = sorted(links)
    degree = {
        k: sum(1 for other in keys if other != k and conflicts(k, other))
        for k in keys
    }
    order = sorted(keys, key=lambda k: (-degree[k], k))
    slot_of: Dict[LinkKey, int] = {}
    for k in order:
        used = {
            slot_of[other]
            for other in slot_of
            if conflicts(k, other)
        }
        slot = 0
        while slot in used:
            slot += 1
        slot_of[k] = slot

    num_slots = 1 + max(slot_of.values())
    return LinkSchedule(
        assignment={k: (slot_of[k], links[k]) for k in keys},
        num_slots=num_slots,
    )
