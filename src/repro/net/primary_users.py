"""Primary-user (PU) spectrum model.

The paper motivates channel heterogeneity with cognitive radio: licensed
*primary users* occupy parts of the spectrum in parts of space, and a
secondary (CR) node perceives a channel as available only if no nearby
primary user occupies it (§I–II, [11]).

This module realizes that story concretely: primary users are placed in
the plane, each occupying one channel within an interference radius; a
node's available channel set is the universal set minus the channels of
all PUs within radius of it. Spatial variation in PU placement then
produces exactly the heterogeneous availability the paper studies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from .topology import Topology

__all__ = ["PrimaryUser", "PrimaryUserField", "availability_from_primary_users"]


@dataclass(frozen=True)
class PrimaryUser:
    """A licensed transmitter occupying one channel around a location.

    Attributes:
        position: ``(x, y)`` location of the primary user.
        channel: The licensed channel it occupies.
        radius: Interference radius: secondary nodes within this distance
            must treat ``channel`` as unavailable.
    """

    position: Tuple[float, float]
    channel: int
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ConfigurationError(f"PU radius must be positive, got {self.radius}")
        if self.channel < 0:
            raise ConfigurationError(f"PU channel must be non-negative, got {self.channel}")

    def blocks(self, position: Tuple[float, float]) -> bool:
        """Whether a node at ``position`` is inside this PU's footprint."""
        dx = self.position[0] - position[0]
        dy = self.position[1] - position[1]
        return (dx * dx + dy * dy) ** 0.5 <= self.radius


@dataclass
class PrimaryUserField:
    """A collection of primary users over a universal channel set."""

    universal_size: int
    users: List[PrimaryUser]

    def __post_init__(self) -> None:
        if self.universal_size <= 0:
            raise ConfigurationError(
                f"universal_size must be positive, got {self.universal_size}"
            )
        for pu in self.users:
            if pu.channel >= self.universal_size:
                raise ConfigurationError(
                    f"PU channel {pu.channel} outside universal set of size "
                    f"{self.universal_size}"
                )

    @classmethod
    def random(
        cls,
        universal_size: int,
        num_users: int,
        radius: float,
        rng: np.random.Generator,
        area: float = 1.0,
    ) -> "PrimaryUserField":
        """Place ``num_users`` PUs uniformly in an ``area x area`` square.

        Each PU occupies a uniformly random channel from the universal set.
        """
        if num_users < 0:
            raise ConfigurationError(f"num_users must be non-negative, got {num_users}")
        users = [
            PrimaryUser(
                position=(float(rng.uniform(0, area)), float(rng.uniform(0, area))),
                channel=int(rng.integers(0, universal_size)),
                radius=radius,
            )
            for _ in range(num_users)
        ]
        return cls(universal_size=universal_size, users=users)

    def available_channels(self, position: Tuple[float, float]) -> FrozenSet[int]:
        """Channels a secondary node at ``position`` may use."""
        blocked = {pu.channel for pu in self.users if pu.blocks(position)}
        return frozenset(c for c in range(self.universal_size) if c not in blocked)


def availability_from_primary_users(
    topology: Topology,
    field: PrimaryUserField,
    min_channels: int = 1,
) -> Dict[int, FrozenSet[int]]:
    """Per-node availability induced by a PU field on a geometric topology.

    Args:
        topology: Must carry node positions.
        field: The primary-user field.
        min_channels: Raise if any node ends up with fewer channels than
            this — the M2HeW model needs ``|A(u)| >= 1``, and experiments
            may want a higher floor.

    Raises:
        ConfigurationError: If the topology has no positions or a node
            falls below ``min_channels`` available channels (the caller
            should thin the PU field or grow the universal set).
    """
    if topology.positions is None:
        raise ConfigurationError(
            "availability_from_primary_users requires a geometric topology "
            "with node positions"
        )
    assignment: Dict[int, FrozenSet[int]] = {}
    for nid in range(topology.num_nodes):
        channels = field.available_channels(topology.positions[nid])
        if len(channels) < min_channels:
            raise ConfigurationError(
                f"node {nid} has only {len(channels)} available channels "
                f"(< {min_channels}); primary-user field is too dense"
            )
        assignment[nid] = channels
    return assignment
