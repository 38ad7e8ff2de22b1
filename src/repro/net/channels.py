"""Channel-availability models.

The defining feature of an M2HeW network is *heterogeneity*: different
nodes perceive different subsets of the spectrum as available (paper
§I–II). These functions produce per-node available channel sets under
several models, from fully homogeneous (every node sees every channel,
``ρ = 1``) to adversarially heterogeneous (minimum span-ratio, the
worst case for the paper's bounds).

All functions return ``{node_id: frozenset(channels)}`` suitable for
:func:`repro.net.build_network`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional

import numpy as np

from ..exceptions import ConfigurationError
from .topology import Topology

__all__ = [
    "Assignment",
    "homogeneous",
    "uniform_random_subsets",
    "common_channel_plus_random",
    "adversarial_min_overlap",
    "repair_pair_overlap",
    "single_common_channel",
]

Assignment = Dict[int, FrozenSet[int]]


def homogeneous(num_nodes: int, num_channels: int) -> Assignment:
    """Every node sees channels ``0 .. num_channels - 1`` (``ρ = 1``).

    This is the homogeneous special case "made frequently in the
    literature" (§II) that minimizes the paper's running-time bounds.
    """
    if num_channels <= 0:
        raise ConfigurationError(f"num_channels must be positive, got {num_channels}")
    channels = frozenset(range(num_channels))
    return {nid: channels for nid in range(num_nodes)}


def uniform_random_subsets(
    num_nodes: int,
    universal_size: int,
    set_size: int,
    rng: np.random.Generator,
    set_size_max: Optional[int] = None,
) -> Assignment:
    """Each node draws a uniform random subset of the universal set.

    Args:
        num_nodes: Number of nodes.
        universal_size: ``|U|`` — size of the universal channel set.
        set_size: Available-set size per node, or the minimum size when
            ``set_size_max`` is given.
        rng: Source of randomness.
        set_size_max: If given, per-node sizes are drawn uniformly from
            ``[set_size, set_size_max]`` — hardware heterogeneity.

    Note: random subsets of neighbors may be disjoint; combine with
    :func:`repair_pair_overlap` (or use
    :func:`common_channel_plus_random`) when every radio-adjacent pair
    must share a channel.
    """
    _check_sizes(universal_size, set_size, set_size_max)
    high = set_size_max if set_size_max is not None else set_size
    assignment: Assignment = {}
    for nid in range(num_nodes):
        size = int(rng.integers(set_size, high + 1))
        chosen = rng.choice(universal_size, size=size, replace=False)
        assignment[nid] = frozenset(int(c) for c in chosen)
    return assignment


def common_channel_plus_random(
    num_nodes: int,
    universal_size: int,
    set_size: int,
    rng: np.random.Generator,
    common_channel: int = 0,
) -> Assignment:
    """Random subsets that all include one designated common channel.

    Guarantees every pair of nodes shares at least ``common_channel``, so
    every radio-adjacent pair is a neighbor pair.
    """
    _check_sizes(universal_size, set_size, None)
    if not 0 <= common_channel < universal_size:
        raise ConfigurationError(
            f"common_channel {common_channel} outside universal set of size {universal_size}"
        )
    others = [c for c in range(universal_size) if c != common_channel]
    assignment: Assignment = {}
    for nid in range(num_nodes):
        extra = rng.choice(len(others), size=set_size - 1, replace=False)
        channels = {common_channel} | {others[int(i)] for i in extra}
        assignment[nid] = frozenset(channels)
    return assignment


def single_common_channel(
    num_nodes: int,
    universal_size: int,
    set_size: int,
    rng: np.random.Generator,
) -> Assignment:
    """Adversarial case from §I: sets overlap in exactly one channel.

    Node sets are built from disjoint private blocks plus the shared
    channel 0, so ``|span| = 1`` for every link while ``|A(u)| =
    set_size``. This is the scenario where the universal-sweep baseline
    pays ``Θ(|U|)`` although one common channel exists. Requires
    ``universal_size >= num_nodes * (set_size - 1) + 1``.
    """
    _check_sizes(universal_size, set_size, None)
    needed = num_nodes * (set_size - 1) + 1
    if universal_size < needed:
        raise ConfigurationError(
            f"universal_size {universal_size} too small; single_common_channel "
            f"with {num_nodes} nodes of size {set_size} needs >= {needed}"
        )
    # Shuffle the non-shared channels so private blocks are not contiguous.
    private = list(rng.permutation(np.arange(1, universal_size)))
    assignment: Assignment = {}
    for nid in range(num_nodes):
        block = private[nid * (set_size - 1) : (nid + 1) * (set_size - 1)]
        assignment[nid] = frozenset({0} | {int(c) for c in block})
    return assignment


def adversarial_min_overlap(
    topology: Topology,
    set_size: int,
    overlap: int,
    rng: np.random.Generator,
) -> Assignment:
    """Per-edge assignment targeting span size ``overlap`` on every link.

    Each node receives ``overlap`` channels from a small shared pool and
    ``set_size - overlap`` channels private to itself, so every
    radio-adjacent pair shares exactly the pool channels it has in
    common. With a pool of exactly ``overlap`` channels the span of every
    link is exactly ``overlap`` and the span-ratio is
    ``overlap / set_size`` — a direct knob for ``ρ``.
    """
    if overlap <= 0:
        raise ConfigurationError(f"overlap must be positive, got {overlap}")
    if overlap > set_size:
        raise ConfigurationError(
            f"overlap {overlap} cannot exceed set_size {set_size}"
        )
    pool = frozenset(range(overlap))
    next_channel = overlap
    assignment: Assignment = {}
    for nid in range(topology.num_nodes):
        private = frozenset(range(next_channel, next_channel + set_size - overlap))
        next_channel += set_size - overlap
        assignment[nid] = pool | private
    return assignment


def repair_pair_overlap(
    topology: Topology,
    assignment: Assignment,
    rng: np.random.Generator,
) -> Assignment:
    """Ensure every radio-adjacent pair shares at least one channel.

    For each adjacent pair with disjoint sets, copy one uniformly chosen
    channel from one endpoint to the other (keeping set sizes as close to
    the original as possible by replacing, never growing past +1).

    Returns a new assignment; the input is not modified.
    """
    fixed = {nid: set(chs) for nid, chs in assignment.items()}
    for u, v in topology.pairs:
        if fixed[u] & fixed[v]:
            continue
        donor, taker = (u, v) if rng.random() < 0.5 else (v, u)
        channel = int(rng.choice(sorted(fixed[donor])))
        fixed[taker].add(channel)
    return {nid: frozenset(chs) for nid, chs in fixed.items()}


def _check_sizes(
    universal_size: int, set_size: int, set_size_max: Optional[int]
) -> None:
    if universal_size <= 0:
        raise ConfigurationError(f"universal_size must be positive, got {universal_size}")
    if set_size <= 0:
        raise ConfigurationError(f"set_size must be positive, got {set_size}")
    high = set_size_max if set_size_max is not None else set_size
    if high < set_size:
        raise ConfigurationError(
            f"set_size_max {set_size_max} is below set_size {set_size}"
        )
    if high > universal_size:
        raise ConfigurationError(
            f"set size {high} exceeds universal set size {universal_size}"
        )
