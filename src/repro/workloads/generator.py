"""Declarative workload configuration.

A :class:`WorkloadConfig` names a topology generator, a
channel-availability model and their parameters; :func:`generate_network`
realizes it into an :class:`~repro.net.network.M2HeWNetwork` from a
seed. Benchmarks and the CLI describe workloads this way so that every
network an experiment ran on can be regenerated from its config + seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict

import numpy as np

from ..exceptions import ConfigurationError
from ..net import (
    build_asymmetric_network,
    build_network,
    channels,
    primary_users,
    topology,
)
from ..net.network import M2HeWNetwork
from ..net.propagation import build_channel_dependent_network
from ..sim.rng import RngFactory, SeedLike

__all__ = [
    "CHANNEL_MODELS",
    "MODES",
    "TOPOLOGIES",
    "WorkloadConfig",
    "generate_network",
]

TOPOLOGIES = (
    "random_geometric",
    "grid",
    "line",
    "ring",
    "star",
    "clique",
    "erdos_renyi",
    "two_cliques_bridge",
    "asymmetric_random_geometric",
)

MODES = ("symmetric", "asymmetric", "channel_dependent")

CHANNEL_MODELS = (
    "homogeneous",
    "uniform_random_subsets",
    "common_channel_plus_random",
    "single_common_channel",
    "adversarial_min_overlap",
    "primary_users",
)


@dataclass(frozen=True)
class WorkloadConfig:
    """A reproducible network recipe.

    Attributes:
        topology: Name from :data:`TOPOLOGIES`.
        topology_params: Keyword arguments for the topology generator
            (``rng`` is injected automatically where accepted).
        channel_model: Name from :data:`CHANNEL_MODELS`.
        channel_params: Keyword arguments for the channel model.
        repair_overlap: Post-process with
            :func:`repro.net.channels.repair_pair_overlap` so every
            radio-adjacent pair shares a channel.
        mode: Network kind — ``symmetric`` (the paper's base model),
            ``asymmetric`` (§V(a); requires the
            ``asymmetric_random_geometric`` topology) or
            ``channel_dependent`` (§V(c); requires a positional topology
            and ``propagation_params``).
        propagation_params: ``{"base_radius": …, "range_decay": …}`` for
            the channel-dependent mode.
    """

    topology: str
    topology_params: Dict[str, Any] = field(default_factory=dict)
    channel_model: str = "homogeneous"
    channel_params: Dict[str, Any] = field(default_factory=dict)
    repair_overlap: bool = False
    mode: str = "symmetric"
    propagation_params: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ConfigurationError(
                f"unknown topology {self.topology!r}; choose from {TOPOLOGIES}"
            )
        if self.channel_model not in CHANNEL_MODELS:
            raise ConfigurationError(
                f"unknown channel model {self.channel_model!r}; "
                f"choose from {CHANNEL_MODELS}"
            )
        if self.mode not in MODES:
            raise ConfigurationError(
                f"unknown mode {self.mode!r}; choose from {MODES}"
            )
        if (self.mode == "asymmetric") != (
            self.topology == "asymmetric_random_geometric"
        ):
            raise ConfigurationError(
                "asymmetric mode and the asymmetric_random_geometric "
                "topology must be used together"
            )
        if self.mode == "channel_dependent" and not self.propagation_params:
            raise ConfigurationError(
                "channel_dependent mode requires propagation_params"
            )
        if self.mode != "channel_dependent" and self.propagation_params:
            raise ConfigurationError(
                "propagation_params only apply to channel_dependent mode"
            )

    def describe(self) -> Dict[str, Any]:
        """JSON-compatible description (for result metadata)."""
        return asdict(self)


def _build_topology(config: WorkloadConfig, rng: np.random.Generator):
    params = dict(config.topology_params)
    builder = getattr(topology, config.topology)
    if config.topology in (
        "random_geometric",
        "erdos_renyi",
        "asymmetric_random_geometric",
    ):
        params["rng"] = rng
    return builder(**params)


def _build_assignment(
    config: WorkloadConfig,
    topo: topology.Topology,
    rng: np.random.Generator,
) -> Dict[int, frozenset]:
    params = dict(config.channel_params)
    name = config.channel_model
    if name == "homogeneous":
        return channels.homogeneous(topo.num_nodes, **params)
    if name == "uniform_random_subsets":
        return channels.uniform_random_subsets(topo.num_nodes, rng=rng, **params)
    if name == "common_channel_plus_random":
        return channels.common_channel_plus_random(topo.num_nodes, rng=rng, **params)
    if name == "single_common_channel":
        return channels.single_common_channel(topo.num_nodes, rng=rng, **params)
    if name == "adversarial_min_overlap":
        return channels.adversarial_min_overlap(topo, rng=rng, **params)
    if name == "primary_users":
        field_params = dict(params)
        min_channels = field_params.pop("min_channels", 1)
        pu_field = primary_users.PrimaryUserField.random(rng=rng, **field_params)
        return primary_users.availability_from_primary_users(
            topo, pu_field, min_channels=min_channels
        )
    raise ConfigurationError(f"unknown channel model {name!r}")


def generate_network(config: WorkloadConfig, seed: SeedLike) -> M2HeWNetwork:
    """Realize ``config`` into a network, deterministically from ``seed``.

    The topology and channel models draw from independent streams, so
    e.g. changing the channel model leaves node placement untouched.
    """
    factory = RngFactory(seed)
    topo = _build_topology(config, factory.stream("topology"))
    assignment = _build_assignment(config, topo, factory.stream("channels"))
    if config.repair_overlap:
        if config.mode == "asymmetric":
            raise ConfigurationError(
                "repair_overlap is only defined for symmetric topologies"
            )
        assignment = channels.repair_pair_overlap(
            topo, assignment, factory.stream("repair")
        )
    if config.mode == "asymmetric":
        return build_asymmetric_network(topo, assignment)
    if config.mode == "channel_dependent":
        return build_channel_dependent_network(
            topo, assignment, **config.propagation_params
        )
    return build_network(topo, assignment)
