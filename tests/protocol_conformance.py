"""Shared harness for the protocol-conformance suite.

``test_protocol_conformance.py`` parametrizes one set of behavioral
contracts over *every* protocol the registry lists — registering a new
protocol in :data:`repro.core.registry.PROTOCOL_SPECS` enrolls it here
with no further wiring. This module holds the pieces the tests share:
a standard conformance network, registry-driven factory/parameter
construction, and a tiny hand-rolled two-node exchange used to observe
a protocol's slot decisions and table updates directly (without an
engine in between).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.base import Mode, SlotDecision, SynchronousProtocol
from repro.core.registry import PROTOCOL_SPECS, ProtocolSpec, make_sync_factory
from repro.net import M2HeWNetwork, NodeSpec
from repro.sim.rng import RngFactory

#: Every synchronous registry entry — the conformance parametrization.
SYNC_SPECS: Tuple[ProtocolSpec, ...] = tuple(
    spec for spec in PROTOCOL_SPECS if spec.kind == "sync"
)

SYNC_NAMES: Tuple[str, ...] = tuple(spec.name for spec in SYNC_SPECS)

#: Degree bound handed to protocols that need one (>= the conformance
#: network's true max degree).
DELTA_EST = 4

#: Generous slot budget: enough for the slowest registered protocol
#: (mcdis rendezvous on heterogeneous sets) on the conformance network.
MAX_SLOTS = 20_000


def conformance_network() -> M2HeWNetwork:
    """4-node clique with heterogeneous channel sets and a shared
    channel 0 — every pair overlaps, so every protocol can finish."""
    nodes = [
        NodeSpec(0, frozenset({0, 1})),
        NodeSpec(1, frozenset({0, 1, 2})),
        NodeSpec(2, frozenset({0, 2})),
        NodeSpec(3, frozenset({0, 1, 2, 3})),
    ]
    adjacency = [(a, b) for a in range(4) for b in range(a + 1, 4)]
    return M2HeWNetwork(nodes, adjacency=adjacency)


def universal_channels(network: M2HeWNetwork) -> List[int]:
    return sorted(network.universal_channel_set)


def id_space_size(network: M2HeWNetwork) -> int:
    return max(network.node_ids) + 1


def build_protocol(
    spec: ProtocolSpec,
    network: M2HeWNetwork,
    node_id: int,
    rng,
) -> SynchronousProtocol:
    """One protocol instance for ``node_id``, parameters off the spec."""
    factory = make_sync_factory(
        spec.name,
        delta_est=DELTA_EST,
        universal_channels=universal_channels(network),
        id_space_size=id_space_size(network),
    )
    return factory(node_id, network.channels_of(node_id), rng)


def node_stream(seed: int, node_id: int, *, warm_streams: int = 0):
    """The per-node stream a protocol would be handed, from a fresh
    factory; ``warm_streams`` unrelated streams are drawn first (stream
    isolation means they must not matter)."""
    factory = RngFactory(seed)
    for k in range(warm_streams):
        factory.stream(f"conformance-warmup:{k}").random(17)
    return factory.node_stream(node_id)


def decision_trace(
    protocol: SynchronousProtocol, slots: int
) -> List[Tuple[str, Optional[int]]]:
    """The protocol's decision sequence with no receptions, as data."""
    trace = []
    for slot in range(slots):
        decision = protocol.decide_slot(slot)
        trace.append((decision.mode.value, decision.channel))
    return trace


def run_pair_exchange(
    spec: ProtocolSpec,
    network: M2HeWNetwork,
    seed: int,
    slots: int,
    node_a: int = 0,
    node_b: int = 1,
) -> Tuple[SynchronousProtocol, SynchronousProtocol, List[int]]:
    """Drive two nodes slot-by-slot with ideal channels, by hand.

    Returns both protocol instances plus the per-slot neighbor-count
    history of ``node_a`` (for monotonicity checks). Delivery follows
    the engine's rule: a hello lands iff exactly one of the pair
    transmits on the channel the other is listening on.
    """
    factory = RngFactory(seed)
    proto_a = build_protocol(spec, network, node_a, factory.node_stream(node_a))
    proto_b = build_protocol(spec, network, node_b, factory.node_stream(node_b))
    history = []
    for slot in range(slots):
        da = proto_a.decide_slot(slot)
        db = proto_b.decide_slot(slot)
        _deliver(proto_a, da, proto_b, db, slot)
        _deliver(proto_b, db, proto_a, da, slot)
        history.append(len(proto_a.neighbor_table))
    return proto_a, proto_b, history


def _deliver(
    listener: SynchronousProtocol,
    listener_decision: SlotDecision,
    speaker: SynchronousProtocol,
    speaker_decision: SlotDecision,
    slot: int,
) -> None:
    if (
        listener_decision.mode is Mode.LISTEN
        and speaker_decision.mode is Mode.TRANSMIT
        and listener_decision.channel == speaker_decision.channel
    ):
        listener.on_receive(
            speaker.hello(), float(slot), channel=speaker_decision.channel
        )


def assert_valid_decision(
    protocol: SynchronousProtocol, decision: SlotDecision
) -> None:
    """Model invariants every decision must satisfy (§II)."""
    assert decision.mode in (Mode.TRANSMIT, Mode.LISTEN, Mode.QUIET)
    if decision.mode is Mode.QUIET:
        assert decision.channel is None
    else:
        assert decision.channel in protocol.channels
