"""Unit tests for the reference slotted engine — collision semantics."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.core.base import SlotDecision, SynchronousProtocol
from repro.exceptions import ConfigurationError, SimulationError
from repro.net import M2HeWNetwork, NodeSpec
from repro.sim.rng import RngFactory
from repro.sim.slotted import SlottedSimulator
from repro.sim.stopping import StoppingCondition
from repro.sim.trace import ExecutionTrace


class ScriptedProtocol(SynchronousProtocol):
    """Plays back a fixed list of decisions, then listens on channel 0."""

    scripts: Dict[int, List[SlotDecision]] = {}

    def __init__(self, node_id, channels, rng):
        super().__init__(node_id, channels, rng)
        self._script = list(self.scripts.get(node_id, []))

    def decide_slot(self, local_slot):
        if local_slot < len(self._script):
            return self._script[local_slot]
        return SlotDecision.listen(min(self.channels))


@pytest.fixture
def scripted(monkeypatch):
    """Factory fixture: set per-node scripts, build an engine runner."""

    def run(network, scripts, budget=5, offsets=None, erasure=0.0, trace=None):
        ScriptedProtocol.scripts = scripts
        sim = SlottedSimulator(
            network,
            lambda nid, chs, rng: ScriptedProtocol(nid, chs, rng),
            RngFactory(0),
            start_offsets=offsets,
            erasure_prob=erasure,
            trace=trace,
        )
        return sim, sim.run(StoppingCondition.slots(budget, stop_on_full_coverage=False))

    return run


def pair_network(channels0=frozenset({0, 1}), channels1=frozenset({0, 1})):
    return M2HeWNetwork(
        [NodeSpec(0, frozenset(channels0)), NodeSpec(1, frozenset(channels1))],
        adjacency=[(0, 1)],
    )


def triple_network():
    """Node 0 hears 1 and 2; all share channel 0."""
    return M2HeWNetwork(
        [
            NodeSpec(0, frozenset({0})),
            NodeSpec(1, frozenset({0})),
            NodeSpec(2, frozenset({0})),
        ],
        adjacency=[(0, 1), (0, 2)],
    )


class TestReception:
    def test_clear_transmission_received(self, scripted):
        net = pair_network()
        _, result = scripted(
            net,
            {0: [SlotDecision.listen(0)], 1: [SlotDecision.transmit(0)]},
        )
        assert result.coverage[(1, 0)] == 0.0
        assert result.coverage[(0, 1)] is None
        assert result.neighbor_tables[0] == {1: frozenset({0, 1})}

    def test_wrong_channel_not_received(self, scripted):
        net = pair_network()
        _, result = scripted(
            net,
            {0: [SlotDecision.listen(1)], 1: [SlotDecision.transmit(0)]},
        )
        assert result.coverage[(1, 0)] is None

    def test_collision_at_receiver(self, scripted):
        net = triple_network()
        _, result = scripted(
            net,
            {
                0: [SlotDecision.listen(0)],
                1: [SlotDecision.transmit(0)],
                2: [SlotDecision.transmit(0)],
            },
        )
        assert result.coverage[(1, 0)] is None
        assert result.coverage[(2, 0)] is None

    def test_half_duplex_transmitter_hears_nothing(self, scripted):
        net = pair_network()
        _, result = scripted(
            net,
            {0: [SlotDecision.transmit(0)], 1: [SlotDecision.transmit(0)]},
        )
        assert result.coverage[(0, 1)] is None
        assert result.coverage[(1, 0)] is None

    def test_quiet_node_hears_nothing(self, scripted):
        net = pair_network()
        _, result = scripted(
            net,
            {0: [SlotDecision.quiet()], 1: [SlotDecision.transmit(0)]},
        )
        assert result.coverage[(1, 0)] is None

    def test_out_of_range_transmitter_does_not_interfere(self, scripted):
        # 2 -- 0 -- 1 line: node 1 and node 2 both transmit; node 2 is
        # not audible to ... build: 0 hears 1 only; 2 is isolated from 0.
        net = M2HeWNetwork(
            [
                NodeSpec(0, frozenset({0})),
                NodeSpec(1, frozenset({0})),
                NodeSpec(2, frozenset({0})),
            ],
            adjacency=[(0, 1)],  # 2 is disconnected
        )
        _, result = scripted(
            net,
            {
                0: [SlotDecision.listen(0)],
                1: [SlotDecision.transmit(0)],
                2: [SlotDecision.transmit(0)],
            },
        )
        assert result.coverage[(1, 0)] == 0.0

    def test_transmit_on_unavailable_channel_is_engine_error(self, scripted):
        net = pair_network(channels1={1})
        with pytest.raises(SimulationError, match="unavailable channel"):
            scripted(net, {1: [SlotDecision.transmit(0)]})


class TestStartOffsets:
    def test_node_quiet_before_start(self, scripted):
        net = pair_network()
        # Node 1 transmits its local slot 0, but starts at global slot 2.
        _, result = scripted(
            net,
            {
                0: [SlotDecision.listen(0)] * 5,
                1: [SlotDecision.transmit(0)],
            },
            offsets={1: 2},
        )
        assert result.coverage[(1, 0)] == 2.0

    def test_local_slot_indexing(self, scripted):
        net = pair_network()
        trace = ExecutionTrace()
        scripted(net, {}, offsets={1: 3}, trace=trace)
        slots = trace.slots_of(1)
        assert slots[0].global_slot == 3
        assert slots[0].local_slot == 0

    def test_negative_offset_rejected(self, scripted):
        with pytest.raises(ConfigurationError, match="offset"):
            scripted(pair_network(), {}, offsets={0: -1})


class TestErasure:
    def test_full_reliability_by_default(self, scripted):
        net = pair_network()
        _, result = scripted(
            net, {0: [SlotDecision.listen(0)], 1: [SlotDecision.transmit(0)]}
        )
        assert result.coverage[(1, 0)] is not None

    def test_erasures_drop_deliveries(self, scripted):
        net = pair_network()
        # With erasure ~1, nothing gets through in 5 slots.
        _, result = scripted(
            net,
            {
                0: [SlotDecision.listen(0)] * 5,
                1: [SlotDecision.transmit(0)] * 5,
            },
            erasure=0.999999,
        )
        assert result.coverage[(1, 0)] is None

    def test_invalid_erasure(self, scripted):
        with pytest.raises(ConfigurationError, match="erasure"):
            scripted(pair_network(), {}, erasure=1.0)


class TestRunControl:
    def test_stop_on_full_coverage(self):
        net = pair_network()
        ScriptedProtocol.scripts = {
            0: [SlotDecision.listen(0), SlotDecision.transmit(0)],
            1: [SlotDecision.transmit(0), SlotDecision.listen(0)],
        }
        sim = SlottedSimulator(
            net,
            lambda nid, chs, rng: ScriptedProtocol(nid, chs, rng),
            RngFactory(0),
        )
        result = sim.run(StoppingCondition.slots(100))
        assert result.completed
        assert result.horizon == 2.0  # stopped right after coverage

    def test_budget_respected(self, scripted):
        _, result = scripted(pair_network(), {}, budget=7)
        assert result.horizon == 7.0
        assert not result.completed

    def test_result_metadata(self, scripted):
        _, result = scripted(pair_network(), {})
        assert result.metadata["engine"] == "slotted-reference"
        assert result.time_unit == "slots"
