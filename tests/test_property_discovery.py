"""Property-based end-to-end soundness of discovery.

On arbitrary small networks, whatever the algorithm and seed:

* no node ever "discovers" a non-neighbor (soundness);
* recorded common-channel sets are exactly the link spans;
* with a generous budget, discovery is also complete.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.net import M2HeWNetwork, NodeSpec
from repro.sim.runner import run_asynchronous, run_synchronous


@st.composite
def connected_networks(draw):
    """Small networks where every adjacent pair shares >= 1 channel."""
    n = draw(st.integers(min_value=2, max_value=6))
    universe = draw(st.integers(min_value=1, max_value=4))
    nodes = []
    for nid in range(n):
        extra = draw(
            st.sets(st.integers(0, universe - 1), min_size=0, max_size=universe)
        )
        # Channel 0 common to all: guarantees overlap on every edge.
        nodes.append(NodeSpec(nid, frozenset({0} | extra)))
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.sets(st.sampled_from(all_pairs), min_size=1))
    return M2HeWNetwork(nodes, adjacency=sorted(chosen))


def check_soundness(network, result):
    for nid in network.node_ids:
        truth = network.discoverable_neighbors(nid)
        table = result.neighbor_tables[nid]
        assert set(table) <= truth
        for v, common in table.items():
            assert common == network.span(v, nid)


class TestSyncSoundnessAndCompleteness:
    @given(connected_networks(), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_algorithm3_exact(self, network, seed):
        result = run_synchronous(
            network, "algorithm3", seed=seed, max_slots=60_000, delta_est=8
        )
        check_soundness(network, result)
        assert result.completed

    @given(connected_networks(), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_algorithm1_exact(self, network, seed):
        result = run_synchronous(
            network, "algorithm1", seed=seed, max_slots=60_000, delta_est=8
        )
        check_soundness(network, result)
        assert result.completed

    @given(connected_networks(), st.integers(0, 1000))
    @settings(max_examples=20, deadline=None)
    def test_algorithm2_exact(self, network, seed):
        result = run_synchronous(
            network, "algorithm2", seed=seed, max_slots=60_000
        )
        check_soundness(network, result)
        assert result.completed

    @given(connected_networks(), st.integers(0, 1000))
    @settings(max_examples=15, deadline=None)
    def test_reference_engine_agrees_on_soundness(self, network, seed):
        result = run_synchronous(
            network,
            "algorithm1",
            seed=seed,
            max_slots=60_000,
            delta_est=4,
            engine="reference",
        )
        check_soundness(network, result)


class TestAsyncSoundness:
    @given(
        connected_networks(),
        st.integers(0, 1000),
        st.floats(min_value=0.0, max_value=1.0 / 7.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_algorithm4_sound_and_complete(self, network, seed, drift):
        result = run_asynchronous(
            network,
            seed=seed,
            delta_est=6,
            max_frames_per_node=120_000,
            drift_bound=drift,
            clock_model="constant",
            start_spread=4.0,
        )
        check_soundness(network, result)
        assert result.completed
