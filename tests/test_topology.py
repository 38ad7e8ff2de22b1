"""Unit tests for repro.net.topology."""

from __future__ import annotations

import itertools

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import ConfigurationError
from repro.net import topology


class PresetRng:
    """Stands in for a Generator: hands out preset placements and ranges."""

    def __init__(self, coords, ranges=()):
        self.coords = np.array(coords, dtype=float).reshape(-1, 2)
        self.ranges = list(ranges)

    def uniform(self, low, high, size=None):
        if size is not None:
            return self.coords
        return self.ranges.pop(0)


# Eighths are exact in binary, so 3-4-5 triangles and axis-aligned
# neighbours land exactly on a radius of eighths.
eighths = st.integers(0, 8).map(lambda k: k / 8)
coordinates = st.one_of(eighths, st.floats(0.0, 1.0))
placements = st.integers(1, 14).flatmap(
    lambda n: st.lists(st.tuples(coordinates, coordinates), min_size=n, max_size=n)
)


class TestUnitDiskPairs:
    """Row-wise distances give the pairs of the scalar per-pair loop."""

    @settings(max_examples=150, deadline=None)
    @given(placements, st.one_of(eighths.filter(bool), st.floats(0.01, 1.5)))
    def test_random_geometric(self, coords, radius):
        topo = topology.random_geometric(len(coords), radius, PresetRng(coords))
        points = np.array(coords, dtype=float)
        assert topo.pairs == [
            (u, v)
            for u, v in itertools.combinations(range(len(coords)), 2)
            if np.hypot(*(points[u] - points[v])) <= radius
        ]

    @settings(max_examples=150, deadline=None)
    @given(placements, st.data())
    def test_asymmetric_random_geometric(self, coords, data):
        n = len(coords)
        ranges = data.draw(
            st.lists(st.one_of(eighths.filter(bool), st.floats(0.01, 1.5)), min_size=n, max_size=n)
        )
        topo = topology.asymmetric_random_geometric(
            n, 0.01, 1.5, PresetRng(coords, ranges)
        )
        points = np.array(coords, dtype=float)
        assert topo.pairs == [
            (u, v)
            for u in range(n)
            for v in range(n)
            if u != v and np.hypot(*(points[u] - points[v])) <= ranges[u]
        ]

    def test_exact_radius_tie_is_a_link(self):
        coords = [(0.0, 0.0), (0.375, 0.5), (1.0, 1.0)]  # 0.625 apart
        topo = topology.random_geometric(3, 0.625, PresetRng(coords))
        assert topo.pairs == [(0, 1)]


class TestTopologyDataclass:
    def test_pairs_canonicalized(self):
        topo = topology.Topology(3, [(2, 1), (1, 2), (0, 1)])
        assert topo.pairs == [(0, 1), (1, 2)]

    def test_self_loop_rejected(self):
        with pytest.raises(ConfigurationError, match="self-loop"):
            topology.Topology(2, [(0, 0)])

    def test_unknown_node_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown node"):
            topology.Topology(2, [(0, 5)])

    def test_max_radio_degree(self):
        topo = topology.star(5)
        assert topo.max_radio_degree == 5

    def test_to_graph_roundtrip(self):
        topo = topology.ring(5)
        graph = topo.to_graph()
        assert graph.number_of_nodes() == 5
        assert graph.number_of_edges() == 5


class TestGenerators:
    def test_line(self):
        topo = topology.line(4)
        assert topo.pairs == [(0, 1), (1, 2), (2, 3)]
        assert topo.is_connected

    def test_ring_minimum_size(self):
        with pytest.raises(ConfigurationError, match=">= 3"):
            topology.ring(2)

    def test_ring(self):
        topo = topology.ring(6)
        assert len(topo.pairs) == 6
        assert topo.max_radio_degree == 2

    def test_star(self):
        topo = topology.star(3)
        assert topo.num_nodes == 4
        assert all(0 in pair for pair in topo.pairs)

    def test_clique(self):
        topo = topology.clique(5)
        assert len(topo.pairs) == 10
        assert topo.max_radio_degree == 4

    def test_grid_4_neighborhood(self):
        topo = topology.grid(2, 3)
        assert topo.num_nodes == 6
        # 2x3 grid: 3 horizontal x 2 rows + 3 vertical = 7 edges.
        assert len(topo.pairs) == 7

    def test_grid_diagonal(self):
        plain = topology.grid(3, 3)
        diag = topology.grid(3, 3, diagonal=True)
        assert len(diag.pairs) > len(plain.pairs)

    def test_grid_positions(self):
        topo = topology.grid(2, 2)
        assert topo.positions[3] == (1.0, 1.0)

    def test_two_cliques_bridge(self):
        topo = topology.two_cliques_bridge(3)
        assert topo.num_nodes == 6
        assert (2, 3) in topo.pairs
        assert topo.is_connected

    def test_random_geometric_radius_respected(self, rng):
        topo = topology.random_geometric(15, radius=0.2, rng=rng)
        positions = topo.positions
        for u, v in topo.pairs:
            dx = positions[u][0] - positions[v][0]
            dy = positions[u][1] - positions[v][1]
            assert (dx * dx + dy * dy) ** 0.5 <= 0.2 + 1e-12

    def test_random_geometric_connected_flag(self, rng):
        topo = topology.random_geometric(
            10, radius=0.6, rng=rng, require_connected=True
        )
        assert topo.is_connected

    def test_random_geometric_impossible_connectivity_raises(self, rng):
        with pytest.raises(ConfigurationError, match="connected"):
            topology.random_geometric(
                30, radius=0.01, rng=rng, require_connected=True, max_attempts=3
            )

    def test_random_geometric_deterministic(self):
        a = topology.random_geometric(8, 0.3, np.random.default_rng(5))
        b = topology.random_geometric(8, 0.3, np.random.default_rng(5))
        assert a.pairs == b.pairs
        assert a.positions == b.positions

    def test_erdos_renyi_probability_extremes(self, rng):
        empty = topology.erdos_renyi(6, 0.0, rng)
        assert empty.pairs == []
        full = topology.erdos_renyi(6, 1.0, rng)
        assert len(full.pairs) == 15

    def test_erdos_renyi_invalid_probability(self, rng):
        with pytest.raises(ConfigurationError, match="edge_probability"):
            topology.erdos_renyi(5, 1.5, rng)

    def test_invalid_sizes(self, rng):
        with pytest.raises(ConfigurationError):
            topology.grid(0, 3)
        with pytest.raises(ConfigurationError):
            topology.random_geometric(5, -1.0, rng)
        with pytest.raises(ConfigurationError):
            topology.two_cliques_bridge(1)
