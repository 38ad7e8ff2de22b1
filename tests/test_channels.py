"""Unit tests for repro.net.channels."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.net import build_network, channels, topology


class TestHomogeneous:
    def test_all_nodes_identical(self):
        a = channels.homogeneous(4, 3)
        assert all(a[i] == {0, 1, 2} for i in range(4))

    def test_rho_is_one(self):
        topo = topology.clique(4)
        network = build_network(topo, channels.homogeneous(4, 3))
        assert network.min_span_ratio == pytest.approx(1.0)

    def test_invalid(self):
        with pytest.raises(ConfigurationError):
            channels.homogeneous(4, 0)


class TestUniformRandomSubsets:
    def test_sizes_fixed(self, rng):
        a = channels.uniform_random_subsets(10, 8, 3, rng)
        assert all(len(a[i]) == 3 for i in range(10))
        assert all(max(a[i]) < 8 for i in range(10))

    def test_sizes_ranged(self, rng):
        a = channels.uniform_random_subsets(50, 10, 2, rng, set_size_max=5)
        sizes = {len(a[i]) for i in range(50)}
        assert sizes <= {2, 3, 4, 5}
        assert len(sizes) > 1  # variety with 50 draws

    def test_size_exceeding_universal_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="exceeds universal"):
            channels.uniform_random_subsets(5, 3, 4, rng)

    def test_bad_range_rejected(self, rng):
        with pytest.raises(ConfigurationError, match="below set_size"):
            channels.uniform_random_subsets(5, 8, 4, rng, set_size_max=3)


class TestCommonChannelPlusRandom:
    def test_everyone_has_common_channel(self, rng):
        a = channels.common_channel_plus_random(20, 10, 4, rng, common_channel=7)
        assert all(7 in a[i] for i in range(20))
        assert all(len(a[i]) == 4 for i in range(20))

    def test_common_channel_out_of_range(self, rng):
        with pytest.raises(ConfigurationError, match="common_channel"):
            channels.common_channel_plus_random(5, 4, 2, rng, common_channel=4)


class TestSingleCommonChannel:
    def test_pairwise_overlap_exactly_channel_zero(self, rng):
        a = channels.single_common_channel(6, 6 * 3 + 1, 4, rng)
        for i in range(6):
            assert len(a[i]) == 4
            assert 0 in a[i]
            for j in range(i + 1, 6):
                assert a[i] & a[j] == {0}

    def test_universal_too_small(self, rng):
        with pytest.raises(ConfigurationError, match="too small"):
            channels.single_common_channel(6, 10, 4, rng)

    def test_span_ratio_matches_construction(self, rng):
        topo = topology.clique(4)
        a = channels.single_common_channel(4, 4 * 2 + 1, 3, rng)
        network = build_network(topo, a)
        assert network.min_span_ratio == pytest.approx(1.0 / 3.0)


class TestAdversarialMinOverlap:
    def test_exact_overlap_everywhere(self, rng):
        topo = topology.grid(3, 3)
        a = channels.adversarial_min_overlap(topo, set_size=5, overlap=2, rng=rng)
        network = build_network(topo, a)
        for link in network.links():
            assert len(link.span) == 2
        assert network.min_span_ratio == pytest.approx(2.0 / 5.0)

    def test_overlap_equals_set_size_is_homogeneous_pool(self, rng):
        topo = topology.line(3)
        a = channels.adversarial_min_overlap(topo, set_size=3, overlap=3, rng=rng)
        assert a[0] == a[1] == a[2]

    def test_invalid_overlap(self, rng):
        topo = topology.line(3)
        with pytest.raises(ConfigurationError):
            channels.adversarial_min_overlap(topo, set_size=3, overlap=0, rng=rng)
        with pytest.raises(ConfigurationError):
            channels.adversarial_min_overlap(topo, set_size=3, overlap=4, rng=rng)


class TestRepairPairOverlap:
    def test_disjoint_pairs_get_a_shared_channel(self, rng):
        topo = topology.line(3)
        assignment = {0: frozenset({0}), 1: frozenset({1}), 2: frozenset({2})}
        fixed = channels.repair_pair_overlap(topo, assignment, rng)
        assert fixed[0] & fixed[1]
        assert fixed[1] & fixed[2]

    def test_no_change_when_already_overlapping(self, rng):
        topo = topology.line(2)
        assignment = {0: frozenset({0, 1}), 1: frozenset({1, 2})}
        fixed = channels.repair_pair_overlap(topo, assignment, rng)
        assert fixed == assignment

    def test_input_not_mutated(self, rng):
        topo = topology.line(2)
        assignment = {0: frozenset({0}), 1: frozenset({1})}
        channels.repair_pair_overlap(topo, assignment, rng)
        assert assignment[0] == {0}
        assert assignment[1] == {1}
