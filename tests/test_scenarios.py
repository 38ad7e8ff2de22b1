"""Unit tests for repro.workloads.scenarios."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.workloads.scenarios import scenario, scenario_names


class TestRegistry:
    def test_names_sorted_and_nonempty(self):
        names = scenario_names()
        assert names == sorted(names)
        assert len(names) >= 5

    def test_unknown_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            scenario("atlantis")

    def test_all_scenarios_build(self):
        for name in scenario_names():
            s = scenario(name)
            network = s.build(seed=0)
            assert network.num_nodes > 1
            assert network.num_links > 0
            assert s.delta_est >= 2
            assert 0 < s.epsilon < 1

    def test_builds_deterministic(self):
        s = scenario("urban_dense")
        a, b = s.build(seed=3), s.build(seed=3)
        assert all(a.channels_of(n) == b.channels_of(n) for n in a.node_ids)

    def test_delta_est_is_valid_upper_bound(self):
        # The recommended delta_est must actually bound the realized
        # max degree for the default seeds used in benchmarks.
        for name in scenario_names():
            s = scenario(name)
            for seed in (0, 1, 2):
                network = s.build(seed=seed)
                assert network.max_degree <= s.delta_est, (name, seed)

    def test_single_common_channel_shape(self):
        s = scenario("single_common_channel")
        network = s.build(seed=0)
        # Universal set much larger than any available set.
        assert len(network.universal_channel_set) > 4 * network.max_channel_set_size
        for link in network.links():
            assert len(link.span) == 1

    def test_adversarial_rho(self):
        s = scenario("adversarial_heterogeneous")
        network = s.build(seed=0)
        assert network.min_span_ratio == pytest.approx(1 / 6)
