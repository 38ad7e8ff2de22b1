"""Edge-case tests across modules (error paths and small behaviors)."""

from __future__ import annotations

import pytest

from repro.analysis.energy import EnergyModel, energy_report
from repro.analysis.theory import exact_pair_coverage_probability
from repro.exceptions import ConfigurationError, NetworkModelError
from repro.net import (
    NodeSpec,
    build_asymmetric_network,
    build_network,
    topology,
)
from repro.net.topology import DirectedTopology
from repro.sim.results import DiscoveryResult


class TestBuildHelpers:
    def test_build_network_missing_assignment(self):
        topo = topology.line(3)
        with pytest.raises(NetworkModelError, match="missing node"):
            build_network(topo, {0: {0}, 1: {0}})

    def test_build_asymmetric_missing_assignment(self):
        topo = DirectedTopology(2, [(0, 1)])
        with pytest.raises(NetworkModelError, match="missing node"):
            build_asymmetric_network(topo, {0: {0}})

    def test_build_asymmetric_positions_carried(self, rng):
        topo = topology.asymmetric_random_geometric(
            5, min_range=0.3, max_range=0.6, rng=rng
        )
        net = build_asymmetric_network(topo, {i: {0} for i in range(5)})
        assert all(net.node(i).position is not None for i in range(5))


class TestExactPairFormulaValidation:
    def test_span_checked(self):
        with pytest.raises(ConfigurationError, match="span"):
            exact_pair_coverage_probability(2, 2, 3, 0.5, 0.5)
        with pytest.raises(ConfigurationError, match="span"):
            exact_pair_coverage_probability(2, 2, 0, 0.5, 0.5)

    def test_probabilities_checked(self):
        with pytest.raises(ConfigurationError):
            exact_pair_coverage_probability(2, 2, 1, 0.0, 0.5)
        with pytest.raises(ConfigurationError):
            exact_pair_coverage_probability(2, 2, 1, 0.5, 1.0)


class TestEnergyQuietPower:
    def test_sleep_power_counts(self):
        result = DiscoveryResult(
            time_unit="seconds",
            coverage={},
            horizon=10.0,
            completed=True,
            neighbor_tables={},
            start_times={0: 0.0},
            network_params={},
            metadata={
                "radio_activity": {0: {"tx": 0.0, "rx": 0.0, "quiet": 100.0}}
            },
        )
        model = EnergyModel(tx_watts=1.0, rx_watts=1.0, quiet_watts=0.01)
        report = energy_report(result, model)
        assert report.per_node[0].joules == pytest.approx(1.0)
        assert report.per_node[0].duty_cycle == 0.0
        assert report.joules_per_link is None  # nothing covered


class TestScenarioExtras:
    def test_new_scenarios_listed(self):
        from repro.workloads.scenarios import scenario_names

        assert "suburban_asymmetric" in scenario_names()
        assert "wideband_campus" in scenario_names()

    def test_suburban_asymmetric_is_asymmetric(self):
        from repro.workloads.scenarios import scenario

        net = scenario("suburban_asymmetric").build(seed=0)
        assert not net.is_symmetric

    def test_wideband_campus_is_channel_dependent(self):
        from repro.workloads.scenarios import scenario

        net = scenario("wideband_campus").build(seed=0)
        assert net.is_channel_dependent
        # Spans shrink below the claimed intersection somewhere.
        shrunk = [
            l
            for l in net.links()
            if l.span
            < (net.channels_of(l.transmitter) & net.channels_of(l.receiver))
        ]
        assert shrunk


class TestNodeSpecExtras:
    def test_hash_usable_in_sets(self):
        a = NodeSpec(0, frozenset({1}))
        b = NodeSpec(0, frozenset({1}))
        assert len({a, b}) == 1


class TestAnalysisPackageSurface:
    def test_all_submodules_importable(self):
        from repro import analysis

        for name in analysis.__all__:
            assert getattr(analysis, name) is not None

    def test_sim_package_surface(self):
        import repro.sim as sim

        for name in sim.__all__:
            assert getattr(sim, name) is not None

    def test_top_level_surface(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None
