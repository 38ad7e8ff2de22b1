"""Unit tests for repro.sim.runner."""

from __future__ import annotations

import pytest

from repro.exceptions import ConfigurationError
from repro.net import build_network, channels, topology
from repro.sim.clock import (
    ConstantDriftClock,
    PerfectClock,
    RandomWalkDriftClock,
    SinusoidalDriftClock,
)
from repro.sim.runner import (
    experiment_runner_params,
    make_clocks,
    random_start_offsets,
    run_asynchronous,
    run_synchronous,
    run_trials,
)


@pytest.fixture
def clique_net():
    topo = topology.clique(5)
    return build_network(topo, channels.homogeneous(5, 2))


class TestRunSynchronous:
    def test_fast_engine_default(self, clique_net):
        r = run_synchronous(
            clique_net, "algorithm3", seed=0, max_slots=20_000, delta_est=8
        )
        assert r.completed
        assert r.metadata["engine"] == "slotted-fast"
        assert r.metadata["protocol"] == "algorithm3"

    def test_reference_engine(self, clique_net):
        r = run_synchronous(
            clique_net,
            "algorithm1",
            seed=0,
            max_slots=20_000,
            delta_est=8,
            engine="reference",
        )
        assert r.completed
        assert r.metadata["engine"] == "slotted-reference"

    def test_baselines_auto_route_to_reference_engine(self, clique_net):
        r = run_synchronous(
            clique_net,
            "universal_sweep",
            seed=0,
            max_slots=20_000,
            delta_est=4,
            universal_channels=[0, 1],
        )
        assert r.metadata["engine"] == "slotted-reference"

    def test_baselines_refuse_explicit_fast_engine(self, clique_net):
        with pytest.raises(ConfigurationError, match="vectorized"):
            run_synchronous(
                clique_net,
                "universal_sweep",
                seed=0,
                max_slots=100,
                delta_est=4,
                universal_channels=[0, 1],
                engine="fast",
            )

    def test_baseline_on_reference_engine(self, clique_net):
        r = run_synchronous(
            clique_net,
            "deterministic_scan",
            seed=0,
            max_slots=100,
            engine="reference",
            universal_channels=[0, 1],
            id_space_size=5,
        )
        assert r.completed
        # One epoch = 2 channels x 5 ids = 10 slots suffices.
        assert r.completion_time < 10

    def test_unknown_engine(self, clique_net):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            run_synchronous(
                clique_net, "algorithm3", seed=0, max_slots=10, delta_est=4, engine="warp"
            )

    def test_trace_rejected_on_fast_engine(self, clique_net):
        from repro.sim.trace import ExecutionTrace

        with pytest.raises(ConfigurationError, match="trace"):
            run_synchronous(
                clique_net,
                "algorithm3",
                seed=0,
                max_slots=10,
                delta_est=4,
                engine="fast",
                trace=ExecutionTrace(),
            )

    def test_trace_routes_auto_to_reference_engine(self, clique_net):
        from repro.sim.trace import ExecutionTrace

        trace = ExecutionTrace()
        r = run_synchronous(
            clique_net,
            "algorithm3",
            seed=0,
            max_slots=10_000,
            delta_est=4,
            trace=trace,
        )
        assert r.metadata["engine"] == "slotted-reference"
        assert trace.node_ids


class TestExperimentRunnerParams:
    def test_network_needed_only_by_baselines(self, clique_net):
        kwargs = dict(delta_est=4, max_slots=100)
        assert experiment_runner_params(
            "algorithm3", None, **kwargs
        ) == experiment_runner_params("algorithm3", clique_net, **kwargs)
        params = experiment_runner_params("deterministic_scan", clique_net, **kwargs)
        assert params["universal_channels"] == [0, 1]
        assert params["id_space_size"] == 5
        with pytest.raises(ConfigurationError, match="off a network"):
            experiment_runner_params("universal_sweep", None, **kwargs)


class TestRunAsynchronous:
    def test_completes(self, clique_net):
        r = run_asynchronous(
            clique_net,
            seed=0,
            delta_est=8,
            max_frames_per_node=50_000,
            drift_bound=0.05,
            start_spread=3.0,
        )
        assert r.completed
        assert r.time_unit == "seconds"
        assert r.metadata["drift_bound"] == 0.05

    def test_clock_models_all_run(self, clique_net):
        for model in ("perfect", "constant", "random_walk", "sinusoidal"):
            r = run_asynchronous(
                clique_net,
                seed=1,
                delta_est=8,
                max_frames_per_node=50_000,
                drift_bound=0.1,
                clock_model=model,
            )
            assert r.completed, model

    def test_invalid_spread(self, clique_net):
        with pytest.raises(ConfigurationError, match="start_spread"):
            run_asynchronous(
                clique_net,
                seed=0,
                delta_est=4,
                max_frames_per_node=10,
                start_spread=-1.0,
            )


class TestMakeClocks:
    def net(self):
        topo = topology.line(4)
        return build_network(topo, channels.homogeneous(4, 1))

    def test_perfect(self, rng):
        clocks = make_clocks(self.net(), "perfect", 0.1, rng)
        assert all(isinstance(c, PerfectClock) for c in clocks.values())

    def test_constant_within_bound(self, rng):
        clocks = make_clocks(self.net(), "constant", 0.1, rng)
        assert all(isinstance(c, ConstantDriftClock) for c in clocks.values())
        assert all(abs(c.rate - 1.0) <= 0.1 for c in clocks.values())

    def test_zero_drift_gives_perfect(self, rng):
        clocks = make_clocks(self.net(), "constant", 0.0, rng)
        assert all(isinstance(c, PerfectClock) for c in clocks.values())

    def test_other_models(self, rng):
        assert all(
            isinstance(c, RandomWalkDriftClock)
            for c in make_clocks(self.net(), "random_walk", 0.1, rng).values()
        )
        assert all(
            isinstance(c, SinusoidalDriftClock)
            for c in make_clocks(self.net(), "sinusoidal", 0.1, rng).values()
        )

    def test_unknown_model(self, rng):
        with pytest.raises(ConfigurationError, match="clock model"):
            make_clocks(self.net(), "quartz", 0.1, rng)


class TestRunTrials:
    def test_derives_distinct_seeds(self, clique_net):
        results = run_trials(
            lambda seed: run_synchronous(
                clique_net, "algorithm3", seed=seed, max_slots=20_000, delta_est=8
            ),
            num_trials=3,
            base_seed=5,
        )
        assert len(results) == 3
        times = [r.completion_time for r in results]
        assert len(set(times)) > 1  # trials differ

    def test_reproducible(self, clique_net):
        def trial(seed):
            return run_synchronous(
                clique_net, "algorithm3", seed=seed, max_slots=20_000, delta_est=8
            )

        a = run_trials(trial, 2, base_seed=9)
        b = run_trials(trial, 2, base_seed=9)
        assert [r.completion_time for r in a] == [r.completion_time for r in b]

    def test_invalid_count(self, clique_net):
        with pytest.raises(ConfigurationError):
            run_trials(lambda s: None, 0, 1)  # type: ignore[arg-type]


class TestRandomStartOffsets:
    def test_range(self, clique_net, rng):
        offsets = random_start_offsets(clique_net, 10, rng)
        assert set(offsets) == set(clique_net.node_ids)
        assert all(0 <= v <= 10 for v in offsets.values())

    def test_zero_max(self, clique_net, rng):
        offsets = random_start_offsets(clique_net, 0, rng)
        assert all(v == 0 for v in offsets.values())

    def test_negative_rejected(self, clique_net, rng):
        with pytest.raises(ConfigurationError):
            random_start_offsets(clique_net, -1, rng)
