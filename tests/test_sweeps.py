"""Unit tests for repro.analysis.sweeps."""

from __future__ import annotations

import pytest

from repro.analysis.sweeps import grid_points, run_sweep
from repro.exceptions import ConfigurationError
from repro.net import build_network, channels, topology
from repro.sim.runner import run_synchronous


class TestGridPoints:
    def test_cartesian_product(self):
        points = grid_points(a=(1, 2), b=("x", "y"))
        assert len(points) == 4
        assert {"a": 1, "b": "x"} in points
        assert {"a": 2, "b": "y"} in points

    def test_single_axis(self):
        assert grid_points(n=(5,)) == [{"n": 5}]

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            grid_points()


class TestRunSweep:
    @pytest.fixture
    def net(self):
        topo = topology.clique(5)
        return build_network(topo, channels.homogeneous(5, 2))

    def trial(self, net):
        def fn(point, seed):
            return run_synchronous(
                net,
                "algorithm3",
                seed=seed,
                max_slots=20_000,
                delta_est=point["delta_est"],
            )

        return fn

    def test_rows_per_point(self, net):
        rows = run_sweep(
            [{"delta_est": 4}, {"delta_est": 32}],
            self.trial(net),
            trials=3,
            base_seed=1,
        )
        assert len(rows) == 2
        assert all(len(r.results) == 3 for r in rows)
        assert all(r.completed_fraction == 1.0 for r in rows)

    def test_larger_delta_est_is_slower(self, net):
        # Algorithm 3's time is linear in delta_est once it exceeds 2S:
        # a big sweep gap must show in the means.
        rows = run_sweep(
            [{"delta_est": 4}, {"delta_est": 64}],
            self.trial(net),
            trials=5,
            base_seed=2,
        )
        assert rows[0].mean_completion() < rows[1].mean_completion()

    def test_seeds_stable_under_extension(self, net):
        rows_a = run_sweep([{"delta_est": 4}], self.trial(net), trials=2, base_seed=3)
        rows_b = run_sweep(
            [{"delta_est": 4}, {"delta_est": 8}], self.trial(net), trials=2, base_seed=3
        )
        assert [r.completion_time for r in rows_a[0].results] == [
            r.completion_time for r in rows_b[0].results
        ]

    def test_as_row(self, net):
        rows = run_sweep([{"delta_est": 4}], self.trial(net), trials=2, base_seed=1)
        row = rows[0].as_row()
        assert row["delta_est"] == 4
        assert row["trials"] == 2
        assert "mean_time" in row

    def test_validation(self, net):
        with pytest.raises(ConfigurationError):
            run_sweep([], self.trial(net), trials=1, base_seed=0)
        with pytest.raises(ConfigurationError):
            run_sweep([{}], self.trial(net), trials=0, base_seed=0)
