"""Tests for the declarative batch runner."""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError
from repro.sim.batch import ExperimentSpec, run_batch
from repro.sim.results import result_from_dict
from repro.workloads.generator import WorkloadConfig


def small_workload():
    return WorkloadConfig(
        topology="clique",
        topology_params={"num_nodes": 5},
        channel_model="homogeneous",
        channel_params={"num_channels": 2},
    )


def spec(name="exp1", protocol="algorithm3", trials=2, **runner):
    runner.setdefault("delta_est", 8)
    runner.setdefault("max_slots", 30_000)
    return ExperimentSpec(
        name=name,
        workload=small_workload(),
        protocol=protocol,
        trials=trials,
        runner_params=runner,
    )


class TestSpecValidation:
    def test_bad_name(self):
        with pytest.raises(ConfigurationError, match="file stem"):
            spec(name="a/b")

    def test_unknown_protocol(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            spec(protocol="telepathy")

    def test_trials_positive(self):
        with pytest.raises(ConfigurationError, match="trials"):
            spec(trials=0)


class TestRunBatch:
    def test_runs_all_specs(self):
        outcomes = run_batch([spec("a"), spec("b", protocol="algorithm1")], base_seed=1)
        assert [o.spec.name for o in outcomes] == ["a", "b"]
        for o in outcomes:
            assert len(o.results) == 2
            assert o.completed_fraction == 1.0
            assert o.completion is not None
            assert o.network_params["N"] == 5

    def test_async_spec(self):
        async_spec = ExperimentSpec(
            name="async",
            workload=small_workload(),
            protocol="algorithm4",
            trials=2,
            runner_params={"delta_est": 8, "drift_bound": 0.05},
        )
        outcomes = run_batch([async_spec], base_seed=2)
        assert outcomes[0].completed_fraction == 1.0
        assert outcomes[0].results[0].time_unit == "seconds"

    def test_shared_trial_seeds_across_experiments(self):
        # Same workload + protocol + params => identical trials.
        outcomes = run_batch([spec("a"), spec("b")], base_seed=3)
        times_a = [r.completion_time for r in outcomes[0].results]
        times_b = [r.completion_time for r in outcomes[1].results]
        assert times_a == times_b

    def test_duplicate_names_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            run_batch([spec("a"), spec("a")])

    def test_empty_batch_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            run_batch([])

    def test_trial_metadata(self):
        outcomes = run_batch([spec("a")], base_seed=1)
        meta = outcomes[0].results[1].metadata
        assert meta["experiment"] == "a"
        assert meta["trial"] == 1
        assert meta["workload"]["topology"] == "clique"

    def test_as_row(self):
        outcome = run_batch([spec("a")], base_seed=1)[0]
        row = outcome.as_row()
        assert row["experiment"] == "a"
        assert row["completed"] == 1.0
        assert "mean_time" in row


class TestArchiving:
    def test_files_written(self, tmp_path):
        run_batch([spec("a"), spec("b")], base_seed=1, output_dir=tmp_path)
        assert (tmp_path / "a.json").exists()
        assert (tmp_path / "b.json").exists()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert {e["name"] for e in manifest["experiments"]} == {"a", "b"}
        assert manifest["base_seed"] == 1

    def test_archived_trials_reload(self, tmp_path):
        outcomes = run_batch([spec("a")], base_seed=1, output_dir=tmp_path)
        payload = json.loads((tmp_path / "a.json").read_text())
        restored = [result_from_dict(d) for d in payload["trials"]]
        assert len(restored) == 2
        assert restored[0].coverage == outcomes[0].results[0].coverage

    def test_archive_records_spec(self, tmp_path):
        run_batch([spec("a")], base_seed=1, output_dir=tmp_path)
        payload = json.loads((tmp_path / "a.json").read_text())
        assert payload["spec"]["protocol"] == "algorithm3"
        assert payload["spec"]["workload"]["channel_model"] == "homogeneous"
        assert payload["network_params"]["N"] == 5
