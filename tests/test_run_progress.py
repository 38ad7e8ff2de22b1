"""Tests for the ``on_progress`` observer threaded through the runners.

(`tests/test_progress.py` covers ``repro.analysis.progress``; this file
covers the *execution* observer added for the campaign service.)

The contract, for every backend:

* the observer receives ``(completed, total)`` with ``completed``
  strictly increasing to ``total`` — per trial on the serial path, per
  batch/chunk on the vectorized and pooled paths;
* under supervision it fires only after the journal holds the reported
  trials, and a resumed run's first report includes the restored count;
* it is purely observational: archived bytes are identical with and
  without one;
* an observer that raises aborts the campaign with its exception — the
  hook cancellation rides on.
"""

from __future__ import annotations

import pytest

from repro.net import M2HeWNetwork, NodeSpec
from repro.resilience.checkpoint import TrialJournal, journal_path
from repro.resilience.policy import RetryPolicy
from repro.resilience.supervisor import run_supervised_trials
from repro.sim.batch import ExperimentSpec, run_batch, spec_fingerprint
from repro.sim.parallel import pool_supported, run_spec_trials
from repro.workloads.generator import WorkloadConfig

PARAMS = {"delta_est": 4, "max_slots": 30_000}


def tiny_net() -> M2HeWNetwork:
    nodes = [
        NodeSpec(0, frozenset({0, 1})),
        NodeSpec(1, frozenset({0, 1})),
        NodeSpec(2, frozenset({0, 1})),
    ]
    return M2HeWNetwork(nodes, adjacency=[(0, 1), (1, 2), (0, 2)])


def small_spec(name="exp1", trials=4):
    return ExperimentSpec(
        name=name,
        workload=WorkloadConfig(
            topology="clique",
            topology_params={"num_nodes": 5},
            channel_model="homogeneous",
            channel_params={"num_channels": 2},
        ),
        protocol="algorithm3",
        trials=trials,
        runner_params=dict(PARAMS),
    )


def assert_monotone_to_total(events, trials):
    assert events, "observer never fired"
    completed = [c for c, _ in events]
    assert completed == sorted(set(completed)), "progress went backwards"
    assert completed[-1] == trials
    assert all(total == trials for _, total in events)


class TestRunSpecTrialsObserver:
    def test_serial_reports_every_trial(self):
        events = []
        results = run_spec_trials(
            tiny_net(),
            "algorithm3",
            trials=4,
            base_seed=0,
            runner_params=PARAMS,
            on_progress=lambda done, total: events.append((done, total)),
        )
        assert len(results) == 4
        assert events == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_vectorized_reports_per_batch(self):
        events = []
        run_spec_trials(
            tiny_net(),
            "algorithm3",
            trials=4,
            base_seed=0,
            runner_params={**PARAMS, "stop_on_full_coverage": False},
            backend="vectorized",
            chunk_size=2,
            on_progress=lambda done, total: events.append((done, total)),
        )
        assert_monotone_to_total(events, 4)
        assert len(events) >= 2  # at least one report per batch

    @pytest.mark.skipif(not pool_supported(), reason="no process pool here")
    def test_pooled_reports_in_dispatch_order(self):
        events = []
        run_spec_trials(
            tiny_net(),
            "algorithm3",
            trials=4,
            base_seed=0,
            runner_params=PARAMS,
            max_workers=2,
            chunk_size=1,
            on_progress=lambda done, total: events.append((done, total)),
        )
        assert_monotone_to_total(events, 4)
        assert events == [(1, 4), (2, 4), (3, 4), (4, 4)]

    def test_results_identical_with_and_without_observer(self):
        plain = run_spec_trials(
            tiny_net(), "algorithm3", trials=4, base_seed=0, runner_params=PARAMS
        )
        observed = run_spec_trials(
            tiny_net(),
            "algorithm3",
            trials=4,
            base_seed=0,
            runner_params=PARAMS,
            on_progress=lambda done, total: None,
        )
        assert plain == observed

    def test_raising_observer_aborts(self):
        class StopNow(RuntimeError):
            pass

        def observer(done, total):
            raise StopNow()

        with pytest.raises(StopNow):
            run_spec_trials(
                tiny_net(),
                "algorithm3",
                trials=4,
                base_seed=0,
                runner_params=PARAMS,
                on_progress=observer,
            )


class TestSupervisedObserver:
    def test_reports_after_journal(self, tmp_path):
        journal = TrialJournal.open(tmp_path, "exp", "f" * 64)
        journal_file = journal_path(tmp_path, "exp")
        events = []

        def observer(done, total):
            # The on-disk journal (header line + one fsynced line per
            # trial) must already hold everything being reported.
            lines = journal_file.read_text().strip().splitlines()
            assert len(lines) - 1 >= done
            events.append((done, total))

        run_supervised_trials(
            tiny_net(),
            "algorithm3",
            trials=3,
            base_seed=0,
            runner_params=PARAMS,
            chunk_size=1,  # per-trial granularity, as the service runs it
            policy=RetryPolicy(),
            journal=journal,
            on_progress=observer,
        )
        assert events == [(1, 3), (2, 3), (3, 3)]

    def test_resume_reports_restored_trials_first(self, tmp_path):
        journal = TrialJournal.open(tmp_path, "exp", "f" * 64)
        run_supervised_trials(
            tiny_net(),
            "algorithm3",
            trials=2,
            base_seed=0,
            runner_params=PARAMS,
            policy=RetryPolicy(),
            journal=journal,
        )
        events = []
        resumed = TrialJournal.open(tmp_path, "exp", "f" * 64)
        outcome = run_supervised_trials(
            tiny_net(),
            "algorithm3",
            trials=4,
            base_seed=0,
            runner_params=PARAMS,
            chunk_size=1,
            policy=RetryPolicy(),
            journal=resumed,
            on_progress=lambda done, total: events.append((done, total)),
        )
        assert outcome.restored == 2
        # First report announces the journal-restored trials, then the
        # remainder completes normally.
        assert events[0] == (2, 4)
        assert events[-1] == (4, 4)


class TestRunBatchObserver:
    def test_experiment_names_and_byte_identity(self, tmp_path):
        specs = [small_spec("a"), small_spec("b")]
        events = []
        run_batch(
            specs,
            base_seed=1,
            output_dir=tmp_path / "observed",
            on_progress=lambda name, done, total: events.append((name, done, total)),
        )
        assert {name for name, _, _ in events} == {"a", "b"}
        for name in ("a", "b"):
            assert_monotone_to_total(
                [(d, t) for n, d, t in events if n == name], 4
            )
        run_batch(specs, base_seed=1, output_dir=tmp_path / "plain")
        for plain in sorted((tmp_path / "plain").iterdir()):
            observed = tmp_path / "observed" / plain.name
            assert observed.read_bytes() == plain.read_bytes(), plain.name

    def test_supervised_batch_reports_progress(self, tmp_path):
        spec = small_spec()
        events = []
        run_batch(
            [spec],
            base_seed=1,
            checkpoint_dir=tmp_path / "ckpt",
            retry=RetryPolicy(),
            on_progress=lambda name, done, total: events.append((name, done, total)),
        )
        assert [e[:1] for e in events] == [("exp1",)] * len(events)
        assert_monotone_to_total([(d, t) for _, d, t in events], 4)
        # The journal fingerprint the run pinned is the spec fingerprint.
        journal = TrialJournal.open(
            tmp_path / "ckpt", "exp1", spec_fingerprint(spec, 1)
        )
        assert len(journal.restored) == 4
