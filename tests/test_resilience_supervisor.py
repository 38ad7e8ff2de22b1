"""Tests for supervised trial execution and resilient ``run_batch``.

The invariant under test throughout: recovery (retries, quarantine
isolation, backend downgrades, checkpoint resume) may change *how*
trials execute, never *what* they compute — archives from a recovered
campaign are byte-identical to an uninterrupted fault-free run's.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import (
    ConfigurationError,
    TrialExecutionError,
    TrialQuarantinedError,
)
from repro.resilience import (
    ChaosEvent,
    ChaosPlan,
    GroupEntry,
    RetryPolicy,
    parse_chaos_spec,
    run_supervised_trials,
    run_trial_group,
    verify_archive,
)
from repro.sim.batch import ExperimentSpec, run_batch
from repro.sim.parallel import pool_supported, run_spec_trials
from repro.workloads.generator import WorkloadConfig, generate_network
from tests.archives import archive_bytes, experiment_files, solo_archives

PARAMS = {"delta_est": 4, "max_slots": 30_000}
NO_SLEEP = {"sleep": lambda _delay: None}
FAST_RETRY = RetryPolicy(base_delay=0.0, jitter=0.0)


def small_workload() -> WorkloadConfig:
    return WorkloadConfig(
        topology="clique",
        topology_params={"num_nodes": 5},
        channel_model="homogeneous",
        channel_params={"num_channels": 2},
    )


@pytest.fixture(scope="module")
def network():
    return generate_network(small_workload(), seed=0)


@pytest.fixture(scope="module")
def reference(network):
    """Fail-fast results the supervised paths must reproduce exactly."""
    results = run_spec_trials(
        network, "algorithm1", trials=6, base_seed=7, runner_params=PARAMS
    )
    return [r.to_dict() for r in results]


def _supervised_dicts(outcome):
    return [r.to_dict() for _, r in outcome.results_in_order()]


class TestSupervisedIdentity:
    def test_fault_free_matches_fail_fast(self, network, reference):
        outcome = run_supervised_trials(
            network, "algorithm1", trials=6, base_seed=7, runner_params=PARAMS
        )
        assert outcome.complete
        assert outcome.events == []
        assert _supervised_dicts(outcome) == reference

    def test_chaos_retry_recovers_identically(self, network, reference):
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chaos=parse_chaos_spec("raise@1,raise@4x2"),
            policy=FAST_RETRY,
            **NO_SLEEP,
        )
        assert outcome.complete
        assert any(e.kind == "retry" for e in outcome.events)
        assert _supervised_dicts(outcome) == reference

    def test_vectorized_downgrade_recovers_identically(self, network):
        reference = run_spec_trials(
            network,
            "algorithm1",
            trials=4,
            base_seed=7,
            runner_params=PARAMS,
            backend="vectorized",
        )
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=4,
            base_seed=7,
            runner_params=PARAMS,
            backend="vectorized",
            chaos=parse_chaos_spec("raise@0"),
            policy=FAST_RETRY,
            **NO_SLEEP,
        )
        assert outcome.complete
        kinds = {e.kind for e in outcome.events}
        assert "retry" in kinds
        assert not any(kind.startswith("downgrade") for kind in kinds)
        assert _supervised_dicts(outcome) == [r.to_dict() for r in reference]


class TestQuarantine:
    def test_poison_trial_quarantined_others_survive(self, network, reference):
        # All six trials share one chunk; isolation must salvage the
        # five healthy ones and quarantine only the poison trial.
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=6,
            chaos=ChaosPlan(events=(ChaosEvent(trial=2, mode="raise", times=-1),)),
            policy=FAST_RETRY,
            **NO_SLEEP,
        )
        assert not outcome.complete
        assert [q.trial for q in outcome.quarantined] == [2]
        assert outcome.quarantined[0].base_seed == 7
        assert sorted(outcome.completed) == [0, 1, 3, 4, 5]
        for trial, result in outcome.results_in_order():
            assert result.to_dict() == reference[trial]

    def test_quarantine_disabled_raises_with_replay_coordinates(self, network):
        with pytest.raises(TrialQuarantinedError) as excinfo:
            run_supervised_trials(
                network,
                "algorithm1",
                trials=6,
                base_seed=7,
                runner_params=PARAMS,
                chaos=ChaosPlan(
                    events=(ChaosEvent(trial=2, mode="raise", times=-1),)
                ),
                policy=RetryPolicy(base_delay=0.0, jitter=0.0, quarantine=False),
                **NO_SLEEP,
            )
        err = excinfo.value
        assert err.trial_indices == (2,)
        assert err.base_seed == 7
        assert err.__cause__ is not None

    def test_timeout_chaos_quarantines_chunk(self, network, reference):
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=3,
            base_seed=7,
            runner_params=PARAMS,
            chunk_size=1,
            chaos=parse_chaos_spec("timeout@0x-1"),
            policy=FAST_RETRY,
            **NO_SLEEP,
        )
        assert [q.trial for q in outcome.quarantined] == [0]
        assert "timed out" in outcome.quarantined[0].error
        for trial, result in outcome.results_in_order():
            assert result.to_dict() == reference[trial]

    def test_campaign_retry_budget_aborts(self, network):
        with pytest.raises(TrialExecutionError, match="retry budget"):
            run_supervised_trials(
                network,
                "algorithm1",
                trials=6,
                base_seed=7,
                runner_params=PARAMS,
                chunk_size=2,
                chaos=parse_chaos_spec("raise@0,raise@2,raise@4"),
                policy=RetryPolicy(
                    base_delay=0.0, jitter=0.0, max_total_retries=1
                ),
                **NO_SLEEP,
            )


@pytest.mark.skipif(not pool_supported(), reason="platform cannot host a pool")
class TestPooledSupervision:
    def test_soft_failure_retries_on_pool(self, network, reference):
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            max_workers=2,
            chunk_size=2,
            chaos=parse_chaos_spec("raise@2"),
            policy=FAST_RETRY,
            **NO_SLEEP,
        )
        assert outcome.complete
        assert _supervised_dicts(outcome) == reference

    def test_worker_death_rebuilds_then_downgrades(self, network, reference):
        # The exit event keeps firing at attempt 0 (pool breakage charges
        # the pool, not the chunk), so after pool_downgrade_after
        # breakages the campaign degrades to in-process execution, where
        # exit-mode chaos softens to a raise and retries clear it.
        outcome = run_supervised_trials(
            network,
            "algorithm1",
            trials=6,
            base_seed=7,
            runner_params=PARAMS,
            max_workers=2,
            chunk_size=2,
            chaos=parse_chaos_spec("exit@0x3"),
            policy=RetryPolicy(base_delay=0.0, jitter=0.0, max_retries=4),
            **NO_SLEEP,
        )
        kinds = [e.kind for e in outcome.events]
        assert "pool_rebuild" in kinds
        assert "downgrade_pool" in kinds
        assert outcome.complete
        assert _supervised_dicts(outcome) == reference


def _specs(trials=5):
    return [
        ExperimentSpec(
            name="e1",
            workload=small_workload(),
            protocol="algorithm1",
            trials=trials,
            runner_params=dict(PARAMS),
        ),
        ExperimentSpec(
            name="e2",
            workload=small_workload(),
            protocol="algorithm2",
            trials=trials,
            runner_params=dict(PARAMS),
        ),
    ]


class TestResilientRunBatch:
    def test_supervised_archive_equals_legacy(self, tmp_path):
        run_batch(_specs(), base_seed=11, output_dir=tmp_path / "legacy")
        run_batch(
            _specs(),
            base_seed=11,
            output_dir=tmp_path / "supervised",
            retry=FAST_RETRY,
        )
        assert archive_bytes(tmp_path / "legacy") == archive_bytes(
            tmp_path / "supervised"
        )

    def test_chaos_recovery_archive_is_byte_identical(self, tmp_path):
        run_batch(_specs(), base_seed=11, output_dir=tmp_path / "clean")
        run_batch(
            _specs(),
            base_seed=11,
            output_dir=tmp_path / "chaos",
            retry=FAST_RETRY,
            chaos=parse_chaos_spec("raise@0,raise@3"),
        )
        assert archive_bytes(tmp_path / "clean") == archive_bytes(
            tmp_path / "chaos"
        )
        assert verify_archive(tmp_path / "chaos").ok

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        run_batch(_specs(), base_seed=11, output_dir=tmp_path / "clean")
        ck = tmp_path / "ck"
        run_batch(_specs(), base_seed=11, checkpoint_dir=ck)
        # Simulate a kill after two completed trials of e1 and a torn
        # final append on e2, then resume into an output directory.
        e1 = ck / "e1.journal.jsonl"
        lines = e1.read_text().splitlines()
        e1.write_text("\n".join(lines[:3]) + "\n")
        with open(ck / "e2.journal.jsonl", "a") as handle:
            handle.write('{"kind": "trial", "trial": 9')
        outcomes = run_batch(
            _specs(),
            base_seed=11,
            output_dir=tmp_path / "resumed",
            checkpoint_dir=ck,
        )
        assert outcomes[0].restored == 2
        assert outcomes[1].restored == 5
        assert archive_bytes(tmp_path / "clean") == archive_bytes(
            tmp_path / "resumed"
        )

    def test_resume_rejects_different_campaign(self, tmp_path):
        ck = tmp_path / "ck"
        run_batch(_specs(), base_seed=11, checkpoint_dir=ck)
        with pytest.raises(ConfigurationError, match="fingerprint"):
            run_batch(_specs(), base_seed=12, checkpoint_dir=ck)

    def test_quarantine_recorded_in_manifest(self, tmp_path):
        out = tmp_path / "quarantined"
        outcomes = run_batch(
            _specs(),
            base_seed=11,
            output_dir=out,
            retry=FAST_RETRY,
            chaos=parse_chaos_spec("raise@2x-1"),
        )
        assert all(o.completed_fraction < 1.0 for o in outcomes)
        manifest = json.loads((out / "manifest.json").read_text())
        quarantined = manifest["resilience"]["quarantined"]
        assert [(q["experiment"], q["trial"]) for q in quarantined] == [
            ("e1", 2),
            ("e2", 2),
        ]
        assert all(q["base_seed"] == 11 for q in quarantined)
        # The archive itself is still internally consistent.
        assert verify_archive(out).ok
        # Archived trial payloads keep their true indices despite the gap.
        payload = json.loads((out / "e1.json").read_text())
        assert [t["metadata"]["trial"] for t in payload["trials"]] == [0, 1, 3, 4]

    def test_clean_manifest_has_no_resilience_section(self, tmp_path):
        run_batch(
            _specs(),
            base_seed=11,
            output_dir=tmp_path / "out",
            retry=FAST_RETRY,
            chaos=parse_chaos_spec("raise@0"),  # recovered: not archived
        )
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert "resilience" not in manifest

    def test_archive_self_verifies(self, tmp_path):
        run_batch(_specs(), base_seed=11, output_dir=tmp_path / "out")
        report = verify_archive(tmp_path / "out")
        assert report.ok
        assert report.files_checked == 3


def _two_network_specs():
    """Three vectorizable protocols on each of two networks."""
    return [
        ExperimentSpec(
            name=f"net{seed}_{protocol}",
            workload=small_workload(),
            protocol=protocol,
            trials=4,
            network_seed=seed,
            runner_params=dict(PARAMS),
        )
        for seed in (0, 1)
        for protocol in ("algorithm1", "algorithm2", "algorithm3")
    ]


@pytest.fixture(scope="module")
def clean_archive(tmp_path_factory):
    """The archive every dispatch choice must match.

    Each experiment file comes from a fail-fast run of that spec alone
    (one trial per chunk, nothing to fuse with); the manifest from a
    fail-fast run of the whole campaign, whose fused experiment files
    must already equal the unfused ones.
    """
    root = tmp_path_factory.mktemp("clean")
    specs = _two_network_specs()
    files = solo_archives(specs, 11, root / "alone")
    run_batch(specs, base_seed=11, output_dir=root / "all")
    assert experiment_files(root / "all") == files
    files["manifest.json"] = (root / "all" / "manifest.json").read_bytes()
    return files


@pytest.fixture
def grid_passes(monkeypatch):
    """Rows of every GridBatchedSimulator pass, in order."""
    from repro.sim.batched import GridBatchedSimulator

    rows = []
    real_run = GridBatchedSimulator.run

    def counted(self, stopping):
        rows.append(self.batch_size)
        return real_run(self, stopping)

    monkeypatch.setattr(GridBatchedSimulator, "run", counted)
    return rows


class TestFusedErrorLabels:
    """Errors of a fused group name the experiments the failing chunk ran."""

    def _group(self):
        return [
            GroupEntry("A", "algorithm1", 4, PARAMS),
            GroupEntry("B", "algorithm3", 2, PARAMS),
        ]

    @pytest.mark.parametrize("trial, named", [(3, "A"), (1, "A + B")])
    def test_fail_fast_names_the_chunk_experiments(self, network, trial, named):
        with pytest.raises(TrialExecutionError) as excinfo:
            run_trial_group(
                network,
                self._group(),
                base_seed=7,
                label="A + B",
                chaos=parse_chaos_spec(f"raise@{trial}"),
            )
        assert excinfo.value.experiment == named
        assert excinfo.value.trial_indices == (trial,)

    def test_retry_budget_error_names_the_chunk_experiments(self, network):
        with pytest.raises(TrialExecutionError, match="retry budget") as excinfo:
            run_trial_group(
                network,
                self._group(),
                base_seed=7,
                label="A + B",
                policy=RetryPolicy(base_delay=0.0, jitter=0.0, max_total_retries=0),
                chaos=parse_chaos_spec("raise@2"),
                **NO_SLEEP,
            )
        assert excinfo.value.experiment == "A"
        assert excinfo.value.trial_indices == (2,)

    def test_unnamed_entry_falls_back_to_group_label(self, network):
        with pytest.raises(TrialExecutionError) as excinfo:
            run_trial_group(
                network,
                [GroupEntry(None, "algorithm1", 2, PARAMS)],
                base_seed=7,
                label="group",
                chaos=parse_chaos_spec("raise@0"),
            )
        assert excinfo.value.experiment == "group"


class TestOneDispatchPath:
    """Every policy and backend goes through the same chunk executors."""

    @pytest.mark.parametrize(
        "backend, workers",
        [("auto", 1), ("auto", 2), ("vectorized", 1), ("vectorized", 2)],
    )
    @pytest.mark.parametrize(
        "retry", [None, RetryPolicy()], ids=["fail-fast", "retry-policy"]
    )
    def test_archive_identical_for_every_policy_and_backend(
        self, tmp_path, clean_archive, retry, backend, workers
    ):
        run_batch(
            _two_network_specs(),
            base_seed=11,
            output_dir=tmp_path / "out",
            max_workers=workers,
            backend=backend,
            retry=retry,
        )
        assert archive_bytes(tmp_path / "out") == clean_archive

    def test_vectorized_chaos_recovery_archives_clean_bytes(
        self, tmp_path, clean_archive
    ):
        # A failed grid chunk retries as the same grid chunk: recovery
        # leaves no trace, not even a manifest resilience section.
        run_batch(
            _two_network_specs(),
            base_seed=11,
            output_dir=tmp_path / "out",
            backend="vectorized",
            retry=FAST_RETRY,
            chaos=parse_chaos_spec("raise@0"),
        )
        assert archive_bytes(tmp_path / "out") == clean_archive

    def test_checkpointed_grid_fuses_and_resumes_identically(
        self, tmp_path, clean_archive, grid_passes
    ):
        specs = _two_network_specs()
        supervised = dict(backend="vectorized", retry=RetryPolicy(), base_seed=11)
        run_batch(
            specs,
            output_dir=tmp_path / "full",
            checkpoint_dir=tmp_path / "ck-full",
            **supervised,
        )
        assert grid_passes == [12, 12]  # one pass per network: 3 specs x 4 trials
        assert archive_bytes(tmp_path / "full") == clean_archive

        class Killed(Exception):
            pass

        def kill(_name, _done, _total):
            raise Killed()

        ck = tmp_path / "ck"
        with pytest.raises(Killed):
            run_batch(
                specs, checkpoint_dir=ck, chunk_size=2, on_progress=kill, **supervised
            )
        # The first chunk (trials 0-1 of every spec on network 0) was
        # journaled per entry before the kill; network 1 never started.
        for spec in specs[:3]:
            lines = (ck / f"{spec.name}.journal.jsonl").read_text().splitlines()
            assert [json.loads(line)["trial"] for line in lines[1:]] == [0, 1]
        assert not (ck / f"{specs[3].name}.journal.jsonl").exists()

        grid_passes.clear()
        outcomes = run_batch(
            specs, output_dir=tmp_path / "resumed", checkpoint_dir=ck, **supervised
        )
        assert [o.restored for o in outcomes] == [2, 2, 2, 0, 0, 0]
        assert grid_passes == [6, 12]
        assert archive_bytes(tmp_path / "resumed") == clean_archive
