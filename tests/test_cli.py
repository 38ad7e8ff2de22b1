"""Unit tests for the m2hew CLI."""

from __future__ import annotations

import argparse
import json

import pytest

import repro.cli as cli_module
from repro.cli import build_parser, main
from repro.sim.batched import GridBatchedSimulator


COMPARE_RURAL_SPARSE_SEED4 = """\
rural_sparse: protocol comparison (delta_est=4, 3 trials)
       protocol  completed  mean_slots  p90_slots  max_slots
---------------  ---------  ----------  ---------  ---------
     algorithm1        3/3      43.700     48.400         49
     algorithm2        3/3      59.700     64.800         66
     algorithm3        3/3      43.700     48.400         49
          mcdis        3/3      85.700         96         99
universal_sweep        3/3          28     31.800         32
"""


def assert_one_line_error(capsys, fragment):
    """The CLI refused its arguments with one ``m2hew: error:`` line."""
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if line.startswith("m2hew: error:")]
    assert len(lines) == 1, err
    assert fragment in lines[0]
    assert "Traceback" not in err


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "campus_cr" in out
        assert "single_common_channel" in out

    def test_info_command(self, capsys):
        assert main(["info", "rural_sparse", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "rho" in out
        assert "Delta" in out

    def test_bounds_command(self, capsys):
        code = main(
            [
                "bounds",
                "--s", "4",
                "--delta", "5",
                "--rho", "0.5",
                "--n", "10",
                "--delta-est", "8",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "theorem1_slots" in out
        assert "theorem9_frames" in out

    def test_run_sync_completes(self, capsys):
        code = main(
            [
                "run-sync",
                "rural_sparse",
                "--protocol", "algorithm3",
                "--seed", "0",
                "--max-slots", "50000",
            ]
        )
        assert code == 0
        assert "completed" in capsys.readouterr().out

    def test_run_sync_staggered(self, capsys):
        code = main(
            [
                "run-sync",
                "rural_sparse",
                "--protocol", "algorithm3",
                "--seed", "0",
                "--max-slots", "50000",
                "--stagger", "40",
            ]
        )
        assert code == 0

    def test_run_sync_budget_too_small_fails(self, capsys):
        code = main(
            [
                "run-sync",
                "rural_sparse",
                "--protocol", "algorithm3",
                "--seed", "0",
                "--max-slots", "2",
            ]
        )
        assert code == 1

    def test_run_async_budget_too_small_fails(self, capsys):
        code = main(
            [
                "run-async",
                "rural_sparse",
                "--seed", "0",
                "--max-frames", "1",
            ]
        )
        assert code == 1

    def test_run_async_completes(self, capsys):
        code = main(
            [
                "run-async",
                "rural_sparse",
                "--seed", "0",
                "--drift", "0.05",
                "--max-frames", "200000",
            ]
        )
        assert code == 0

    def test_invalid_scenario_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["info", "nowhere"])

    def test_profile_command(self, capsys):
        assert main(["profile", "urban_dense", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "heterogeneity_index" in out
        assert "Per-channel structure" in out

    def test_terminate_command(self, capsys):
        code = main(
            [
                "terminate",
                "rural_sparse",
                "--seed", "0",
                "--policy", "beacon",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quiet_threshold" in out
        assert "total_joules" in out

    def test_timeline_command(self, capsys):
        code = main(
            [
                "timeline",
                "rural_sparse",
                "--seed", "0",
                "--drift", "0.1",
                "--start", "5",
                "--end", "15",
                "--nodes", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "node" in out
        assert "|" in out

    def test_compare_command(self, capsys):
        code = main(
            [
                "compare",
                "rural_sparse",
                "--trials", "2",
                "--protocols", "algorithm1", "algorithm3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "algorithm1" in out
        assert "algorithm3" in out
        assert "mean_slots" in out

    def test_compare_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            main(["compare", "rural_sparse", "--protocols", "warp_drive"])

    def test_compare_table_pinned(self, capsys):
        # Recorded from the per-protocol trial loop compare ran before it
        # went through run_batch; the campaign path must print it byte
        # for byte.
        code = main(
            [
                "compare",
                "rural_sparse",
                "--trials", "3",
                "--seed", "4",
                "--protocols",
                "algorithm1", "algorithm2", "algorithm3", "mcdis", "universal_sweep",
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == COMPARE_RURAL_SPARSE_SEED4

    def test_compare_runs_one_grid_pass_per_trial_index(self, monkeypatch, capsys):
        rows = []
        real_run = GridBatchedSimulator.run

        def counted(self, stopping):
            rows.append(self.batch_size)
            return real_run(self, stopping)

        monkeypatch.setattr(GridBatchedSimulator, "run", counted)
        code = main(
            [
                "compare",
                "rural_sparse",
                "--trials", "3",
                "--protocols", "algorithm1", "algorithm2", "algorithm3",
            ]
        )
        assert code == 0
        assert rows == [3, 3, 3]

    def test_compare_rejects_repeated_protocol(self, capsys):
        code = main(
            ["compare", "rural_sparse", "--protocols", "algorithm1", "algorithm1"]
        )
        assert code == 2
        assert_one_line_error(capsys, "duplicate")

    def test_terminate_sleep_policy(self, capsys):
        code = main(
            [
                "terminate",
                "rural_sparse",
                "--seed", "1",
                "--policy", "sleep",
                "--local-epsilon", "0.0001",
            ]
        )
        assert code == 0


class TestBatchCommand:
    def test_arg_parsing_defaults(self):
        args = build_parser().parse_args(["batch", "rural_sparse"])
        assert args.workers == 1
        assert args.backend == "auto"
        assert args.chunk_size is None
        assert not hasattr(args, "batch_size")
        assert args.trial_timeout is None
        assert args.output is None

    def test_arg_parsing_workers(self):
        args = build_parser().parse_args(["batch", "rural_sparse", "--workers", "4"])
        assert args.workers == 4
        assert args.backend == "auto"

    def test_invalid_backend_rejected(self):
        # serial and process are not backends: --workers picks the executor.
        for backend in ("threads", "serial", "process"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(
                    ["batch", "rural_sparse", "--backend", backend]
                )

    def test_invalid_scenario_rejected(self):
        with pytest.raises(SystemExit):
            main(["batch", "nowhere"])

    def test_repeated_protocol_exits_2(self, capsys):
        code = main(
            [
                "batch",
                "rural_sparse",
                "--trials", "1",
                "--protocols", "algorithm1", "algorithm1",
            ]
        )
        assert code == 2
        assert_one_line_error(capsys, "duplicate protocols")

    def test_trial_timeout_without_pool_exits_2(self, capsys):
        # The in-process loop never reads the budget; only a pool does.
        code = main(
            [
                "batch",
                "rural_sparse",
                "--trials", "2",
                "--protocols", "algorithm3", "mcdis",
                "--trial-timeout", "0.0001",
            ]
        )
        assert code == 2
        assert_one_line_error(capsys, "timeout")

    def test_lease_ttl_without_queue_exits_2(self, capsys):
        code = main(
            [
                "batch",
                "rural_sparse",
                "--trials", "1",
                "--protocols", "algorithm3",
                "--lease-ttl", "0.001",
            ]
        )
        assert code == 2
        assert_one_line_error(capsys, "lease")

    def test_workers_with_queue_exits_2(self, capsys, tmp_path):
        code = main(
            [
                "batch",
                "rural_sparse",
                "--trials", "1",
                "--protocols", "algorithm3",
                "--workers", "2",
                "--queue", str(tmp_path / "q"),
            ]
        )
        assert code == 2
        assert_one_line_error(capsys, "work queue")

    def test_serve_refuses_workers_with_queue(self, capsys, tmp_path, monkeypatch):
        from repro.service import CampaignService

        async def never(*_args):
            raise AssertionError("the service started")

        monkeypatch.setattr(CampaignService, "run_forever", never)
        code = main(
            [
                "serve",
                "--data-dir", str(tmp_path / "svc"),
                "--workers", "2",
                "--queue", str(tmp_path / "q"),
            ]
        )
        assert code == 2
        assert_one_line_error(capsys, "work queue")
        assert not (tmp_path / "svc").exists()

    def test_batch_runs_and_tabulates(self, capsys):
        code = main(
            [
                "batch",
                "rural_sparse",
                "--trials", "2",
                "--max-slots", "50000",
                "--protocols", "algorithm3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "rural_sparse_algorithm3" in out
        assert "mean_time" in out

    def test_workers_manifest_identical_to_serial(self, tmp_path, capsys):
        base = [
            "batch",
            "rural_sparse",
            "--trials", "2",
            "--max-slots", "50000",
            "--protocols", "algorithm3",
        ]
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        assert main(base + ["--output", str(serial_dir)]) == 0
        assert (
            main(base + ["--workers", "2", "--output", str(pool_dir)]) == 0
        )
        for name in ("manifest.json", "rural_sparse_algorithm3.json"):
            assert (serial_dir / name).read_bytes() == (
                pool_dir / name
            ).read_bytes()
        manifest = json.loads((serial_dir / "manifest.json").read_text())
        assert manifest["experiments"][0]["name"] == "rural_sparse_algorithm3"

    def test_vectorized_backend_parses(self):
        args = build_parser().parse_args(
            [
                "batch",
                "rural_sparse",
                "--backend", "vectorized",
                "--chunk-size", "8",
            ]
        )
        assert args.backend == "vectorized"
        assert args.chunk_size == 8

    def test_vectorized_archive_identical_to_serial(self, tmp_path, capsys):
        base = [
            "batch",
            "rural_sparse",
            "--trials", "3",
            "--max-slots", "50000",
            "--protocols", "algorithm3",
        ]
        serial_dir = tmp_path / "serial"
        vec_dir = tmp_path / "vec"
        assert main(base + ["--output", str(serial_dir)]) == 0
        assert (
            main(
                base
                + [
                    "--backend", "vectorized",
                    "--chunk-size", "2",
                    "--output", str(vec_dir),
                ]
            )
            == 0
        )
        for name in ("manifest.json", "rural_sparse_algorithm3.json"):
            assert (serial_dir / name).read_bytes() == (
                vec_dir / name
            ).read_bytes()

    def test_batch_async_protocol(self, capsys):
        code = main(
            [
                "batch",
                "rural_sparse",
                "--trials", "1",
                "--protocols", "algorithm4",
            ]
        )
        assert code == 0
        assert "rural_sparse_algorithm4" in capsys.readouterr().out


class TestHelpTextDrift:
    """The module docstring and the parser must list the same commands."""

    def _subcommands(self):
        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                return sorted(action.choices)
        raise AssertionError("no subparsers registered")

    def test_every_subcommand_documented(self):
        doc = cli_module.__doc__
        for name in self._subcommands():
            assert f"``{name}``" in doc, (
                f"subcommand {name!r} missing from the repro.cli docstring"
            )

    def test_batch_help_mentions_workers(self):
        parser = build_parser()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                help_text = action.choices["batch"].format_help()
                break
        assert "--workers" in help_text
        assert "--backend" in help_text
        assert "--trial-timeout" in help_text
        assert "--chunk-size" in help_text
        assert "vectorized" in help_text

    def test_top_level_help_lists_batch(self):
        help_text = build_parser().format_help()
        assert "batch" in help_text


class TestBatchResilience:
    BASE = [
        "batch",
        "rural_sparse",
        "--trials", "2",
        "--max-slots", "50000",
        "--protocols", "algorithm3",
    ]

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args(
            self.BASE + ["--retries", "3", "--no-quarantine", "--chaos", "raise@0"]
        )
        assert args.retries == 3
        assert args.no_quarantine is True
        assert args.chaos == "raise@0"
        assert args.checkpoint is None
        assert args.resume is None

    def test_chaos_recovery_archive_byte_identical(self, tmp_path, capsys):
        clean = tmp_path / "clean"
        chaos = tmp_path / "chaos"
        assert main(self.BASE + ["--output", str(clean)]) == 0
        assert (
            main(
                self.BASE
                + ["--retries", "2", "--chaos", "raise@0", "--output", str(chaos)]
            )
            == 0
        )
        for name in ("manifest.json", "rural_sparse_algorithm3.json"):
            assert (clean / name).read_bytes() == (chaos / name).read_bytes()

    def test_quarantine_reports_replay_seed(self, capsys):
        code = main(self.BASE + ["--retries", "0", "--chaos", "raise@0x-1"])
        assert code == 1  # campaign finished, but not every trial did
        err = capsys.readouterr().err
        assert "quarantined: rural_sparse_algorithm3 trial 0" in err
        assert "derive_trial_seed(0, 0)" in err

    def test_no_quarantine_aborts_with_exit_code_3(self, capsys):
        code = main(
            self.BASE
            + ["--retries", "0", "--no-quarantine", "--chaos", "raise@0x-1"]
        )
        assert code == 3
        assert "campaign failed" in capsys.readouterr().err

    def test_checkpoint_then_resume(self, tmp_path, capsys):
        ck = tmp_path / "ck"
        out = tmp_path / "out"
        assert main(self.BASE + ["--checkpoint", str(ck)]) == 0
        capsys.readouterr()
        assert (
            main(self.BASE + ["--resume", str(ck), "--output", str(out)]) == 0
        )
        err = capsys.readouterr().err
        assert "resumed: 2 trial(s) restored from checkpoint" in err

    def test_checkpoint_and_resume_conflict(self, tmp_path, capsys):
        code = main(
            self.BASE
            + [
                "--checkpoint", str(tmp_path / "a"),
                "--resume", str(tmp_path / "b"),
            ]
        )
        assert code == 2
        assert_one_line_error(capsys, "not both")

    def test_resume_requires_existing_directory(self, tmp_path, capsys):
        code = main(self.BASE + ["--resume", str(tmp_path / "missing")])
        assert code == 2
        assert_one_line_error(capsys, "no such checkpoint")

    def test_bad_chaos_spec_rejected(self, capsys):
        assert main(self.BASE + ["--chaos", "explode@banana"]) == 2
        assert_one_line_error(capsys, "bad chaos event")


class TestProtocolChoiceDrift:
    """CLI protocol choices must come from the registry, not hand lists."""

    def _subparser(self, name):
        for action in build_parser()._actions:
            if isinstance(action, argparse._SubParsersAction):
                return action.choices[name]
        raise AssertionError("no subparsers registered")

    def _choices(self, command, dest):
        for action in self._subparser(command)._actions:
            if action.dest == dest:
                return tuple(action.choices)
        raise AssertionError(f"{command} has no option with dest {dest!r}")

    def test_run_sync_offers_every_sync_protocol(self):
        from repro.sim.runner import SYNC_PROTOCOLS

        assert self._choices("run-sync", "protocol") == SYNC_PROTOCOLS

    def test_compare_offers_every_sync_protocol(self):
        from repro.sim.runner import SYNC_PROTOCOLS

        assert self._choices("compare", "protocols") == SYNC_PROTOCOLS

    def test_tournament_offers_every_sync_protocol(self):
        from repro.sim.runner import SYNC_PROTOCOLS

        assert self._choices("tournament", "protocols") == SYNC_PROTOCOLS

    def test_batch_offers_sync_plus_async(self):
        from repro.core.registry import ASYNCHRONOUS_PROTOCOLS
        from repro.sim.runner import SYNC_PROTOCOLS

        assert (
            self._choices("batch", "protocols")
            == SYNC_PROTOCOLS + ASYNCHRONOUS_PROTOCOLS
        )

    def test_registry_rivals_are_reachable(self):
        # The tournament rivals must be selectable everywhere a sync
        # protocol can be chosen.
        for command, dest in (
            ("run-sync", "protocol"),
            ("compare", "protocols"),
            ("tournament", "protocols"),
            ("batch", "protocols"),
        ):
            choices = self._choices(command, dest)
            for rival in ("mcdis", "robust_staged", "robust_flat"):
                assert rival in choices, (command, rival)


class TestTournamentCommand:
    TINY = [
        "tournament",
        "--trials", "2",
        "--max-slots", "10000",
        "--protocols", "algorithm3", "mcdis",
    ]

    def test_arg_parsing_defaults(self):
        from repro.analysis.tournament import DEFAULT_MAX_SLOTS, DEFAULT_TRIALS
        from repro.sim.runner import SYNC_PROTOCOLS

        args = build_parser().parse_args(["tournament"])
        assert tuple(args.protocols) == SYNC_PROTOCOLS
        assert args.trials == DEFAULT_TRIALS
        assert args.max_slots == DEFAULT_MAX_SLOTS
        assert args.seed == 0
        assert args.workers == 1
        assert args.backend == "auto"
        assert args.output is None

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["tournament", "--protocols", "algorithm3", "warp_drive"]
            )

    def test_small_league_prints_tables(self, capsys):
        assert main(self.TINY) == 0
        out = capsys.readouterr().out
        assert "league totals" in out
        assert "algorithm3" in out
        assert "mcdis" in out
        assert "clique_clean" in out

    def test_output_archives_league(self, tmp_path, capsys):
        out = tmp_path / "league"
        assert main(self.TINY + ["--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert str(out) in captured.err
        names = sorted(p.name for p in out.iterdir())
        assert "manifest.json" in names
        assert "clique_clean__mcdis.json" in names

    def test_deterministic_across_invocations(self, capsys):
        assert main(self.TINY) == 0
        first = capsys.readouterr().out
        assert main(self.TINY) == 0
        assert capsys.readouterr().out == first


class TestVerifyArchiveCommand:
    def _archive(self, tmp_path):
        out = tmp_path / "archive"
        assert (
            main(
                [
                    "batch",
                    "rural_sparse",
                    "--trials", "1",
                    "--max-slots", "50000",
                    "--protocols", "algorithm3",
                    "--output", str(out),
                ]
            )
            == 0
        )
        return out

    def test_intact_archive_verifies(self, tmp_path, capsys):
        out = self._archive(tmp_path)
        capsys.readouterr()
        assert main(["verify-archive", str(out)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_truncated_archive_flagged(self, tmp_path, capsys):
        out = self._archive(tmp_path)
        target = out / "rural_sparse_algorithm3.json"
        target.write_bytes(target.read_bytes()[:-20])
        capsys.readouterr()
        assert main(["verify-archive", str(out)]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_missing_directory_flagged(self, tmp_path, capsys):
        assert main(["verify-archive", str(tmp_path / "nope")]) == 1
        assert "CORRUPT" in capsys.readouterr().err

    def test_json_report_intact(self, tmp_path, capsys):
        out = self._archive(tmp_path)
        capsys.readouterr()
        assert main(["verify-archive", str(out), "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["issues"] == []
        assert report["files_checked"] >= 2
        assert report["directory"] == str(out)

    def test_json_report_corrupt(self, tmp_path, capsys):
        out = self._archive(tmp_path)
        target = out / "rural_sparse_algorithm3.json"
        target.write_bytes(target.read_bytes()[:-20])
        capsys.readouterr()
        assert main(["verify-archive", str(out), "--json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        kinds = {issue["kind"] for issue in report["issues"]}
        assert "checksum_mismatch" in kinds
