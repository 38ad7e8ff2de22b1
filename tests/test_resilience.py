"""Tests for the resilience building blocks: atomic writes, hashing,
retry policy, chaos plans, checkpoint journals and archive verification."""

from __future__ import annotations

import builtins
import collections
import io
import json
import os

import numpy as np
import pytest

from repro.exceptions import ArchiveCorruptionError, ConfigurationError
from repro.resilience import (
    ChaosEvent,
    ChaosInjectedFailure,
    ChaosPlan,
    RetryPolicy,
    TrialJournal,
    VerificationReport,
    atomic_write_text,
    backoff_delay,
    campaign_fingerprint,
    flip_byte,
    journal_path,
    parse_chaos_spec,
    sha256_of_bytes,
    sha256_of_file,
    sha256_of_text,
    truncate_file,
    verify_archive,
)
from repro.resilience.verify import ARCHIVE_SCHEMA_VERSION


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_text(target, '{"a": 1}\n')
        assert target.read_text() == '{"a": 1}\n'

    def test_creates_parent_directories(self, tmp_path):
        target = tmp_path / "deep" / "nested" / "out.txt"
        atomic_write_text(target, "x")
        assert target.read_text() == "x"

    def test_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"

    def test_no_tmp_litter_on_success(self, tmp_path):
        atomic_write_text(tmp_path / "out.txt", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]

    def test_failed_write_leaves_no_tmp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.txt"
        target.write_text("old")
        monkeypatch.setattr(os, "replace", _boom)
        with pytest.raises(RuntimeError):
            atomic_write_text(target, "new")
        assert target.read_text() == "old"
        assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def _boom(*_args):
    raise RuntimeError("injected rename failure")


class TestHashes:
    def test_text_matches_bytes(self):
        assert sha256_of_text("abc") == sha256_of_bytes(b"abc")

    def test_file_matches_text(self, tmp_path):
        target = tmp_path / "f.txt"
        atomic_write_text(target, "payload")
        assert sha256_of_file(target) == sha256_of_text("payload")


class TestRetryPolicy:
    def test_defaults_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 2
        assert policy.quarantine

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay": -0.1},
            {"backoff_factor": 0.5},
            {"jitter": -0.1},
            {"max_total_retries": -1},
            {"pool_downgrade_after": 0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            RetryPolicy(**kwargs)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base_delay=0.1, backoff_factor=2.0, max_delay=0.5, jitter=0.0)
        rng = np.random.default_rng(0)
        delays = [backoff_delay(policy, a, rng) for a in range(5)]
        assert delays[:3] == [pytest.approx(0.1), pytest.approx(0.2), pytest.approx(0.4)]
        assert delays[3] == delays[4] == pytest.approx(0.5)

    def test_jitter_is_seeded(self):
        policy = RetryPolicy(jitter=0.5)
        a = [backoff_delay(policy, i, np.random.default_rng(7)) for i in range(3)]
        b = [backoff_delay(policy, i, np.random.default_rng(7)) for i in range(3)]
        assert a == b

    def test_negative_attempt_rejected(self):
        with pytest.raises(ConfigurationError):
            backoff_delay(RetryPolicy(), -1, np.random.default_rng(0))


class TestChaosPlan:
    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            ChaosEvent(trial=-1)
        with pytest.raises(ConfigurationError):
            ChaosEvent(trial=0, mode="explode")
        with pytest.raises(ConfigurationError):
            ChaosEvent(trial=0, times=0)

    def test_fires_counts_attempts(self):
        event = ChaosEvent(trial=3, times=2)
        assert event.fires(0) and event.fires(1) and not event.fires(2)
        assert ChaosEvent(trial=3, times=-1).fires(10**6)

    def test_strike_raises_for_covered_chunk(self):
        plan = ChaosPlan(events=(ChaosEvent(trial=3, mode="raise"),))
        with pytest.raises(ChaosInjectedFailure):
            plan.strike((2, 3), attempt=0)
        plan.strike((2, 3), attempt=1)  # recovered
        plan.strike((0, 1), attempt=0)  # other chunk untouched

    def test_exit_mode_degrades_in_parent_process(self):
        # Outside a pool worker an exit event must not kill the test
        # process; it degrades to a soft failure.
        plan = ChaosPlan(events=(ChaosEvent(trial=0, mode="exit"),))
        with pytest.raises(ChaosInjectedFailure):
            plan.strike((0,), attempt=0)

    def test_timeout_mode_is_collection_side(self):
        plan = ChaosPlan(events=(ChaosEvent(trial=1, mode="timeout"),))
        plan.strike((1,), attempt=0)  # no-op in the worker
        assert plan.times_out((0, 1), attempt=0)
        assert not plan.times_out((0, 1), attempt=1)

    def test_parse_spec(self):
        plan = parse_chaos_spec("raise@3, exit@0x2, timeout@5x-1")
        assert plan.events == (
            ChaosEvent(trial=3, mode="raise", times=1),
            ChaosEvent(trial=0, mode="exit", times=2),
            ChaosEvent(trial=5, mode="timeout", times=-1),
        )

    @pytest.mark.parametrize("spec", ["", "bad@1", "raise@", "raise@1x0", "@3"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_chaos_spec(spec)


class TestTamperHelpers:
    def test_truncate(self, tmp_path):
        f = tmp_path / "f.bin"
        f.write_bytes(b"0123456789")
        truncate_file(f, 4)
        assert f.read_bytes() == b"0123"

    def test_flip_byte(self, tmp_path):
        f = tmp_path / "f.bin"
        f.write_bytes(b"\x00\x00")
        flip_byte(f, 1)
        assert f.read_bytes() == b"\x00\xff"
        with pytest.raises(ConfigurationError):
            flip_byte(f, 5)


FP = campaign_fingerprint({"name": "e1", "trials": 3})


class TestTrialJournal:
    def test_round_trip(self, tmp_path):
        with TrialJournal.open(tmp_path, "e1", FP) as journal:
            assert journal.restored == {}
            journal.record(0, {"completed": True})
            journal.record(2, {"completed": False})
        reopened = TrialJournal.open(tmp_path, "e1", FP)
        assert reopened.restored == {0: {"completed": True}, 2: {"completed": False}}
        reopened.close()

    def test_fingerprint_is_order_independent(self):
        assert campaign_fingerprint({"a": 1, "b": 2}) == campaign_fingerprint(
            {"b": 2, "a": 1}
        )

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        TrialJournal.open(tmp_path, "e1", FP).close()
        with pytest.raises(ConfigurationError):
            TrialJournal.open(tmp_path, "e1", campaign_fingerprint({"other": 1}))

    def test_torn_final_line_tolerated(self, tmp_path):
        with TrialJournal.open(tmp_path, "e1", FP) as journal:
            journal.record(0, {"ok": 1})
        path = journal_path(tmp_path, "e1")
        with open(path, "a") as handle:
            handle.write('{"kind": "trial", "trial": 1, "resu')  # kill mid-append
        reopened = TrialJournal.open(tmp_path, "e1", FP)
        assert reopened.restored == {0: {"ok": 1}}
        reopened.close()

    def test_mid_file_corruption_rejected(self, tmp_path):
        with TrialJournal.open(tmp_path, "e1", FP) as journal:
            journal.record(0, {"ok": 1})
            journal.record(1, {"ok": 1})
        path = journal_path(tmp_path, "e1")
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:10]  # corrupt a non-final record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArchiveCorruptionError):
            TrialJournal.open(tmp_path, "e1", FP)

    def test_missing_header_rejected(self, tmp_path):
        path = journal_path(tmp_path, "e1")
        path.write_text('{"kind": "trial", "trial": 0, "result": {}}\n')
        with pytest.raises(ArchiveCorruptionError):
            TrialJournal.open(tmp_path, "e1", FP)

    def test_duplicate_trial_last_wins(self, tmp_path):
        with TrialJournal.open(tmp_path, "e1", FP) as journal:
            journal.record(0, {"v": 1})
            journal.record(0, {"v": 2})
        reopened = TrialJournal.open(tmp_path, "e1", FP)
        assert reopened.restored == {0: {"v": 2}}
        reopened.close()

    def test_record_after_close_rejected(self, tmp_path):
        journal = TrialJournal.open(tmp_path, "e1", FP)
        journal.close()
        with pytest.raises(ConfigurationError):
            journal.record(0, {})


def _write_archive(out, *, payloads):
    """Minimal format-2 archive for verification tests."""
    manifest = {
        "schema_version": ARCHIVE_SCHEMA_VERSION,
        "base_seed": 0,
        "experiments": [],
    }
    for name, payload in payloads.items():
        text = json.dumps(
            {"schema_version": ARCHIVE_SCHEMA_VERSION, **payload},
            indent=2,
            sort_keys=True,
        )
        atomic_write_text(out / f"{name}.json", text)
        manifest["experiments"].append(
            {"name": name, "file": f"{name}.json", "sha256": sha256_of_text(text)}
        )
    atomic_write_text(
        out / "manifest.json", json.dumps(manifest, indent=2, sort_keys=True)
    )


class TestVerifyArchive:
    def test_clean_archive_ok(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        report = verify_archive(tmp_path)
        assert report.ok
        assert report.files_checked == 2
        report.raise_if_corrupt()  # no-op when clean

    def test_missing_directory(self, tmp_path):
        report = verify_archive(tmp_path / "nope")
        assert [i.kind for i in report.issues] == ["missing"]

    def test_missing_manifest(self, tmp_path):
        report = verify_archive(tmp_path)
        assert [i.kind for i in report.issues] == ["missing"]

    def test_truncated_experiment_file(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        truncate_file(tmp_path / "e1.json", 20)
        kinds = {i.kind for i in verify_archive(tmp_path).issues}
        assert "truncated" in kinds and "checksum_mismatch" in kinds

    def test_bit_flip_detected(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        # Flip inside a JSON string value so the file still parses: only
        # the checksum can catch it.
        text = (tmp_path / "e1.json").read_text()
        index = text.index('"trials"') + 1
        flip_byte(tmp_path / "e1.json", index)
        report = verify_archive(tmp_path)
        assert any(i.kind == "checksum_mismatch" for i in report.issues)

    def test_truncated_manifest(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        truncate_file(tmp_path / "manifest.json", 30)
        report = verify_archive(tmp_path)
        kinds = [i.kind for i in report.issues]
        assert "truncated" in kinds

    def test_missing_experiment_file(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        (tmp_path / "e1.json").unlink()
        assert [i.kind for i in verify_archive(tmp_path).issues] == ["missing"]

    def test_orphan_detected_and_journal_exempt(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        (tmp_path / "stray.json").write_text("{}")
        TrialJournal.open(tmp_path, "e1", FP).close()
        report = verify_archive(tmp_path)
        assert [(i.kind, i.file) for i in report.issues] == [("orphan", "stray.json")]

    def test_old_schema_flagged(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        del manifest["schema_version"]
        (tmp_path / "manifest.json").write_text(
            json.dumps(manifest, indent=2, sort_keys=True)
        )
        report = verify_archive(tmp_path)
        assert any(i.kind == "schema" for i in report.issues)

    def test_each_experiment_file_read_once(self, tmp_path, monkeypatch):
        # The checksum and the parse share one read of each file.
        _write_archive(
            tmp_path, payloads={"e1": {"trials": []}, "e2": {"trials": [1, 2]}}
        )
        opened = collections.Counter()
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened[os.path.basename(file)] += 1
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        assert verify_archive(tmp_path).ok
        assert opened["e1.json"] == opened["e2.json"] == 1

    def test_non_utf8_experiment_file(self, tmp_path):
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        (tmp_path / "e1.json").write_bytes(b'{"schema_version": "\xff"}')
        kinds = sorted(i.kind for i in verify_archive(tmp_path).issues)
        assert kinds == ["checksum_mismatch", "truncated"]

    def test_raise_if_corrupt(self, tmp_path):
        report = VerificationReport(directory=tmp_path)
        report.raise_if_corrupt()
        _write_archive(tmp_path, payloads={"e1": {"trials": []}})
        truncate_file(tmp_path / "e1.json", 5)
        with pytest.raises(ArchiveCorruptionError):
            verify_archive(tmp_path).raise_if_corrupt()
