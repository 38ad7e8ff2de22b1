"""Self-verification of campaign archives.

:func:`repro.sim.batch.run_batch` writes format-2 archives: every
per-experiment payload carries a ``schema_version`` and the manifest
records a SHA-256 content hash per file. :func:`verify_archive` replays
those commitments against the bytes on disk and reports every violation
it finds:

* a missing or unparseable ``manifest.json`` (truncation shows up here
  first — a torn JSON file no longer parses);
* a manifest or payload ``schema_version`` this code does not know;
* experiment files that are missing, fail their recorded checksum
  (bit rot, manual edits), or no longer parse;
* orphan ``*.json`` files the manifest never mentions (a stale or
  foreign archive mixed into the directory).

Checkpoint journals (``*.journal.jsonl``) are exempt — a checkpoint
directory may double as the output directory, and journals carry their
own integrity story (:mod:`repro.resilience.checkpoint`).

The checker never raises on a corrupt archive — it reports, so one bad
file cannot hide the others; callers wanting an exception use
:meth:`VerificationReport.raise_if_corrupt`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

from ..exceptions import ArchiveCorruptionError
from .atomic import sha256_of_bytes
from .checkpoint import JOURNAL_SUFFIX

__all__ = [
    "ARCHIVE_SCHEMA_VERSION",
    "VerificationIssue",
    "VerificationReport",
    "verify_archive",
]

#: Archive format written by :func:`repro.sim.batch.run_batch` and
#: understood by :func:`verify_archive`. Version 2 added per-payload
#: ``schema_version`` stamps and per-file SHA-256 hashes to the
#: manifest; version-1 archives (no ``schema_version`` key) predate
#: self-verification and are reported as unverifiable.
ARCHIVE_SCHEMA_VERSION = 2


@dataclass(frozen=True)
class VerificationIssue:
    """One verification failure, tied to the file that exhibits it."""

    kind: str  # missing | truncated | checksum_mismatch | orphan | schema
    file: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.file}: {self.detail}"

    def as_dict(self) -> Dict[str, str]:
        """JSON form for machine consumers (``m2hew verify-archive --json``)."""
        return {"kind": self.kind, "file": self.file, "detail": self.detail}


@dataclass
class VerificationReport:
    """Everything :func:`verify_archive` found in one archive directory."""

    directory: Path
    issues: List[VerificationIssue] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        """Whether the archive passed every check."""
        return not self.issues

    def raise_if_corrupt(self) -> None:
        """Raise :class:`ArchiveCorruptionError` unless the archive is clean."""
        if self.issues:
            listing = "; ".join(str(issue) for issue in self.issues)
            raise ArchiveCorruptionError(
                f"archive {self.directory} failed verification "
                f"({len(self.issues)} issue(s)): {listing}"
            )

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form of the full report.

        The shape is a stable contract consumed by ``m2hew
        verify-archive --json``, the campaign service's result endpoint
        and CI: ``{"directory", "ok", "files_checked", "issues": [
        {"kind", "file", "detail"}, ...]}``.
        """
        return {
            "directory": str(self.directory),
            "ok": self.ok,
            "files_checked": self.files_checked,
            "issues": [issue.as_dict() for issue in self.issues],
        }

    def to_json(self) -> str:
        """:meth:`as_dict` rendered as deterministic (sorted-key) JSON."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)


def verify_archive(directory: Union[str, Path]) -> VerificationReport:
    """Check a ``run_batch`` archive directory against its manifest.

    Returns a report rather than raising, so every problem in the
    directory is surfaced in one pass.
    """
    out = Path(directory)
    report = VerificationReport(directory=out)
    if not out.is_dir():
        report.issues.append(
            VerificationIssue(
                kind="missing", file=str(out), detail="not a directory"
            )
        )
        return report

    manifest = _load_manifest(out, report)
    referenced = {"manifest.json"}
    if manifest is not None:
        for entry in manifest.get("experiments", []):
            name = entry.get("file", "")
            referenced.add(name)
            _verify_experiment_file(out, entry, report)

    for path in sorted(out.glob("*.json")):
        if path.name in referenced or path.name.endswith(JOURNAL_SUFFIX):
            continue
        report.issues.append(
            VerificationIssue(
                kind="orphan",
                file=path.name,
                detail="file is not referenced by manifest.json",
            )
        )
    return report


def _load_manifest(
    out: Path, report: VerificationReport
) -> "Dict[str, Any] | None":
    path = out / "manifest.json"
    if not path.is_file():
        report.issues.append(
            VerificationIssue(
                kind="missing", file="manifest.json", detail="file not found"
            )
        )
        return None
    report.files_checked += 1
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        report.issues.append(
            VerificationIssue(
                kind="truncated",
                file="manifest.json",
                detail=f"does not parse as JSON ({exc})",
            )
        )
        return None
    version = manifest.get("schema_version")
    if version != ARCHIVE_SCHEMA_VERSION:
        report.issues.append(
            VerificationIssue(
                kind="schema",
                file="manifest.json",
                detail=(
                    f"schema_version {version!r} is not the supported "
                    f"{ARCHIVE_SCHEMA_VERSION} (pre-verification archive?)"
                ),
            )
        )
        # The file list may still be usable; keep checking with it.
    return manifest if isinstance(manifest.get("experiments"), list) else manifest


def _verify_experiment_file(
    out: Path, entry: Dict[str, Any], report: VerificationReport
) -> None:
    name = entry.get("file")
    if not isinstance(name, str) or not name:
        report.issues.append(
            VerificationIssue(
                kind="schema",
                file="manifest.json",
                detail=f"experiment entry without a file name: {entry!r}",
            )
        )
        return
    path = out / name
    if not path.is_file():
        report.issues.append(
            VerificationIssue(
                kind="missing",
                file=name,
                detail="listed in manifest.json but absent",
            )
        )
        return
    report.files_checked += 1
    # One read serves the hash and the parse.
    data = path.read_bytes()

    expected = entry.get("sha256")
    if not isinstance(expected, str):
        report.issues.append(
            VerificationIssue(
                kind="schema",
                file=name,
                detail="manifest entry carries no sha256 for this file",
            )
        )
    else:
        actual = sha256_of_bytes(data)
        if actual != expected:
            report.issues.append(
                VerificationIssue(
                    kind="checksum_mismatch",
                    file=name,
                    detail=f"sha256 {actual} != manifest {expected}",
                )
            )

    try:
        text = data.decode("utf-8")
        del data  # not held alongside the parsed payload
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        report.issues.append(
            VerificationIssue(
                kind="truncated",
                file=name,
                detail=f"does not parse as JSON ({exc})",
            )
        )
        return
    version = payload.get("schema_version") if isinstance(payload, dict) else None
    if version != ARCHIVE_SCHEMA_VERSION:
        report.issues.append(
            VerificationIssue(
                kind="schema",
                file=name,
                detail=(
                    f"payload schema_version {version!r} is not the "
                    f"supported {ARCHIVE_SCHEMA_VERSION}"
                ),
            )
        )
