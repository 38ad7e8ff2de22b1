"""Fingerprint-indexed result store with verify-before-serve.

One completed campaign archive lives at ``<directory>/<fingerprint>/``
— exactly the directory :func:`~repro.sim.batch.run_batch` wrote, so
serving it *is* serving ``m2hew batch`` output. The store trusts
nothing it did not just write: every :meth:`lookup` re-verifies the
archive against its manifest checksums
(:func:`~repro.resilience.verify.verify_archive`) and treats a corrupt
archive as a miss, discarding it so the campaign recomputes instead of
serving damaged bytes. File reads are restricted to names the manifest
lists, so the HTTP layer cannot be walked out of an archive directory.

The store can be capped (``max_archives`` / ``max_bytes``): when
:meth:`enforce_limits` runs — the service calls it after every job —
least-recently-used archives are evicted until the caps hold. Recency
is a monotonic *use counter* journaled in ``.lru-index.json`` (atomic
writes, torn-file tolerant via
:func:`~repro.resilience.checkpoint.load_sidecar`), not wall-clock
mtimes, so recency survives restarts and clock steps. Eviction ranks
by recency alone and reads no archive contents: a corrupt archive is
caught by :meth:`lookup` or by the service's ``/result`` check, never
by the eviction pass. Eviction never touches a protected fingerprint
(jobs in flight, the archive just produced).
"""

from __future__ import annotations

import json
import shutil
import threading
from pathlib import Path
from typing import AbstractSet, Dict, List, Optional, Union

from ..exceptions import ConfigurationError
from ..resilience.atomic import atomic_write_text
from ..resilience.checkpoint import load_sidecar
from ..resilience.verify import VerificationReport, verify_archive

__all__ = ["LRU_INDEX_NAME", "ResultStore"]

#: Recency journal, stored next to the archives it ranks. The leading
#: dot keeps it out of ``path_for``'s reachable fingerprint space.
LRU_INDEX_NAME = ".lru-index.json"


class ResultStore:
    """Campaign archives keyed by content fingerprint.

    Args:
        directory: Root directory (one subdirectory per fingerprint).
        max_archives: Keep at most this many archives (``None`` = no
            count cap).
        max_bytes: Keep the archives' total size at or under this
            (``None`` = no size cap). A single archive larger than the
            cap survives until a newer one displaces it.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        max_archives: Optional[int] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        if max_archives is not None and max_archives < 1:
            raise ConfigurationError(
                f"max_archives must be >= 1, got {max_archives}"
            )
        if max_bytes is not None and max_bytes < 1:
            raise ConfigurationError(f"max_bytes must be >= 1, got {max_bytes}")
        self.directory = Path(directory)
        self.max_archives = max_archives
        self.max_bytes = max_bytes
        # The service touches and evicts from its event loop (cache
        # hits, the post-job eviction pass) and touches from job
        # threads (fresh archives); every index read-modify-write holds
        # this lock so none is lost.
        self._index_lock = threading.Lock()

    def path_for(self, fingerprint: str) -> Path:
        """Directory a campaign with this fingerprint archives into."""
        if not fingerprint or "/" in fingerprint or fingerprint.startswith("."):
            raise ConfigurationError(
                f"malformed campaign fingerprint {fingerprint!r}"
            )
        return self.directory / fingerprint

    def verify(self, fingerprint: str) -> VerificationReport:
        """Verification report for a stored archive (missing dir included)."""
        return verify_archive(self.path_for(fingerprint))

    def lookup(self, fingerprint: str) -> Optional[Path]:
        """The archive directory if present *and* verified, else ``None``.

        A present-but-corrupt archive (torn by a kill during the final
        archive write, bit rot, tampering) is discarded so the next
        submission recomputes it — serving unverifiable bytes is never
        an option.
        """
        path = self.path_for(fingerprint)
        if not path.is_dir():
            return None
        if not verify_archive(path).ok:
            self.discard(fingerprint)
            return None
        self.touch(fingerprint)
        return path

    def discard(self, fingerprint: str) -> None:
        """Remove a stored archive (corruption recovery path)."""
        path = self.path_for(fingerprint)
        if path.is_dir():
            shutil.rmtree(path)

    def archive_files(self, fingerprint: str) -> List[str]:
        """The archive's servable file names, manifest first.

        Read from the manifest rather than the filesystem so the
        listing matches what verification covered.
        """
        path = self.path_for(fingerprint)
        manifest = json.loads(
            (path / "manifest.json").read_text(encoding="utf-8")
        )
        names = ["manifest.json"]
        for entry in manifest.get("experiments", []):
            name = entry.get("file")
            if isinstance(name, str) and name:
                names.append(name)
        return names

    def read_file(self, fingerprint: str, name: str) -> bytes:
        """Raw bytes of one archive file; only manifest-listed names."""
        if name not in self.archive_files(fingerprint):
            raise ConfigurationError(
                f"{name!r} is not a file of archive {fingerprint}"
            )
        return (self.path_for(fingerprint) / name).read_bytes()

    # -- recency + eviction ---------------------------------------------

    def _index_path(self) -> Path:
        return self.directory / LRU_INDEX_NAME

    def _load_index(self) -> Dict[str, object]:
        index = load_sidecar(self._index_path())
        if index is None or index.get("kind") != "lru":
            return {"kind": "lru", "counter": 0, "touched": {}}
        if not isinstance(index.get("touched"), dict):
            index["touched"] = {}
        return index

    def _write_index(self, counter: int, touched: Dict[str, int]) -> None:
        atomic_write_text(
            self._index_path(),
            json.dumps(
                {"kind": "lru", "counter": counter, "touched": touched},
                sort_keys=True,
            )
            + "\n",
        )

    def touch(self, fingerprint: str) -> None:
        """Mark a fingerprint as just-used (monotonic counter, not clock)."""
        self.path_for(fingerprint)  # reject malformed names
        with self._index_lock:
            index = self._load_index()
            counter = int(index.get("counter", 0)) + 1  # type: ignore[call-overload]
            touched = dict(index["touched"])  # type: ignore[arg-type]
            touched[fingerprint] = counter
            self._write_index(counter, touched)

    def stored_fingerprints(self) -> List[str]:
        """Fingerprints with an archive directory present, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(
            p.name
            for p in self.directory.iterdir()
            if p.is_dir() and not p.name.startswith(".")
        )

    def total_bytes(self) -> int:
        """Total size of all stored archives (recursive file sizes)."""
        total = 0
        for fingerprint in self.stored_fingerprints():
            total += self._archive_bytes(self.path_for(fingerprint))
        return total

    @staticmethod
    def _archive_bytes(path: Path) -> int:
        return sum(
            f.stat().st_size for f in sorted(path.rglob("*")) if f.is_file()
        )

    def enforce_limits(
        self, protect: AbstractSet[str] = frozenset()
    ) -> List[str]:
        """Evict archives until the configured caps hold.

        Eviction order: least-recently used first (never-touched
        archives rank oldest, ties break by fingerprint). ``protect``
        names fingerprints that must survive regardless — the service
        passes every in-flight job's fingerprint plus the archive it
        just finished, so eviction can never pull a directory out from
        under a running ``run_batch`` or an archive about to be served.

        Returns the evicted fingerprints, in eviction order.
        """
        if self.max_archives is None and self.max_bytes is None:
            return []
        index = self._load_index()
        touched = index["touched"]
        assert isinstance(touched, dict)
        sizes: Dict[str, int] = {}
        for fingerprint in self.stored_fingerprints():
            sizes[fingerprint] = self._archive_bytes(self.path_for(fingerprint))
        candidates = sorted(
            (int(touched.get(fingerprint, 0)), fingerprint)
            for fingerprint in sizes
            if fingerprint not in protect
        )
        evicted: List[str] = []
        count = len(sizes)
        total = sum(sizes.values())
        for _recency, fingerprint in candidates:
            over_count = self.max_archives is not None and count > self.max_archives
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_count or over_bytes):
                break
            self.discard(fingerprint)
            evicted.append(fingerprint)
            count -= 1
            total -= sizes[fingerprint]
        if evicted:
            # Re-read under the lock: touches that job threads made
            # while this pass sized and removed archives must survive.
            with self._index_lock:
                index = self._load_index()
                fresh = index["touched"]
                assert isinstance(fresh, dict)
                self._write_index(
                    int(index.get("counter", 0)),  # type: ignore[call-overload]
                    {
                        fp: tick
                        for fp, tick in sorted(fresh.items())
                        if fp not in evicted
                    },
                )
        return evicted
