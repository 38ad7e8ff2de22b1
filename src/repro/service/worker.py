"""Job execution: the queue-driven face of the resilience supervisor.

:func:`execute_job` turns one queued :class:`~repro.service.jobs.CampaignJob`
into a verified archive in the result store. It is a thin, idempotent
wrapper around :func:`~repro.sim.batch.run_batch` run *supervised*:

* the checkpoint directory is keyed by the campaign **fingerprint**
  (not the job id), so any later job for the same campaign — including
  the re-queued job of a killed server — resumes from the journals
  instead of recomputing completed trials;
* the archive is written straight into the store slot for that
  fingerprint and verified before the function returns; a kill during
  the archive write leaves a partial directory that fails verification
  and is discarded on the next lookup, which recomputes (instantly,
  from the journals);
* cancellation is cooperative: the ``cancelled`` probe is checked at
  every progress point and unwinds via
  :class:`~repro.exceptions.JobCancelledError`, keeping every journaled
  trial.

Because the specs come from :func:`~repro.service.campaigns.campaign_specs`
— the same expansion ``m2hew batch`` uses — and ``run_batch``'s output
is execution-invariant, the stored archive is byte-identical to a
direct CLI run of the same parameters.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Union

from ..exceptions import ConfigurationError, JobCancelledError
from ..resilience.policy import RetryPolicy
from ..sim.batch import batch_fingerprint, run_batch
from .campaigns import campaign_specs
from .jobs import CampaignJob
from .store import ResultStore

__all__ = ["ExecutionResult", "execute_job"]


@dataclass(frozen=True)
class ExecutionResult:
    """What executing (or short-circuiting) one job produced.

    Attributes:
        archive: The verified archive directory inside the store.
        cached: True when the store already held a verified archive and
            nothing ran.
        restored: Trials restored from checkpoint journals rather than
            executed (0 for fresh runs and cache hits).
    """

    archive: Path
    cached: bool
    restored: int


def execute_job(
    job: CampaignJob,
    *,
    store: ResultStore,
    checkpoint_root: Union[str, Path],
    retry: Optional[RetryPolicy] = None,
    max_workers: int = 1,
    chunk_size: Optional[int] = 1,
    on_progress: Optional[Callable[[str, int, int], None]] = None,
    cancelled: Optional[Callable[[], bool]] = None,
    queue_dir: Optional[Union[str, Path]] = None,
) -> ExecutionResult:
    """Run one job to a verified archive in the store.

    Args:
        job: The job to execute; its fingerprint must match its request
            (defense against tampered persisted records).
        store: Result store the archive lands in.
        checkpoint_root: Directory holding per-fingerprint checkpoint
            journal directories.
        retry: Supervision policy (default: a standard
            :class:`~repro.resilience.policy.RetryPolicy`).
        max_workers: Trial fan-out processes per campaign (a pool
            when more than 1; none with ``queue_dir``).
        chunk_size: Trials per dispatch unit. The default of 1 gives
            per-trial journaling and progress granularity — archives
            are chunking-invariant, so this is a latency knob only.
        on_progress: Observer receiving ``(experiment, completed,
            total)`` as trials complete (after journaling).
        cancelled: Probe polled at every progress point; returning True
            aborts via :class:`~repro.exceptions.JobCancelledError`.
        queue_dir: Shared work-queue directory. When set, trial chunks
            are published for ``m2hew worker`` processes (any host
            sharing the directory) instead of running in-process — see
            :mod:`repro.resilience.distributed`. Archives stay
            byte-identical either way, so this changes job latency,
            never job output.

    Raises:
        JobCancelledError: The probe reported cancellation.
        ConfigurationError: The job's fingerprint does not match its
            request.
        ArchiveCorruptionError: The archive failed its post-write
            verification (disk-level trouble).
    """
    specs = campaign_specs(job.request)
    fingerprint = batch_fingerprint(specs, job.request.base_seed)
    if fingerprint != job.fingerprint:
        raise ConfigurationError(
            f"job {job.job_id}: stored fingerprint {job.fingerprint[:12]}… "
            f"does not match its request ({fingerprint[:12]}…); "
            "refusing to execute a tampered job record"
        )

    def check_cancelled() -> None:
        if cancelled is not None and cancelled():
            raise JobCancelledError(f"job {job.job_id} was cancelled")

    check_cancelled()
    cached = store.lookup(fingerprint)
    if cached is not None:
        return ExecutionResult(archive=cached, cached=True, restored=0)

    def observer(experiment: str, completed: int, total: int) -> None:
        check_cancelled()
        if on_progress is not None:
            on_progress(experiment, completed, total)

    checkpoint_dir = Path(checkpoint_root) / fingerprint
    checkpoint_dir.mkdir(parents=True, exist_ok=True)
    archive_dir = store.path_for(fingerprint)
    outcomes = run_batch(
        specs,
        base_seed=job.request.base_seed,
        output_dir=archive_dir,
        max_workers=max_workers,
        chunk_size=chunk_size,
        retry=retry or RetryPolicy(),
        checkpoint_dir=checkpoint_dir,
        on_progress=observer,
        queue_dir=queue_dir,
    )
    store.verify(fingerprint).raise_if_corrupt()
    store.touch(fingerprint)
    # The archive now carries the campaign; the journals were only ever
    # its in-flight state. Dropping them keeps the data dir bounded.
    shutil.rmtree(checkpoint_dir, ignore_errors=True)
    return ExecutionResult(
        archive=archive_dir,
        cached=False,
        restored=sum(outcome.restored for outcome in outcomes),
    )
