"""Resilient campaign execution.

Everything that keeps a long seeded campaign alive and its archives
trustworthy when the execution substrate misbehaves:

* :mod:`~repro.resilience.supervisor` — the one dispatch path every
  campaign runs through: fail-fast by default, or per-chunk retries
  with seeded backoff, quarantine of trials that exhaust their budget,
  graceful pool/vectorized degradation;
* :mod:`~repro.resilience.executor` — the chunk-executor interface the
  supervisor dispatches through (pool, in-process, distributed);
* :mod:`~repro.resilience.distributed` — multi-host campaign sharding:
  a file-based lease queue with worker heartbeats, dead-lease
  reclamation and crash-tolerant work stealing (``m2hew worker``);
* :mod:`~repro.resilience.policy` — the knobs for the above;
* :mod:`~repro.resilience.checkpoint` — append-only per-trial journals
  enabling ``m2hew batch --resume``;
* :mod:`~repro.resilience.verify` — self-verification of format-2
  archives (checksums, schema stamps, orphan detection);
* :mod:`~repro.resilience.atomic` — crash-safe file writes shared by
  all of the above;
* :mod:`~repro.resilience.chaos` — deterministic execution-layer fault
  injection for testing all of the above.

The guiding invariant: recovery may change *how* trials execute, never
*what* they compute —
a campaign that retried, degraded or resumed archives byte-identical
results to one that ran clean.
"""

from .atomic import atomic_write_text, sha256_of_bytes, sha256_of_file, sha256_of_text
from .chaos import (
    CHAOS_MODES,
    ChaosEvent,
    ChaosInjectedFailure,
    ChaosPlan,
    flip_byte,
    parse_chaos_spec,
    truncate_file,
)
from .checkpoint import (
    JOURNAL_SCHEMA_VERSION,
    JOURNAL_SUFFIX,
    TrialJournal,
    campaign_fingerprint,
    journal_path,
    load_sidecar,
)
from .distributed import (
    DISTRIBUTED_BACKEND,
    QUEUE_SCHEMA_VERSION,
    DistributedChunkExecutor,
    LeasePolicy,
    QueueWorker,
    RemoteWorkerFailure,
    WorkQueue,
    run_worker,
)
from .executor import ChunkExecutor, InProcessChunkExecutor, PooledChunkExecutor
from .policy import RetryPolicy, backoff_delay
from .supervisor import (
    ARCHIVED_EVENT_KINDS,
    GroupEntry,
    QuarantinedTrial,
    SupervisedTrials,
    SupervisorEvent,
    run_supervised_trials,
    run_trial_group,
)
from .verify import (
    ARCHIVE_SCHEMA_VERSION,
    VerificationIssue,
    VerificationReport,
    verify_archive,
)

__all__ = [
    "ARCHIVED_EVENT_KINDS",
    "ARCHIVE_SCHEMA_VERSION",
    "CHAOS_MODES",
    "ChaosEvent",
    "ChaosInjectedFailure",
    "ChaosPlan",
    "ChunkExecutor",
    "DISTRIBUTED_BACKEND",
    "DistributedChunkExecutor",
    "GroupEntry",
    "InProcessChunkExecutor",
    "JOURNAL_SCHEMA_VERSION",
    "JOURNAL_SUFFIX",
    "LeasePolicy",
    "PooledChunkExecutor",
    "QUEUE_SCHEMA_VERSION",
    "QuarantinedTrial",
    "QueueWorker",
    "RemoteWorkerFailure",
    "RetryPolicy",
    "SupervisedTrials",
    "SupervisorEvent",
    "TrialJournal",
    "VerificationIssue",
    "VerificationReport",
    "WorkQueue",
    "atomic_write_text",
    "backoff_delay",
    "campaign_fingerprint",
    "flip_byte",
    "journal_path",
    "load_sidecar",
    "parse_chaos_spec",
    "run_supervised_trials",
    "run_trial_group",
    "run_worker",
    "sha256_of_bytes",
    "sha256_of_file",
    "sha256_of_text",
    "truncate_file",
    "verify_archive",
]
