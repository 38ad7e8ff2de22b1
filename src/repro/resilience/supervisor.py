"""The one dispatch path: trial groups through the chunk executors.

Every campaign — ``m2hew batch``, ``m2hew serve``, the lease queue, the
fail-fast :func:`repro.sim.parallel.run_spec_trials` — runs through
:func:`run_trial_group`. A *group* is one or more spec points sharing a
realized network; its trial axis is cut into chunks (each a grid chunk
advancing every entry that has trials in it in one kernel pass), and
the chunks execute on a ladder of
:class:`~repro.resilience.executor.ChunkExecutor` rungs. What happens
when a chunk fails is the policy's business:

* **fail fast** (``policy=None``): the first failure raises a typed
  :class:`~repro.exceptions.TrialExecutionError` /
  :class:`~repro.exceptions.TrialTimeoutError` with the chunk's trial
  indices and base seed;
* **retry** a failed chunk with seeded exponential backoff
  (:mod:`repro.resilience.policy`), bounded per chunk and per group;
* **quarantine** trials that keep failing: the campaign completes, and
  the quarantined indices plus their replay seeds are reported to the
  caller (``run_batch`` records them in the manifest);
* **degrade gracefully**: repeated hard worker crashes downgrade the
  pool to in-process execution, which is logged and surfaced as an
  event. A failed grid chunk retries as the same grid chunk; once its
  retries are exhausted its trials re-run one by one, like any chunk's;
* **journal** completed trials per entry to a checkpoint
  (:mod:`repro.resilience.checkpoint`) so a killed campaign resumes
  where it stopped, with archives byte-identical to an uninterrupted
  run.

:func:`run_trial_group` is also the one place that plans a group: with
``queue_dir`` (or ``backend="distributed"``) the chunks go to the
multi-host file-queue coordinator of :mod:`repro.resilience.distributed`
alone; with ``max_workers > 1`` on a host that can run one, to a process
pool, whose leftovers fall through to the in-process loop; otherwise to
the in-process loop, which always finishes.

Determinism: trial ``t`` of every entry always runs from
``derive_trial_seed(base_seed, t)``, results are keyed by entry and
trial index, and retrying re-runs the *same* payload — so neither
retries, nor the worker count, nor grid fusion, nor where a chunk
eventually succeeded can leave a trace in the results. Collection is
strictly in dispatch order (completed-but-uncollected futures of a
broken pool are deliberately discarded rather than racily salvaged), so
the control flow under a deterministic chaos plan is itself
deterministic.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import Any, Callable, List, Mapping, Optional, Sequence, Set

from ..exceptions import ConfigurationError
from ..net.network import M2HeWNetwork
from ..sim import parallel
from ..sim.results import result_from_dict
from ..sim.rng import RngFactory, derive_trial_seed
from .chaos import ChaosPlan
from .checkpoint import TrialJournal
from .executor import (
    ChunkExecutor,
    GroupEntry,
    InProcessChunkExecutor,
    PooledChunkExecutor,
    QuarantinedTrial,
    SupervisedTrials,
    SupervisorEvent,
    _ChunkState,
    _Supervision,
)
from .policy import RetryPolicy

__all__ = [
    "GroupEntry",
    "QuarantinedTrial",
    "SupervisedTrials",
    "SupervisorEvent",
    "run_supervised_trials",
    "run_trial_group",
]

_logger = logging.getLogger("repro.resilience")

#: Event kinds that ``run_batch`` archives in the manifest. Retries and
#: pool rebuilds are operational noise (logged only): archiving them
#: would make a recovered campaign's bytes differ from a clean one's.
#: Distributed events (lease reclaims, worker deaths, local degradation)
#: are likewise operational: a kill schedule must not change archives.
ARCHIVED_EVENT_KINDS = frozenset({"downgrade_pool"})
__all__.append("ARCHIVED_EVENT_KINDS")


def run_trial_group(
    network: M2HeWNetwork,
    entries: Sequence[GroupEntry],
    *,
    base_seed: Optional[int] = 0,
    max_workers: int = 1,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    label: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    journals: Optional[Sequence[Optional[TrialJournal]]] = None,
    chaos: Optional[ChaosPlan] = None,
    sleep: Optional[Callable[[float], None]] = None,
    on_progress: Optional[Callable[[int, int, int], None]] = None,
    queue_dir: Optional[Path] = None,
    lease: Optional[Any] = None,
) -> List[SupervisedTrials]:
    """Run a group of spec points on one network; one outcome per entry.

    The entries' trial axes are chunked jointly and every chunk advances
    all of them in one grid pass (entries the grid kernel cannot take
    run trial by trial inside it). A work queue task carries the whole
    group; its workers re-derive trial seeds from ``base_seed``, which
    must therefore be an integer. ``policy.max_total_retries`` and the
    pool-breakage count are per group, so they span every entry.

    This is the one place that picks the executors and the default
    chunk size. A work queue (``queue_dir``) runs chunks on its lease
    coordinator alone, ``default_chunk_size(trials, 4)`` trials each. A
    pool runs iff ``max_workers > 1``, there is no queue and
    :func:`~repro.sim.parallel.pool_supported`, with
    ``default_chunk_size(trials, max_workers)`` trials per chunk and the
    in-process loop below it for what a degraded pool leaves. Otherwise
    chunks run in-process, one trial each (every trial in one chunk
    under ``backend="vectorized"``).

    The execution options mean what they mean for
    :func:`run_supervised_trials`, except:

    Args:
        label: The group's name in error messages, logs and the backoff
            stream.
        policy: Retry/quarantine/degradation policy; ``None`` fails
            fast on the first failing chunk.
        journals: One open checkpoint journal (or ``None``) per entry.
        on_progress: Observer called with ``(entry index, completed,
            entry trials)``.

    Raises:
        ConfigurationError: No entries, a non-positive trial count, an
            unknown backend, a non-positive worker count or chunk size,
            ``backend="distributed"`` without a ``queue_dir``, a work
            queue given ``base_seed=None``, or a knob the plan would
            ignore: ``trial_timeout`` without a pool, ``lease`` without
            a queue, or ``max_workers > 1`` with a queue.
        TrialExecutionError: Under the fail-fast policy, the first
            failing chunk; otherwise, the retry budget ran out.
        TrialQuarantinedError: A trial exhausted its retries and the
            policy has quarantine disabled.
    """
    # Imported lazily: the distributed module is only needed when a
    # queue is in play, and it reuses this module's public dataclasses.
    from .distributed import (
        DISTRIBUTED_BACKEND,
        DistributedChunkExecutor,
        LeasePolicy,
        WorkQueue,
    )

    if not entries:
        raise ConfigurationError("a trial group needs at least one entry")
    for entry in entries:
        if entry.trials < 1:
            raise ConfigurationError(f"trials must be >= 1, got {entry.trials}")
    accepted = parallel.BACKENDS + (DISTRIBUTED_BACKEND,)
    if backend not in accepted:
        raise ConfigurationError(f"unknown backend {backend!r}; choose from {accepted}")
    if max_workers < 1:
        raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be >= 1, got {chunk_size}")
    distributed = queue_dir is not None or backend == DISTRIBUTED_BACKEND
    if distributed and queue_dir is None:
        raise ConfigurationError(
            "backend 'distributed' needs a shared queue directory "
            "(queue_dir= / --queue)"
        )
    if distributed and base_seed is None:
        raise ConfigurationError(
            "a work queue needs an integer base_seed: its workers "
            "re-derive every trial seed from it, so base_seed=None "
            "would draw fresh entropy on every execution"
        )
    # Refuse the knobs the chosen executors would silently ignore.
    if distributed and max_workers > 1:
        raise ConfigurationError(
            "a work queue runs its chunks on 'm2hew worker' processes, "
            "never on a local pool; drop max_workers > 1 (--workers) or "
            "the queue"
        )
    if lease is not None and not distributed:
        raise ConfigurationError(
            "a lease policy (--lease-ttl) applies only to a work queue "
            "(queue_dir= / --queue)"
        )
    pooled = not distributed and max_workers > 1 and parallel.pool_supported()
    if trial_timeout is not None and not pooled:
        raise ConfigurationError(
            "a trial timeout is enforced only on a process pool; pass "
            "max_workers > 1 (--workers N) on a host that can run one"
        )
    trials = max(entry.trials for entry in entries)
    if chunk_size is None:
        if distributed:  # fewer, larger leases for workers to steal
            chunk_size = parallel.default_chunk_size(trials, 4)
        elif pooled:
            chunk_size = parallel.default_chunk_size(trials, max_workers)
        else:
            chunk_size = trials if backend == "vectorized" else 1
    seeds = [derive_trial_seed(base_seed, t) for t in range(trials)]
    journal_list: List[Optional[TrialJournal]] = (
        list(journals) if journals is not None else [None] * len(entries)
    )

    outcomes = [
        SupervisedTrials(
            experiment=entry.experiment, trials=entry.trials, base_seed=base_seed
        )
        for entry in entries
    ]
    for j, (outcome, journal) in enumerate(zip(outcomes, journal_list)):
        if journal is not None and journal.restored:
            for trial, payload in sorted(journal.restored.items()):
                if 0 <= trial < outcome.trials:
                    outcome.completed[trial] = result_from_dict(payload)
            outcome.restored = len(outcome.completed)
        if outcome.restored and on_progress is not None:
            on_progress(j, outcome.restored, outcome.trials)

    todo = [
        {t for t in range(o.trials) if t not in o.completed} for o in outcomes
    ]
    states = _chunk_states(todo, chunk_size)
    if not states:
        return outcomes
    restored = sum(o.restored for o in outcomes)
    if restored:
        _logger.info(
            "[%s] resume: %d trial(s) restored from checkpoint, %d to run",
            label or "-",
            restored,
            sum(len(t) for t in todo),
        )

    supervision = _Supervision(
        network=network,
        entries=entries,
        outcomes=outcomes,
        seeds=seeds,
        label=label,
        base_seed=base_seed,
        policy=policy,
        journals=journal_list,
        chaos=chaos,
        sleep=sleep if sleep is not None else time.sleep,
        jitter_rng=RngFactory(base_seed).stream(f"resilience/backoff/{label or ''}"),
        on_progress=on_progress,
    )
    ladder: List[ChunkExecutor] = [InProcessChunkExecutor()]
    if distributed:  # returns only once every chunk is done
        assert queue_dir is not None
        lease = lease if isinstance(lease, LeasePolicy) else LeasePolicy()
        ladder = [DistributedChunkExecutor(WorkQueue(Path(queue_dir)), lease)]
    elif pooled:
        ladder.insert(0, PooledChunkExecutor(max_workers, trial_timeout))
    for rung in ladder:
        if any(not s.done for s in states):
            rung.run(states, supervision)
    return outcomes


def _chunk_states(todo: Sequence[Set[int]], chunk_size: int) -> List[_ChunkState]:
    """Cut the group's pending trials into dispatch chunks.

    The trial axis is chunked jointly — contiguous runs of the pending
    trial indices, over every entry — and each chunk runs, for every
    entry, the trials among its indices that entry still needs.
    """
    pending = sorted({t for needed in todo for t in needed})
    states = []
    for lo in range(0, len(pending), chunk_size):
        indices = tuple(pending[lo : lo + chunk_size])
        cells = []
        for j, needed in enumerate(todo):
            trials = tuple(t for t in indices if t in needed)
            if trials:
                cells.append((j, trials))
        states.append(_ChunkState(indices=indices, cells=tuple(cells)))
    return states


def run_supervised_trials(
    network: M2HeWNetwork,
    protocol: str,
    *,
    trials: int,
    base_seed: Optional[int] = 0,
    runner_params: Optional[Mapping[str, Any]] = None,
    max_workers: int = 1,
    backend: str = "auto",
    chunk_size: Optional[int] = None,
    trial_timeout: Optional[float] = None,
    experiment: Optional[str] = None,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[TrialJournal] = None,
    chaos: Optional[ChaosPlan] = None,
    sleep: Optional[Callable[[float], None]] = None,
    on_progress: Optional[Callable[[int, int], None]] = None,
    queue_dir: Optional[Path] = None,
    lease: Optional[Any] = None,
) -> SupervisedTrials:
    """Run ``trials`` seeded trials of one spec point under supervision.

    Accepts every execution option of
    :func:`~repro.sim.parallel.run_spec_trials` plus:

    Args:
        policy: Retry/quarantine/degradation policy (default
            :class:`~repro.resilience.policy.RetryPolicy`).
        journal: Open checkpoint journal; its restored trials are
            skipped and every fresh trial is appended on completion.
        chaos: Deterministic execution-layer fault plan (tests, drills).
        sleep: Replacement for :func:`time.sleep` (tests).
        on_progress: Optional observer called with ``(completed,
            trials)`` — once for the journal-restored trials (if any),
            then after every chunk recorded and every trial recovered
            in isolation. Never called before the journal holds the
            reported trials; an exception it raises aborts the campaign
            (cooperative cancellation).
        queue_dir: Shared work-queue directory. When set (or when
            ``backend="distributed"``), chunks are published to the
            queue and claimed by ``m2hew worker`` processes on any
            host; this process coordinates (absorbs results, reclaims
            dead leases) and degrades to executing chunks itself when
            no live remote worker exists. It takes no ``max_workers >
            1``: the queue's workers are the fan-out.
        lease: :class:`~repro.resilience.distributed.LeasePolicy`
            overriding lease TTL / heartbeat / poll cadence; only with
            ``queue_dir``.

    Raises:
        ConfigurationError: An invalid option or a knob the plan would
            ignore (see :func:`run_trial_group`).
        TrialQuarantinedError: A trial exhausted its retries and the
            policy has quarantine disabled.
        TrialExecutionError: The campaign-wide retry budget ran out.
    """
    (outcome,) = run_trial_group(
        network,
        [GroupEntry(experiment, protocol, trials, dict(runner_params or {}))],
        base_seed=base_seed,
        max_workers=max_workers,
        backend=backend,
        chunk_size=chunk_size,
        trial_timeout=trial_timeout,
        label=experiment,
        policy=policy or RetryPolicy(),
        journals=[journal],
        chaos=chaos,
        sleep=sleep,
        on_progress=(
            None
            if on_progress is None
            else lambda _entry, done, total: on_progress(done, total)
        ),
        queue_dir=queue_dir,
        lease=lease,
    )
    return outcome

